#include "sched/scheduler.hh"

#include <algorithm>
#include <cctype>

#include "sched/pas.hh"
#include "sched/sprinkler.hh"
#include "sched/vas.hh"
#include "sim/logging.hh"

namespace spk
{

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::VAS:
        return "VAS";
      case SchedulerKind::PAS:
        return "PAS";
      case SchedulerKind::SPK1:
        return "SPK1";
      case SchedulerKind::SPK2:
        return "SPK2";
      case SchedulerKind::SPK3:
        return "SPK3";
    }
    return "?";
}

SchedulerKind
parseSchedulerKind(const std::string &name)
{
    std::string upper(name);
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    // SPK3 is the last kind.
    for (int k = 0; k <= static_cast<int>(SchedulerKind::SPK3); ++k) {
        const auto kind = static_cast<SchedulerKind>(k);
        if (upper == schedulerKindName(kind))
            return kind;
    }
    fatal("unknown scheduler name: " + name);
}

std::unique_ptr<IoScheduler>
makeScheduler(SchedulerKind kind, std::uint32_t faro_window)
{
    switch (kind) {
      case SchedulerKind::VAS:
        return std::make_unique<VasScheduler>();
      case SchedulerKind::PAS:
        return std::make_unique<PasScheduler>();
      case SchedulerKind::SPK1:
        return std::make_unique<SprinklerScheduler>(false, true,
                                                    faro_window);
      case SchedulerKind::SPK2:
        return std::make_unique<SprinklerScheduler>(true, false,
                                                    faro_window);
      case SchedulerKind::SPK3:
        return std::make_unique<SprinklerScheduler>(true, true,
                                                    faro_window);
    }
    fatal("makeScheduler: bad kind");
}

} // namespace spk
