#include "sched/queue_arbiter.hh"

#include "sim/logging.hh"

namespace spk
{

namespace
{

/**
 * Plain round-robin: one admission per backlogged stream per visit.
 * With a single stream this degenerates to FIFO admission, which is
 * exactly the pre-multi-queue NVMHC behavior.
 */
class RoundRobinArbiter final : public QueueArbiter
{
  public:
    std::uint32_t
    pick(const std::vector<StreamState> &streams) override
    {
        const auto n = static_cast<std::uint32_t>(streams.size());
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t s = (cursor_ + i) % n;
            if (streams[s].waiting > 0) {
                cursor_ = (s + 1) % n;
                return s;
            }
        }
        panic("RoundRobinArbiter::pick called with no waiting stream");
    }

  private:
    std::uint32_t cursor_ = 0;
};

/**
 * Weighted round-robin: a backlogged stream receives up to `weight`
 * consecutive admissions per visit before the cursor moves on, so
 * over a contended interval stream shares converge to the weight
 * ratio. Credit is forfeited when a stream's backlog drains.
 */
class WeightedRoundRobinArbiter final : public QueueArbiter
{
  public:
    std::uint32_t
    pick(const std::vector<StreamState> &streams) override
    {
        const auto n = static_cast<std::uint32_t>(streams.size());
        for (std::uint32_t i = 0; i < n; ++i) {
            const StreamState &s = streams[cursor_ % n];
            if (s.waiting > 0) {
                // A fresh visit (credit exhausted or forfeited)
                // grants the stream its full weight burst.
                if (credit_ == 0)
                    credit_ = s.weight == 0 ? 1 : s.weight;
                const std::uint32_t picked = cursor_ % n;
                if (--credit_ == 0)
                    advance(n);
                return picked;
            }
            advance(n); // idle stream forfeits its visit credit
        }
        panic("WeightedRoundRobinArbiter::pick called with no waiting "
              "stream");
    }

    void
    prepare(std::uint32_t num_streams) override
    {
        cursor_ = 0;
        credit_ = 0;
        (void)num_streams;
    }

  private:
    void
    advance(std::uint32_t n)
    {
        cursor_ = (cursor_ + 1) % n;
        credit_ = 0;
    }

    std::uint32_t cursor_ = 0;
    std::uint32_t credit_ = 0; //!< admissions left at cursor_
};

/**
 * Strict priority: the most urgent backlogged class (lowest priority
 * value) always wins; within a class streams share round-robin. A
 * less urgent stream can never hold tags hostage against a more
 * urgent one's *waiting* submissions -- tags already granted are not
 * revoked (no preemption), which is the NVMe model as well.
 */
class StrictPriorityArbiter final : public QueueArbiter
{
  public:
    std::uint32_t
    pick(const std::vector<StreamState> &streams) override
    {
        const auto n = static_cast<std::uint32_t>(streams.size());
        bool found = false;
        std::uint32_t best = 0;
        for (std::uint32_t s = 0; s < n; ++s) {
            if (streams[s].waiting == 0)
                continue;
            if (!found || streams[s].priority < best) {
                best = streams[s].priority;
                found = true;
            }
        }
        if (!found)
            panic("StrictPriorityArbiter::pick called with no waiting "
                  "stream");
        // Round-robin within the winning class: first backlogged
        // member at or after the cursor.
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t s = (cursor_ + i) % n;
            if (streams[s].waiting > 0 && streams[s].priority == best) {
                cursor_ = (s + 1) % n;
                return s;
            }
        }
        panic("StrictPriorityArbiter::pick lost the winning class");
    }

  private:
    std::uint32_t cursor_ = 0;
};

} // namespace

const char *
arbiterKindName(ArbiterKind kind)
{
    switch (kind) {
      case ArbiterKind::RoundRobin:
        return "RR";
      case ArbiterKind::WeightedRoundRobin:
        return "WRR";
      case ArbiterKind::StrictPriority:
        return "PRIO";
    }
    panic("arbiterKindName: unknown kind");
}

std::unique_ptr<QueueArbiter>
makeArbiter(ArbiterKind kind)
{
    switch (kind) {
      case ArbiterKind::RoundRobin:
        return std::make_unique<RoundRobinArbiter>();
      case ArbiterKind::WeightedRoundRobin:
        return std::make_unique<WeightedRoundRobinArbiter>();
      case ArbiterKind::StrictPriority:
        return std::make_unique<StrictPriorityArbiter>();
    }
    panic("makeArbiter: unknown kind");
}

} // namespace spk
