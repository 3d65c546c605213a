#include "sim/stats.hh"

#include "sim/logging.hh"

namespace spk
{

void
BusyTracker::claim(Tick now)
{
    if (depth_ == 0)
        busyStart_ = now;
    ++depth_;
}

void
BusyTracker::release(Tick now)
{
    if (depth_ <= 0)
        panic("BusyTracker::release without matching claim");
    --depth_;
    if (depth_ == 0) {
        if (now < busyStart_)
            panic("BusyTracker::release before claim time");
        accumulated_ += now - busyStart_;
    }
}

Tick
BusyTracker::busyTime(Tick now) const
{
    Tick total = accumulated_;
    if (depth_ > 0 && now > busyStart_)
        total += now - busyStart_;
    return total;
}

} // namespace spk
