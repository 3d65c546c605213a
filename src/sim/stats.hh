/**
 * @file
 * BusyTracker: resource occupancy over simulated time, with reference
 * counting (a resource may be claimed by several overlapping
 * activities).
 */

#ifndef SPK_SIM_STATS_HH
#define SPK_SIM_STATS_HH

#include "sim/types.hh"

namespace spk
{

/**
 * Tracks how long a resource has been busy.
 *
 * claim()/release() pairs may nest; the resource counts as busy while
 * at least one claim is outstanding. All methods take the current tick
 * explicitly so the tracker has no dependency on the event queue.
 */
class BusyTracker
{
  public:
    /** Mark the resource busy starting at @p now. */
    void claim(Tick now);

    /** Release one claim at @p now. */
    void release(Tick now);

    /** Accumulated busy time up to @p now. */
    Tick busyTime(Tick now) const;

  private:
    int depth_ = 0;
    Tick busyStart_ = 0;
    Tick accumulated_ = 0;
};

} // namespace spk

#endif // SPK_SIM_STATS_HH
