/**
 * @file
 * BusyTracker: resource occupancy over simulated time, with reference
 * counting (a resource may be claimed by several overlapping
 * activities). selectQuantiles: the latency quantiles every
 * MetricsSnapshot reports.
 */

#ifndef SPK_SIM_STATS_HH
#define SPK_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace spk
{

/**
 * The sorted-quantile formula, sorted[floor(q * (n - 1))], for each q
 * in @p qs, found by selection instead of a sort: one nth_element per
 * quantile, each on the suffix the one before left. @p qs must be
 * ascending. Reorders @p values. Every quantile of no values is T{}.
 */
template <typename T, std::size_t N>
std::array<T, N>
selectQuantiles(std::vector<T> &values, const double (&qs)[N])
{
    std::array<T, N> out{};
    if (values.empty())
        return out;
    auto first = values.begin();
    for (std::size_t i = 0; i < N; ++i) {
        const auto idx = static_cast<std::size_t>(
            qs[i] * static_cast<double>(values.size() - 1));
        const auto nth =
            values.begin() + static_cast<std::ptrdiff_t>(idx);
        std::nth_element(first, nth, values.end());
        out[i] = *nth;
        first = nth;
    }
    return out;
}

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
