/**
 * @file
 * Physical Address Scheduler (PAS) -- the out-of-order baseline.
 *
 * PAS knows the physical addresses of queued I/Os (via a preprocessor,
 * as in Ozone/PAQ) and executes coarse-grain out-of-order: it skips
 * busy flash chips and commits the other memory requests to idle
 * chips through per-chip flash queues (Sections 3 and 5.1). It still
 * composes memory requests in I/O arrival order and never coalesces
 * across I/O boundaries, so parallelism dependency and low
 * transactional locality remain (Figure 5).
 */

#ifndef SPK_SCHED_PAS_HH
#define SPK_SCHED_PAS_HH

#include <cstdint>

#include "sched/chip_runs.hh"
#include "sched/scheduler.hh"

namespace spk
{

/**
 * Physical-address scheduler with coarse out-of-order commitment.
 *
 * The pick is the lowest-index uncomposed, hazard-free page of the
 * oldest I/O that has one on a chip free for it. To find it without
 * visiting every page, each I/O's pages are grouped at enqueue into
 * per-chip runs (ChipRuns). next() intersects the I/O's pending-chip
 * mask with the view's occupancy bitmaps and looks only at the runs
 * that survive.
 */
class PasScheduler : public IoScheduler
{
  public:
    MemoryRequest *next(SchedulerContext &ctx) override;

    void prepare(std::uint32_t num_chips,
                 std::uint32_t queue_depth) override;

    void onEnqueue(IoRequest &io) override;

  private:
    ChipRuns runs_;
};

} // namespace spk

#endif // SPK_SCHED_PAS_HH
