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
#include <vector>

#include "sched/scheduler.hh"

namespace spk
{

/**
 * Physical-address scheduler with coarse out-of-order commitment.
 *
 * The pick is the lowest-index uncomposed, hazard-free page of the
 * oldest I/O that has one on a chip free for it. To find it without
 * visiting every page, each I/O's pages are grouped at enqueue into
 * one run per chip, in page-index order, chained through
 * MemoryRequest::chipNext. next() intersects the I/O's pending-chip
 * mask with the view's occupancy bitmaps and looks only at the runs
 * that survive.
 */
class PasScheduler : public IoScheduler
{
  public:
    const char *name() const override { return "PAS"; }

    MemoryRequest *next(SchedulerContext &ctx) override;

    void prepare(std::uint32_t num_chips,
                 std::uint32_t queue_depth) override;

    void onEnqueue(IoRequest &io) override;

  private:
    std::uint32_t numChips_ = 0;
    std::uint32_t numTags_ = 0;
    std::uint32_t words_ = 0; //!< 64-bit words per chip mask

    /**
     * Per tag, words_ words: chips where the tag's I/O may still have
     * an uncomposed page. A bit is cleared once next() finds the run
     * fully composed.
     */
    std::vector<std::uint64_t> pending_;

    /**
     * Per (tag, chip), numChips_ entries per tag: the run's first page
     * not known to be composed (the composed-prefix cursor). Valid only
     * where the tag's pending_ bit is set.
     */
    std::vector<MemoryRequest *> runHead_;
};

} // namespace spk

#endif // SPK_SCHED_PAS_HH
