/**
 * @file
 * Sprinkler: resource-driven scheduling (RIOS) with FLP-aware request
 * over-commitment (FARO) -- the paper's contribution (Section 4).
 *
 * RIOS buckets every queued memory request by physical chip and
 * composes/commits per chip, traversing chips in channel-stripe order
 * (same chip offset across channels first), fully relaxing the
 * parallelism dependency on I/O arrival order.
 *
 * FARO over-commits multiple requests per chip, choosing the set with
 * the highest overlap depth (requests coalescable into one multi-die /
 * multi-plane transaction) and breaking ties by connectivity (requests
 * of the same I/O), so flash controllers can build single high-FLP
 * transactions.
 *
 * The three evaluated variants map to constructor flags:
 *   SPK1 = FARO only, SPK2 = RIOS only, SPK3 = RIOS + FARO.
 *
 * A chip can take work while its load (pending plus in-flight
 * requests) is below loadLimit(): the FARO window with FARO, 1
 * without. Both walks look
 * only at such chips, through the occupancy's load row, and each
 * variant keeps only its own index:
 *
 *  - RIOS (SPK2, SPK3) keeps a bitmap of chips whose bucket is
 *    non-empty and walks nonempty & belowLimit from the cursor with
 *    count-trailing-zeros, in the chip-by-chip visit order.
 *  - SPK1 keeps per-I/O chip runs (ChipRuns, as PAS does) and builds
 *    candidate lists only on chips in the union of the lookahead
 *    I/Os' pending masks, masked by belowLimit. A readdress rebuilds
 *    the moved page's I/O runs.
 *
 * All decision state lives in flat per-chip / per-tag vectors reused
 * across next() calls and sized in prepare(); the inner loops are
 * allocation-free once the scratch buffers reach their steady-state
 * sizes.
 */

#ifndef SPK_SCHED_SPRINKLER_HH
#define SPK_SCHED_SPRINKLER_HH

#include <cstdint>
#include <vector>

#include "sched/chip_runs.hh"
#include "sched/scheduler.hh"

namespace spk
{

/** Sprinkler scheduler; see file comment for the RIOS/FARO split. */
class SprinklerScheduler : public IoScheduler
{
  public:
    /**
     * @param rios enable resource-driven chip traversal
     * @param faro enable over-commitment with depth/connectivity
     *             priority
     * @param window FARO over-commitment window: a chip can take a
     *               set while its committed-but-unfinished count is
     *               below @p window, and the set holds up to @p window
     *               requests, so a chip can hold 2 * window - 1
     */
    SprinklerScheduler(bool rios, bool faro, std::uint32_t window);

    MemoryRequest *next(SchedulerContext &ctx) override;

    void prepare(std::uint32_t num_chips,
                 std::uint32_t queue_depth) override;

    void onEnqueue(IoRequest &io) override;

    void onRetarget(MemoryRequest &req, std::uint32_t old_chip) override;

    void onComposed(const MemoryRequest &req) override;

    /** Sprinkler registers the readdressing callback (Section 4.3). */
    bool wantsReaddressing() const override { return true; }

    std::uint32_t
    loadLimit() const override
    {
        return faro_ ? window_ : 1;
    }

  private:
    /** Append @p req to its chip's bucket. */
    void bucketPush(MemoryRequest &req);

    /** Drop @p req from @p chip's bucket, if it is there. */
    void bucketErase(const MemoryRequest &req, std::uint32_t chip);

    /** The load row of @p ctx's occupancy, checked against loadLimit(). */
    const std::uint64_t *loadRow(const SchedulerContext &ctx) const;

    /**
     * Largest coalescable set among @p candidates for @p chip (the
     * highest-overlap-depth group), written into @p out. Ties between
     * the read-seeded and write-seeded candidate sets break toward
     * higher connectivity, then toward the older seed.
     */
    void bestSetFrom(const std::vector<MemoryRequest *> &candidates,
                     std::uint32_t chip,
                     std::vector<MemoryRequest *> &out) const;

    /** bestSetFrom over the schedulable entries of a chip's bucket. */
    void bestSet(SchedulerContext &ctx, std::uint32_t chip,
                 std::vector<MemoryRequest *> &out) const;

    /** Oldest schedulable, uncomposed request in a bucket. */
    MemoryRequest *oldest(SchedulerContext &ctx, std::uint32_t chip) const;

    /** RIOS's pick on @p chip, or nullptr (advances the cursor). */
    MemoryRequest *riosPick(SchedulerContext &ctx, std::uint32_t chip);

    /** RIOS traversal step; returns a request or nullptr. */
    MemoryRequest *nextRios(SchedulerContext &ctx);

    /** SPK1: depth-first chip selection without traversal. */
    MemoryRequest *nextFaroOnly(SchedulerContext &ctx);

    /** Adopt @p set: head is returned, the rest becomes the batch. */
    MemoryRequest *takeSet(const std::vector<MemoryRequest *> &set);

    bool rios_;
    bool faro_;
    std::uint32_t window_;
    std::uint32_t numChips_ = 0;

    /** RIOS: per-chip uncomposed requests, insertion (arrival) order. */
    std::vector<RingDeque<MemoryRequest *>> buckets_;

    /** RIOS: chips whose bucket is non-empty, one bit per chip. */
    std::vector<std::uint64_t> nonempty_;

    /** RIOS: the chip the next traversal starts at. */
    std::uint32_t cursor_ = 0;

    /** SPK1: each queued I/O's pages grouped by chip. */
    ChipRuns runs_;

    /** SPK1: the queued I/O of each tag, to rebuild its runs. */
    std::vector<const IoRequest *> ioByTag_;

    /** FARO batch being committed; batchPos_ is the next entry. */
    std::vector<MemoryRequest *> batch_;
    std::size_t batchPos_ = 0;

    // Scratch buffers reused across next() calls (mutable: decision
    // helpers are const). Their contents never outlive one call.
    mutable std::vector<MemoryRequest *> candScratch_;
    mutable std::vector<MemoryRequest *> readSet_;
    mutable std::vector<MemoryRequest *> writeSet_;
    mutable std::vector<std::uint32_t> tagCount_;   //!< by tag slot
    mutable std::vector<std::uint32_t> touchedTags_;
    std::vector<MemoryRequest *> setScratch_;
    std::vector<MemoryRequest *> bestScratch_;
};

} // namespace spk

#endif // SPK_SCHED_SPRINKLER_HH
