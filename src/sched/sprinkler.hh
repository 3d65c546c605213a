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
 *  - SPK1 keeps per-I/O chip runs (ChipRuns, as PAS does) and looks
 *    only at chips in the union of the lookahead I/Os' pending masks,
 *    masked by belowLimit. A readdress rebuilds the moved page's I/O
 *    runs.
 *
 * FARO's set on a chip is a function of the chip's candidates alone
 * (their order, operations, addresses and owners), so both FARO
 * variants keep, per chip, the set last chosen and a dirty bit, and a
 * poll recomputes the set only on a dirty chip it looks at. A chip
 * turns dirty exactly where its candidates can change: a compose on
 * it, a retarget off or onto it, a hazard release (onSchedulable on
 * its request; every chip at onBarrierChanged), and an enqueue onto
 * it (SPK3) or an I/O with pages on it entering the lookahead (SPK1).
 * Requests never turn unschedulable while queued (the contract of
 * SchedulerView::schedulable), so no other event can change a set.
 * The greedy that builds a set reads per-die plane masks and page
 * offsets.
 *
 * All decision state lives in flat per-chip / per-tag vectors sized
 * in prepare(), so next() never touches the heap once the buckets
 * reach their steady-state sizes.
 */

#ifndef SPK_SCHED_SPRINKLER_HH
#define SPK_SCHED_SPRINKLER_HH

#include <cstdint>
#include <vector>

#include "sched/chip_runs.hh"
#include "sched/scheduler.hh"
#include "sim/ring_deque.hh"

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

    void onSchedulable(const MemoryRequest &req) override;

    void onBarrierChanged() override;

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

    /** FARO: @p chip's cached set is out of date. */
    void markDirty(std::uint32_t chip);

    bool
    dirty(std::uint32_t chip) const
    {
        return (dirty_[chip / 64] >> (chip % 64)) & 1;
    }

    /** The first of @p chip's setCap_ cached-set slots. */
    MemoryRequest **
    setOf(std::uint32_t chip)
    {
        return &sets_[std::size_t{chip} * setCap_];
    }

    /**
     * Recompute @p chip's FARO set from the candidates @p for_each
     * visits, oldest first: the largest coalescable set (the highest
     * overlap depth), ties broken toward higher connectivity, then
     * toward the older seed. Caches it, with its summary, clean.
     */
    template <typename ForEach>
    void chooseSet(std::uint32_t chip, ForEach &&for_each);

    /** Oldest schedulable, uncomposed request in a bucket. */
    MemoryRequest *oldest(SchedulerContext &ctx, std::uint32_t chip) const;

    /** RIOS's pick on @p chip, or nullptr (advances the cursor). */
    MemoryRequest *riosPick(SchedulerContext &ctx, std::uint32_t chip);

    /** RIOS traversal step; returns a request or nullptr. */
    MemoryRequest *nextRios(SchedulerContext &ctx);

    /** SPK1: depth-first chip selection without traversal. */
    MemoryRequest *nextFaroOnly(SchedulerContext &ctx);

    /**
     * Adopt @p chip's cached set: its head is returned, the rest
     * becomes the batch. Panics if the set holds a composed request
     * (a change the dirty bits missed).
     */
    MemoryRequest *takeSet(std::uint32_t chip);

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

    /** SPK1, per tag: the queued I/O, to rebuild its runs, and
     *  whether a poll has seen it in the lookahead. */
    struct TagEntry
    {
        const IoRequest *io = nullptr;
        bool inLookahead = false;
    };
    std::vector<TagEntry> tags_;

    /** FARO: slots per cached set, min(window, kMaxTxnRequests). */
    std::uint32_t setCap_ = 0;

    /**
     * FARO: each chip's cached set in setCap_ slots, chip by chip,
     * then one more setCap_ slots of scratch for the greedy's second
     * set. A clean set holds only uncomposed, schedulable requests.
     */
    std::vector<MemoryRequest *> sets_;

    /** What a cached set holds, read without touching its requests. */
    struct SetSummary
    {
        std::uint64_t seed = 0; //!< id of its first (oldest) request
        std::uint32_t size = 0; //!< 0: the chip has no set
    };

    /** FARO: each chip's cached set summary. */
    std::vector<SetSummary> summary_;

    /** FARO: chips whose cached set is out of date, one bit each. */
    std::vector<std::uint64_t> dirty_;

    /** The FARO set being committed: batchChip_'s cached set, from
     *  entry batchPos_ up to batchEnd_. chooseSet never runs while
     *  entries remain, so the slots stay put. */
    std::uint32_t batchChip_ = 0;
    std::uint32_t batchPos_ = 0;
    std::uint32_t batchEnd_ = 0;

    /** Connectivity counters, by tag slot, and the slots touched. */
    std::vector<std::uint32_t> tagCount_;
    std::vector<std::uint32_t> touchedTags_;
};

} // namespace spk

#endif // SPK_SCHED_SPRINKLER_HH
