/**
 * @file
 * Non-Volatile Memory Host Controller (NVMHC).
 *
 * Owns the device-level queue (NCQ-style tags), the memory-request
 * composition engine (tag parsing + host data movement initiation),
 * hazard control (per-LPN ordering, FUA barriers) and the pluggable
 * I/O scheduler. Mirrors the I/O service routine of Figure 3:
 * queuing -> memory request composition -> commitment.
 */

#ifndef SPK_SCHED_NVMHC_HH
#define SPK_SCHED_NVMHC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "controller/flash_controller.hh"
#include "controller/io_request.hh"
#include "ftl/ftl.hh"
#include "sched/lpn_chain.hh"
#include "sched/queue_arbiter.hh"
#include "sched/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/slab.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace spk
{

/** NVMHC tuning knobs. */
struct NvmhcConfig
{
    /** Device-level queue depth (tags). */
    std::uint32_t queueDepth = 32;

    /**
     * Per-memory-request composition cost: aggregate NVMHC/FTL
     * processing throughput (the platform has multiple cores; this is
     * the effective per-request cost).
     */
    Tick composeOverhead = 100 * kNanosecond;

    /** Host fabric bandwidth (PCI Express, Section 1: 16 GB/s). */
    std::uint64_t hostBwBytesPerSec = 16'000'000'000ull;

    /**
     * How the shared device tag space is allocated across submission
     * queues when more submissions wait than free tags exist. With a
     * single stream every policy degenerates to FIFO admission (the
     * pre-multi-queue behavior).
     */
    ArbiterKind arbiter = ArbiterKind::RoundRobin;
};

/** Arbitration attributes of one submission queue (host stream). */
struct StreamInfo
{
    std::uint32_t weight = 1;   //!< WRR share (0 acts as 1)
    std::uint32_t priority = 0; //!< lower value is more urgent
};

/** Aggregate NVMHC statistics. */
struct NvmhcStats
{
    std::uint64_t iosSubmitted = 0;
    std::uint64_t iosCompleted = 0;
    std::uint64_t requestsComposed = 0;
    std::uint64_t staleRetries = 0; //!< re-executed after migration
    Tick queueStallTime = 0;        //!< host waits for a free tag
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    /** Pages whose read came back uncorrectable (fault injection). */
    std::uint64_t readFailures = 0;

    /** Host I/Os completed with at least one failed page. */
    std::uint64_t failedIos = 0;

    /** Failed reads served via die-parity reconstruction instead of
     *  an error completion. */
    std::uint64_t reconstructedReads = 0;
};

/**
 * The device-level host controller.
 *
 * The composition engine serializes memory-request composition; which
 * request it composes next is the scheduler's decision (this is where
 * VAS / PAS / Sprinkler differ).
 *
 * The NVMHC is the SchedulerView: outstanding counts come from flat
 * per-chip controller lookup tables and the controllers' incremental
 * counters, and the occupancy bitmaps are the controllers' own, so a
 * scheduler poll never allocates or walks a map.
 */
class Nvmhc : private SchedulerView
{
  public:
    using IoCompleteFn = std::function<void(const IoRequest &)>;

    /**
     * @param events shared event queue
     * @param geo device geometry
     * @param ftl translation layer (translation happens at enqueue --
     *        the paper's core.preprocess step)
     * @param controllers one per channel, indexed by channel
     * @param arena device-wide MemoryRequest arena (shared with the
     *        GC engine; must outlive the NVMHC)
     * @param occupancy device-wide chip occupancy the controllers
     *        maintain (must outlive the NVMHC)
     * @param sched scheduling strategy
     * @param cfg tuning knobs
     * @param on_io_complete invoked once per completed host I/O
     */
    Nvmhc(EventQueue &events, const FlashGeometry &geo, Ftl &ftl,
          std::vector<FlashController *> controllers,
          Slab<MemoryRequest> &arena, const ChipOccupancy &occupancy,
          std::unique_ptr<IoScheduler> sched, const NvmhcConfig &cfg,
          IoCompleteFn on_io_complete);

    /**
     * Re-shape the submission-queue front end: @p infos describes one
     * stream per entry (stream ids are indices into it). Must be
     * called before any traffic; the NVMHC starts out with a single
     * default stream, so single-stream users never need to call this.
     */
    void configureStreams(const std::vector<StreamInfo> &infos);

    /**
     * Host submits an I/O on submission queue @p stream. If the
     * device queue is full the request waits in its stream's queue
     * for a tag (admission order across streams is the arbiter's
     * decision); the wait is accounted as queue stall time.
     */
    void submit(bool is_write, Lpn first_lpn, std::uint32_t page_count,
                bool fua, Tick arrival, std::uint32_t stream = 0);

    /** Flash-level completion upcall for host memory requests. */
    void onRequestFinished(MemoryRequest *req);

    /**
     * Degraded-read hook: called with a host read whose page came back
     * uncorrectable. Return true to take ownership — the parity engine
     * fans out survivor reads and later resolves the request through
     * finishReconstructed(); the I/O stays outstanding meanwhile.
     * Return false to complete the I/O with the error as before.
     */
    using ReconstructFn = std::function<bool(MemoryRequest *)>;
    void setReconstructHook(ReconstructFn hook)
    {
        reconstruct_ = std::move(hook);
    }

    /**
     * Reconstruction of @p req resolved: @p ok means every surviving
     * stripe member was read and the page was recovered; false means
     * the stripe could not be rebuilt and the error is delivered.
     */
    void finishReconstructed(MemoryRequest *req, bool ok);

    /** Readdressing callback entry (wired to the FTL by the device). */
    void readdress(Lpn lpn, Ppn from, Ppn to);

    /** Re-poll the scheduler (e.g. after GC frees a chip). */
    void kick();

    /**
     * Pre-size one stream's arrival backlog: at most @p total
     * submissions of @p stream can ever wait for a tag at once (the
     * device calls this from replay() so a saturating trace never
     * grows the queue mid-run).
     */
    void reserveBacklog(std::size_t total, std::uint32_t stream = 0)
    {
        if (stream >= waiting_.size())
            fatal("Nvmhc::reserveBacklog on unconfigured stream");
        waiting_[stream].reserve(total);
    }

    /** True when no host I/O is queued, waiting or composing. */
    bool idle() const;

    /** Queued + waiting I/O count. */
    std::uint32_t outstandingIos() const;

    /** Time the device had at least one outstanding host I/O. */
    Tick deviceActiveTime(Tick now) const
    {
        return active_.busyTime(now);
    }

    const NvmhcStats &stats() const { return stats_; }

    /** Number of configured submission queues (streams). */
    std::uint32_t streamCount() const
    {
        return static_cast<std::uint32_t>(streamStats_.size());
    }

    /** Per-stream slice of the aggregate statistics. */
    const NvmhcStats &streamStats(std::uint32_t stream) const
    {
        return streamStats_[stream];
    }

    IoScheduler &scheduler() { return *sched_; }
    const QueueArbiter &arbiter() const { return *arbiter_; }
    const RingDeque<IoRequest *> &queue() const { return queue_; }

    /** Hook run after every enqueue (the device's GC trigger check). */
    void setAfterEnqueueHook(std::function<void()> hook)
    {
        afterEnqueue_ = std::move(hook);
    }

    /**
     * Emergency space reclaim used when write allocation fails. The
     * hook must run one GC round (and charge its flash time) and
     * return whether any block was reclaimed. Without a hook the FTL
     * is invoked directly (mapping-only).
     */
    void setReclaimHook(std::function<bool()> hook)
    {
        reclaim_ = std::move(hook);
    }

  private:
    // SchedulerView: flat-indexed, allocation-free device queries.
    std::uint32_t outstanding(std::uint32_t chip) const override;
    const ChipOccupancy &occupancy() const override { return occupancy_; }
    bool schedulable(const MemoryRequest &req) const override
    {
        return hazardFree(req);
    }

    struct PendingSubmission
    {
        bool isWrite = false;
        Lpn firstLpn = 0;
        std::uint32_t pageCount = 0;
        bool fua = false;
        Tick arrival = 0;
        std::uint32_t stream = 0;
    };

    /** Secure a tag and preprocess (translate + bucket) an I/O. */
    void enqueue(const PendingSubmission &sub);

    /** Scrub and return a retired memory request to the arena. */
    void releaseRequest(MemoryRequest *req);

    /** Admit waiting submissions into freed tags. */
    void admitWaiting();

    /** Run the composition engine if idle and work is eligible. */
    void pump();

    /** Re-translate and re-execute a stale request (live migration
     *  moved its page while it was in flight). */
    void retryStale(MemoryRequest *req, IoRequest *io);

    /** Completion tail shared by onRequestFinished and
     *  finishReconstructed: hazard-chain retirement, I/O bitmap,
     *  done handling, tag recycling, pump. */
    void finishRequestTail(MemoryRequest *req, IoRequest *io);

    /** Composition of @p req finished: commit it to its controller. */
    void composeDone(MemoryRequest *req);

    /** Per-LPN ordering + FUA barrier check. */
    bool hazardFree(const MemoryRequest &req) const;

    FlashController &controllerFor(std::uint32_t chip);

    /** Translate @p req at enqueue time; backfills unwritten reads. */
    void translate(MemoryRequest &req);

    EventQueue &events_;
    FlashGeometry geo_;
    Ftl &ftl_;
    std::vector<FlashController *> controllers_;
    std::unique_ptr<IoScheduler> sched_;
    NvmhcConfig cfg_;
    IoCompleteFn onIoComplete_;
    std::function<void()> afterEnqueue_;
    std::function<bool()> reclaim_;
    ReconstructFn reconstruct_;

    /**
     * Flat NCQ slot slab indexed by tag; size == queueDepth, fixed at
     * construction (entries are recycled in place, their pages vector
     * and bitmap keep their capacity across I/Os).
     */
    std::vector<IoRequest> slots_;
    /** Recycled tag ids (LIFO); tags stay in [0, queueDepth). */
    std::vector<TagId> freeTags_;
    RingDeque<IoRequest *> queue_; //!< arrival order, live entries
    /** FUA I/Os in queue_; the barrier walk is skipped while 0. */
    std::uint32_t fuaQueued_ = 0;

    /** Per-stream tag-wait queues (NVMe submission queues), indexed
     *  by stream id; sized by configureStreams (default: one). */
    std::vector<RingDeque<PendingSubmission>> waiting_;
    std::uint32_t waitingTotal_ = 0; //!< sum over waiting_ sizes

    /** Tag-space arbitration across the stream queues. */
    std::unique_ptr<QueueArbiter> arbiter_;
    /** Arbiter view, maintained incrementally (waiting/inDevice). */
    std::vector<QueueArbiter::StreamState> streamStates_;
    /** Per-stream slices of stats_ (same counters, same points). */
    std::vector<NvmhcStats> streamStats_;

    std::uint64_t nextReqId_ = 0;

    /** Device-wide MemoryRequest arena (owned by the Ssd, shared with
     *  the GC engine). The host-side high-water mark is bounded by
     *  queueDepth x pages-per-I/O. */
    Slab<MemoryRequest> &arena_;

    /** Per-global-chip controller / chip-offset lookup tables. */
    std::vector<FlashController *> ctrlByChip_;
    std::vector<std::uint32_t> offsetByChip_;
    const ChipOccupancy &occupancy_;

    /** Per-LPN pending requests, oldest first (hazard ordering);
     *  intrusive chains, allocation-free at steady state. */
    LpnChainMap lpnChain_;

    bool engineBusy_ = false;
    BusyTracker active_;
    NvmhcStats stats_;
    SchedulerContext ctx_;
};

} // namespace spk

#endif // SPK_SCHED_NVMHC_HH
