/**
 * @file
 * Per-channel flash controller: builds and executes flash transactions.
 *
 * The controller receives committed memory requests, keeps a pending
 * queue per chip, and whenever a chip's R/B is free coalesces as many
 * compatible pending requests as possible into one transaction
 * (Section 2.2 / Figure 8). Coalescing is a property of the
 * controller, not of the scheduler: schedulers differ only in *which*
 * requests are committed and *when*.
 *
 * A pending queue entry holds its request and the request's
 * CoalesceKey, copied at commit, and each queue counts its entries of
 * each operation. Sprinkler over-commits, so a chip can hold dozens of
 * requests; a launch reads keys, not requests, and stops after the
 * last entry of its seed's operation, so it costs what it can still
 * pick rather than what is queued. Its picks go straight into the
 * chip's executing list, and one pass over their keys plans the
 * transaction in place (planTransaction()): cell phases, bus holds,
 * FLP class and the ONFI check.
 */

#ifndef SPK_CONTROLLER_FLASH_CONTROLLER_HH
#define SPK_CONTROLLER_FLASH_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "controller/channel.hh"
#include "controller/chip_occupancy.hh"
#include "controller/soft_decoder.hh"
#include "flash/chip.hh"
#include "flash/fault_model.hh"
#include "flash/mem_request.hh"
#include "flash/timing.hh"
#include "flash/transaction.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"
#include "sim/types.hh"

namespace spk
{

/** One chip's pending requests, oldest first, each beside its
 *  CoalesceKey, and opCount[op], the number of entries of each op. */
struct PendingQueue
{
    struct Entry
    {
        MemoryRequest *req;
        CoalesceKey key;
    };

    RingDeque<Entry> entries;
    std::array<std::uint32_t, kFlashOps> opCount{};

    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    /** Queue @p req at the back, or at the @p front (GC priority, a
     *  read retry). */
    void push(MemoryRequest *req, bool front);

    /**
     * Remove the next transaction's requests, append them to @p reqs
     * and set @p keys to their keys, both in pick order. The oldest
     * request seeds it; unless the seed is an erase or a retried read,
     * which run alone, each later request of the seed's operation that
     * is not a retried read and is coalescible() with every request
     * picked so far joins, in queue order, until the transaction holds
     * @p max_size requests. The requests left keep their order.
     * @pre !empty()
     */
    void take(std::size_t max_size, std::vector<MemoryRequest *> &reqs,
              CoalesceKeys &keys);
};

/** Aggregate controller statistics. */
struct ControllerStats
{
    /** Read-retry re-issues, total and per ladder step (bin k counts
     *  retries entering step k+1). */
    std::uint64_t readRetries = 0;
    std::array<std::uint64_t, kMaxRetrySteps> readRetriesByStep{};

    /** Reads whose retry ladder was exhausted (pages lost). */
    std::uint64_t uncorrectableReads = 0;

    /** Program operations that failed (host and GC). */
    std::uint64_t programFailures = 0;
};

/**
 * Flash controller for one channel.
 *
 * Transaction launch is deferred by a short decision window (the
 * paper's "transaction type decision time"): when a chip becomes
 * ready with pending work, the launch fires after decisionWindow
 * ticks, letting temporally-close commitments join the same
 * transaction.
 */
class FlashController
{
  public:
    using CompletionFn = std::function<void(MemoryRequest *)>;

    /**
     * @param events shared event queue
     * @param channel the bus this controller drives
     * @param chips chips on this channel, indexed by chip-in-channel
     * @param occupancy device-wide chip occupancy, indexed by each
     *        chip's global index(): every commit holds its chip there
     *        until the request completes, and every change of a
     *        chip's outstanding() sets its load
     * @param timing NAND timing parameters
     * @param page_bytes flash page size
     * @param decision_window transaction-decision latency
     * @param on_complete invoked once per finished memory request
     * @param faults fault decider; nullptr or inert = fault-free
     * @param decoder device-shared soft decoder; nullptr (or soft
     *        decode disabled in @p faults) keeps ladder exhaustion
     *        terminal as before
     */
    FlashController(EventQueue &events, Channel &channel,
                    std::vector<FlashChip *> chips,
                    ChipOccupancy &occupancy, const FlashTiming &timing,
                    std::uint32_t page_bytes, Tick decision_window,
                    CompletionFn on_complete,
                    const FaultModel *faults = nullptr,
                    SoftDecoder *decoder = nullptr);

    /**
     * Commit a memory request to its chip's pending queue.
     * @param front push ahead of existing work (GC priority).
     */
    void commit(MemoryRequest *req, bool front = false);

    /**
     * Pre-size every chip's pending and executing queues for
     * @p queue_depth requests, so the steady state is reached without
     * incremental container growth (repeated device construction in
     * sweeps stays cheap).
     */
    void reserveSteadyState(std::uint32_t queue_depth);

    /**
     * A chip's load (by chip offset): its pending plus in-flight
     * requests. A read held for a soft decode is neither. The
     * occupancy's load row mirrors it.
     */
    std::uint32_t outstanding(std::uint32_t chip_offset) const;

    const ControllerStats &stats() const { return stats_; }

  private:
    /** One chip's state. Each pending entry holds a request and its
     *  CoalesceKey; the per-op counts end a launch's scan at the last
     *  entry of the seed's op. */
    struct PerChip
    {
        PendingQueue pending;
        std::uint32_t inFlight = 0;
        bool launchScheduled = false;
        /** Requests of the in-flight transaction (reused storage). */
        std::vector<MemoryRequest *> executing;
    };

    /**
     * Mirror outstanding(@p chip_offset) into the occupancy's load
     * row. Called wherever the count changes: commit, a transaction's
     * end and a retry's re-queue. A launch moves requests from
     * pending to in flight, which leaves the count as it was.
     */
    void syncLoad(std::uint32_t chip_offset);

    /** Arm the decision-window timer for a chip if useful. */
    void armLaunch(std::uint32_t chip_offset);

    /** Build and execute one transaction on a ready chip. */
    void tryLaunch(std::uint32_t chip_offset);

    /** The in-flight transaction on @p chip_offset completed. */
    void finishTransaction(std::uint32_t chip_offset, Tick end);

    /**
     * Apply the fault model to a completed request. Returns true when
     * the request was re-queued for a read retry or handed to the
     * soft decoder (skip completion); otherwise the request completes,
     * possibly with faultFailed set.
     */
    bool applyFaults(std::uint32_t chip_offset, MemoryRequest *req,
                     Tick end);

    /** Queue @p req on the shared soft decoder (serialized resource). */
    void startSoftDecode(std::uint32_t chip_offset, MemoryRequest *req,
                         Tick end);

    /** Decode finished: decide the verdict and complete the request. */
    void finishSoftDecode(std::uint32_t chip_offset, MemoryRequest *req);

    /** Shared completion tail: release the request's hold on its
     *  chip and hand the request back to its owner. */
    void completeRequest(std::uint32_t chip_offset, MemoryRequest *req);

    EventQueue &events_;
    Channel &channel_;
    std::vector<FlashChip *> chips_;
    FlashTiming timing_;
    std::uint32_t pageBytes_;
    Tick pageTransfer_; //!< timing_.transferTime(pageBytes_)
    Tick decisionWindow_;
    CompletionFn onComplete_;
    const FaultModel *faults_ = nullptr;
    SoftDecoder *decoder_ = nullptr;
    ChipOccupancy &occupancy_;
    std::vector<PerChip> state_;
    ControllerStats stats_;
};

} // namespace spk

#endif // SPK_CONTROLLER_FLASH_CONTROLLER_HH
