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
     * @param timing NAND timing parameters
     * @param page_bytes flash page size
     * @param decision_window transaction-decision latency
     * @param on_complete invoked once per finished memory request
     * @param faults fault decider; nullptr or inert = fault-free
     * @param decoder device-shared soft decoder; nullptr (or soft
     *        decode disabled in @p faults) keeps ladder exhaustion
     *        terminal as before
     * @param occupancy device-wide occupancy bitmaps (owners and
     *        load), indexed by each chip's global index(); nullptr
     *        keeps none
     */
    FlashController(EventQueue &events, Channel &channel,
                    std::vector<FlashChip *> chips,
                    const FlashTiming &timing, std::uint32_t page_bytes,
                    Tick decision_window, CompletionFn on_complete,
                    const FaultModel *faults = nullptr,
                    SoftDecoder *decoder = nullptr,
                    ChipOccupancy *occupancy = nullptr);

    /**
     * Commit a memory request to its chip's pending queue.
     * @param front push ahead of existing work (GC priority).
     */
    void commit(MemoryRequest *req, bool front = false);

    /**
     * Pre-size every chip's queues for the NVMHC tag space so the
     * steady state is reached without incremental container growth
     * (repeated device construction in sweeps stays cheap).
     */
    void reserveSteadyState(std::uint32_t queue_depth);

    /**
     * Committed-but-unfinished requests on a chip (by chip offset):
     * pending plus in flight. The occupancy's load row mirrors it.
     */
    std::uint32_t outstanding(std::uint32_t chip_offset) const;

    /**
     * Outstanding requests of tag slot @p slot (tagSlot()) on a chip:
     * committed and not yet completed, including reads held for a
     * retry or a soft decode. The occupancy bitmaps mirror these.
     */
    std::uint32_t tagOutstanding(std::uint32_t chip_offset,
                                 std::size_t slot) const;

    const ControllerStats &stats() const { return stats_; }

  private:
    struct PerChip
    {
        RingDeque<MemoryRequest *> pending;
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
    void finishSoftDecode(std::uint32_t chip_offset, MemoryRequest *req,
                          Tick done);

    /** Shared completion tail: drop the per-tag accounting and hand
     *  the request back to its owner. */
    void completeRequest(std::uint32_t chip_offset, MemoryRequest *req,
                         Tick end);

    /** Widen the per-tag table to @p slots slots per chip. */
    void growTagSlots(std::size_t slots);

    EventQueue &events_;
    Channel &channel_;
    std::vector<FlashChip *> chips_;
    FlashTiming timing_;
    std::uint32_t pageBytes_;
    Tick decisionWindow_;
    CompletionFn onComplete_;
    const FaultModel *faults_ = nullptr;
    SoftDecoder *decoder_ = nullptr;
    ChipOccupancy *occupancy_ = nullptr;
    std::vector<PerChip> state_;
    /**
     * Outstanding request count per (chip, owning tag slot), row-major
     * with tagSlots_ slots per chip. Counts drop request by request
     * during transaction completion (inFlight drops transaction at
     * once), so mid-completion scheduler queries see each request
     * leave individually. Sized for the NVMHC queue depth up front.
     */
    std::vector<std::uint32_t> perTag_;
    std::size_t tagSlots_ = 0;
    ControllerStats stats_;
};

} // namespace spk

#endif // SPK_CONTROLLER_FLASH_CONTROLLER_HH
