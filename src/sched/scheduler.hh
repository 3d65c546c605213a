/**
 * @file
 * Device-level I/O scheduler interface.
 *
 * Schedulers live in the NVMHC and decide which memory request is
 * composed (data movement initiated) and committed next. The five
 * strategies evaluated by the paper -- VAS, PAS, SPK1 (FARO), SPK2
 * (RIOS), SPK3 (RIOS+FARO) -- differ only in this decision; memory
 * request composition cost and flash-level transaction coalescing are
 * common machinery.
 */

#ifndef SPK_SCHED_SCHEDULER_HH
#define SPK_SCHED_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "controller/chip_occupancy.hh"
#include "controller/io_request.hh"
#include "flash/mem_request.hh"

namespace spk
{

/**
 * Device-state queries the NVMHC answers for its scheduler.
 *
 * Schedulers poll these on every next() call, per chip, so the
 * implementation must be allocation-free and O(1): the flash
 * controllers keep the occupancy current at every commit and
 * completion (no closures, no recomputation).
 */
class SchedulerView
{
  public:
    virtual ~SchedulerView() = default;

    /**
     * What holds each chip, for every chip at once.
     *
     * A request of tag T may commit to global chip c without queueing
     * behind a different I/O exactly when c's bit is set in
     * idle | ownedBy(tagSlot(T)): no request holds the chip, or all
     * that do belong to T (a chip whose per-chip queue only holds
     * one's own I/O is no conflict for a PAS-style scheduler). GC and
     * parity requests own slot 0, so they block every host tag. A
     * request holds its chip from commit until it completes,
     * including while it waits for a read retry or a soft decode. The
     * bitmaps change request by request at commit and completion, so
     * a query made during a transaction's completion sees the
     * requests that have left it so far.
     *
     * The load row holds chip c exactly when c's load, its pending
     * plus in-flight requests, is below occupancy().loadLimit(). It
     * is not derived from idle: a read held for a soft decode keeps
     * the chip from being idle, but it has left pending and in
     * flight, so it adds no load. During a transaction's completion the row already
     * counts the whole transaction as gone. The limit comes from the
     * scheduler's loadLimit(), set by the device before traffic
     * starts. The reference stays valid for the view's lifetime.
     */
    virtual const ChipOccupancy &occupancy() const = 0;

    /**
     * Hazard gate: false while an older request on the same logical
     * page is still pending, or while an FUA barrier holds the
     * request back (Section 4.4, hazard control).
     *
     * The contract a scheduler may cache against: for a queued,
     * uncomposed request, schedulable() turns true only at the
     * NVMHC's IoScheduler::onSchedulable(req) or onBarrierChanged()
     * call, and once true it stays true until the request composes.
     * A request held at enqueue (behind an older request on its page,
     * or behind an FUA I/O) is released by the completion that clears
     * its way; nothing holds a request that was free.
     */
    virtual bool schedulable(const MemoryRequest &req) const = 0;
};

/**
 * The view the NVMHC exposes to a scheduler when asking for the next
 * memory request to compose.
 */
struct SchedulerContext
{
    /** The queued I/Os with pages left to compose, in arrival order
     *  (oldest first). */
    const UncomposedIos *uncomposed = nullptr;

    /** Device-state queries (owned by the NVMHC). */
    const SchedulerView *view = nullptr;
};

/**
 * Abstract device-level I/O scheduler.
 *
 * next() returns the memory request the NVMHC should compose now, or
 * nullptr when the strategy has nothing eligible (e.g. VAS blocked on
 * a chip conflict). The NVMHC re-polls after every completion and
 * enqueue.
 */
class IoScheduler
{
  public:
    virtual ~IoScheduler() = default;

    /** Pick the next memory request to compose, or nullptr. */
    virtual MemoryRequest *next(SchedulerContext &ctx) = 0;

    /**
     * One-time warm-start called by the NVMHC before traffic starts:
     * @p num_chips chips exist and at most @p queue_depth I/Os are
     * queued at once. Strategies keeping per-chip state pre-size it
     * here so steady-state scheduling never touches the heap.
     */
    virtual void
    prepare(std::uint32_t num_chips, std::uint32_t queue_depth)
    {
        (void)num_chips;
        (void)queue_depth;
    }

    /**
     * Limit of the occupancy's load row: next() reads a chip as able
     * to take work while its load (pending plus in-flight requests)
     * is below it. 0, the default, is for strategies that never read
     * the row.
     */
    virtual std::uint32_t loadLimit() const { return 0; }

    /** A new I/O entered the device-level queue (tags secured). */
    virtual void onEnqueue(IoRequest &io) { (void)io; }

    /**
     * An uncomposed read was retargeted by live-data migration
     * (readdressing callback, Section 4.3). Only called when
     * wantsReaddressing() is true.
     */
    virtual void
    onRetarget(MemoryRequest &req, std::uint32_t old_chip)
    {
        (void)req;
        (void)old_chip;
    }

    /**
     * A memory request was composed by the NVMHC engine. Schedulers
     * holding per-chip indexes must drop the entry here -- the request
     * may retire (and be freed) any time after this point.
     */
    virtual void onComposed(const MemoryRequest &req) { (void)req; }

    /**
     * @p req now heads its logical page's hazard chain: the older
     * request on the page completed, so schedulable(req) may have
     * turned true (it stays false while an FUA barrier holds req).
     */
    virtual void onSchedulable(const MemoryRequest &req) { (void)req; }

    /**
     * An I/O left the queue while an FUA barrier was up, so any
     * queued request's schedulable() may have turned true.
     */
    virtual void onBarrierChanged() {}

    /** Whether the FTL should deliver readdressing callbacks. */
    virtual bool wantsReaddressing() const { return false; }
};

/** Scheduler strategy selector used by configs and factories. */
enum class SchedulerKind : std::uint8_t { VAS, PAS, SPK1, SPK2, SPK3 };

/** Printable name of a scheduler kind. */
const char *schedulerKindName(SchedulerKind kind);

/** Parse a scheduler name ("VAS", "spk3", ...); fatal() on unknown. */
SchedulerKind parseSchedulerKind(const std::string &name);

/**
 * Factory: build a scheduler strategy.
 * @param faro_window FARO over-commitment window for SPK1/SPK3 (see
 *        SsdConfig::faroWindow); it is also their loadLimit().
 */
std::unique_ptr<IoScheduler> makeScheduler(SchedulerKind kind,
                                           std::uint32_t faro_window);

} // namespace spk

#endif // SPK_SCHED_SCHEDULER_HH
