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
#include "sim/ring_deque.hh"
#include <memory>
#include <string>

#include "controller/chip_occupancy.hh"
#include "controller/io_request.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"

namespace spk
{

/**
 * Device-state queries the NVMHC answers for its scheduler.
 *
 * Schedulers poll these on every next() call, per chip, so the
 * implementation must be allocation-free and O(1): the NVMHC backs
 * them with flat per-chip/per-tag counters maintained incrementally
 * at commit/finish time (no closures, no recomputation).
 */
class SchedulerView
{
  public:
    virtual ~SchedulerView() = default;

    /** Committed-but-unfinished request count on a global chip. */
    virtual std::uint32_t outstanding(std::uint32_t chip) const = 0;

    /**
     * Which chips hold another I/O's work, for every chip at once.
     *
     * A request of tag T may commit to global chip c without queueing
     * behind a different I/O exactly when c's bit is set in
     * idle | ownedBy(tagSlot(T)): the chip has no outstanding request,
     * or all of them belong to T (a chip whose per-chip queue only
     * holds one's own I/O is no conflict for a PAS-style scheduler).
     * GC and parity requests own slot 0, so they block every host
     * tag. "Outstanding" means committed and not yet completed,
     * including reads held for a retry or a soft decode. The bitmaps
     * change request by request at commit and completion, so a query
     * made during a transaction's completion sees the requests that
     * have left it so far. The reference stays valid for the view's
     * lifetime.
     */
    virtual const ChipOccupancy &occupancy() const = 0;

    /**
     * Hazard gate: false while an older request on the same logical
     * page is still pending, or while an FUA barrier holds the
     * request back (Section 4.4, hazard control).
     */
    virtual bool schedulable(const MemoryRequest &req) const = 0;
};

/**
 * The view the NVMHC exposes to a scheduler when asking for the next
 * memory request to compose.
 */
struct SchedulerContext
{
    const FlashGeometry *geo = nullptr;

    /** Queue entries in arrival order (oldest first). */
    const RingDeque<IoRequest *> *queue = nullptr;

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

    /** Short name used in reports ("VAS", "SPK3", ...). */
    virtual const char *name() const = 0;

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

    /** A memory request finished at the flash level. */
    virtual void onFinish(const MemoryRequest &req) { (void)req; }

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
 * @param faro_window over-commitment window per chip for SPK1/SPK3.
 */
std::unique_ptr<IoScheduler> makeScheduler(SchedulerKind kind,
                                           std::uint32_t faro_window);

} // namespace spk

#endif // SPK_SCHED_SCHEDULER_HH
