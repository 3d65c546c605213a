/**
 * @file
 * Garbage-collection execution engine.
 *
 * The FTL performs victim selection and mapping migration eagerly
 * (mapping state is cheap); this manager charges the flash time: one
 * read + one program per migrated live page, then one erase per
 * reclaimed block. GC requests are committed ahead of host requests
 * (they hold the chip hostage exactly as the paper's Section 5.9
 * stress test intends).
 *
 * Steady-state execution is allocation-free: requests come from the
 * device-wide MemoryRequest arena and carry their batch membership
 * and paired-program destination as intrusive fields, and batches
 * live in a flat table of recycled slots — there are no per-request
 * maps and no per-batch heap nodes.
 */

#ifndef SPK_SSD_GC_MANAGER_HH
#define SPK_SSD_GC_MANAGER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "controller/flash_controller.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"
#include "ftl/ftl.hh"
#include "sim/event_queue.hh"
#include "sim/slab.hh"

namespace spk
{

/** GC execution statistics. */
struct GcManagerStats
{
    std::uint64_t batches = 0;
    std::uint64_t migrationReads = 0;
    std::uint64_t migrationPrograms = 0;
    std::uint64_t erases = 0;
    /** Urgent (emergency-reclaim) launches admitted past the
     *  per-plane live-batch bound. */
    std::uint64_t overCapLaunches = 0;

    /** Migration reads that came back uncorrectable (fault model);
     *  the paired program still runs so the batch completes. */
    std::uint64_t migrationReadFailures = 0;

    /** Migration programs re-issued to a replacement page after a
     *  program failure. */
    std::uint64_t migrationProgramRetries = 0;
};

/** Default per-plane live-batch admission bound (see GcManager). */
inline constexpr std::uint32_t kDefaultGcBatchesPerPlane = 8;

/**
 * Executes GcBatch work against the flash controllers.
 *
 * Sequencing per batch: all migration reads commit immediately; each
 * read completion triggers the paired program; the erase commits once
 * every program of the batch has finished.
 */
class GcManager
{
  public:
    /**
     * @param events shared event queue
     * @param geo device geometry
     * @param controllers per-channel controllers
     * @param arena device-wide MemoryRequest arena (shared with the
     *        host path; must outlive the manager)
     * @param on_all_done called whenever a GC request completes
     *        (used to re-poll the scheduler)
     * @param max_live_per_plane admission bound: at most this many
     *        batches of one plane may be live at once, which makes
     *        the flat batch table statically sizable (planes x bound)
     *        instead of growing with the GC backlog under overload.
     *        Must be >= 1.
     */
    GcManager(EventQueue &events, const FlashGeometry &geo,
              std::vector<FlashController *> controllers,
              Slab<MemoryRequest> &arena,
              std::function<void()> on_all_done,
              std::uint32_t max_live_per_plane =
                  kDefaultGcBatchesPerPlane);

    /**
     * Begin executing a set of batches produced by Ftl::collectGc.
     *
     * Non-urgent launches must respect the admission bound — the
     * device's collection trigger consults planeSaturated() (via the
     * FTL admission gate) before collecting, and launch() panics on a
     * violation. Urgent launches (emergency reclaim: a write had no
     * space) are admitted past the bound and counted.
     */
    void launch(const GcBatchList &batches, bool urgent = false);

    /**
     * True when @p plane is at its live-batch admission bound, counting
     * @p pending batches collected for it but not yet launched.
     */
    bool planeSaturated(std::uint64_t plane, std::uint32_t pending = 0) const
    {
        return livePerPlane_[plane] + pending >= maxLivePerPlane_;
    }

    /** Live batches currently executing against @p plane. */
    std::uint32_t liveBatchesOnPlane(std::uint64_t plane) const
    {
        return livePerPlane_[plane];
    }

    /**
     * Invoked whenever a batch retires (its erase completed), after
     * the slot and its admission share are recycled. The device uses
     * it to retry collection deferred by the admission bound.
     */
    void setBatchRetiredHook(std::function<void()> hook)
    {
        onBatchRetired_ = std::move(hook);
    }

    /**
     * Invoked when a migration program reports a fault-injected
     * failure. Receives the failed destination Ppn and returns the
     * replacement page to re-program, or kInvalidPage when the
     * mapping was superseded and no re-program is needed (the device
     * wires this to Ftl::onProgramFail).
     */
    void setProgramFailHook(std::function<Ppn(Ppn)> hook)
    {
        onProgramFail_ = std::move(hook);
    }

    /** Flash-level completion upcall for GC requests. */
    void onRequestFinished(MemoryRequest *req);

    /** True when no GC work is outstanding. */
    bool idle() const { return liveBatches_ == 0; }

    const GcManagerStats &stats() const { return stats_; }

  private:
    /**
     * In-flight batch state, indexed by the recycled slot id that
     * every member request carries in MemoryRequest::gcBatch.
     */
    struct BatchSlot
    {
        Ppn victimBasePpn = kInvalidPage;
        std::uint64_t planeIdx = 0; //!< admission accounting
        std::uint64_t remainingPrograms = 0;
        bool eraseIssued = false;
        bool eraseAfter = true; //!< false: retirement batch, no erase
        bool live = false;
    };

    /** Acquire a free batch slot, growing the flat table if needed. */
    std::uint32_t acquireBatchSlot();

    /** Recycle a finished batch slot and fire the retirement hook. */
    void retireSlot(std::uint32_t slot);

    /** Arena-acquire + commit a GC memory request for @p slot. */
    MemoryRequest *issue(FlashOp op, Ppn ppn, std::uint32_t slot);

    FlashController &controllerFor(std::uint32_t chip);

    EventQueue &events_;
    FlashGeometry geo_;
    std::vector<FlashController *> controllers_;
    Slab<MemoryRequest> &arena_;
    std::function<void()> onAllDone_;
    std::function<void()> onBatchRetired_;
    std::function<Ppn(Ppn)> onProgramFail_;

    std::vector<BatchSlot> batches_;       //!< flat recycled-slot table
    std::vector<std::uint32_t> freeSlots_; //!< recycled slot ids (LIFO)
    /** Live batches per plane (admission accounting). */
    std::vector<std::uint32_t> livePerPlane_;
    std::uint32_t maxLivePerPlane_;
    std::uint32_t liveBatches_ = 0;
    std::uint64_t nextReqId_ = 1ull << 60; //!< distinct from host ids
    GcManagerStats stats_;
};

} // namespace spk

#endif // SPK_SSD_GC_MANAGER_HH
