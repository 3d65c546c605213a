/**
 * @file
 * Garbage-collection execution engine.
 *
 * The FTL performs victim selection and mapping migration eagerly
 * (mapping state is cheap); this manager decides when collection runs
 * and charges the flash time: one read + one program per migrated
 * live page, then one erase per reclaimed block. GC requests are
 * committed ahead of host requests (they hold the chip hostage
 * exactly as the paper's Section 5.9 stress test intends).
 *
 * Steady-state execution is allocation-free: the FlashBackend issues
 * each request from the device-wide arena with its batch slot in
 * MemoryRequest::job, a migration read carries its paired program's
 * destination, and batches live in a flat table of recycled slots —
 * there are no per-request maps and no per-batch heap nodes.
 */

#ifndef SPK_SSD_GC_MANAGER_HH
#define SPK_SSD_GC_MANAGER_HH

#include <cstdint>
#include <vector>

#include "controller/flash_backend.hh"
#include "flash/mem_request.hh"
#include "ftl/ftl.hh"

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
     * @param backend the flash side GC requests are issued to and
     *        released back to (must outlive the manager)
     * @param ftl translation layer: collects the batches collect()
     *        launches and re-homes failed migration programs (must
     *        outlive the manager)
     * @param max_live_per_plane admission bound: at most this many
     *        batches of one plane may be live at once, which makes
     *        the flat batch table statically sizable (planes x bound)
     *        instead of growing with the GC backlog under overload.
     *        Must be >= 1.
     */
    GcManager(FlashBackend &backend, Ftl &ftl,
              std::uint32_t max_live_per_plane =
                  kDefaultGcBatchesPerPlane);

    /**
     * Collect and launch, while any plane is below the GC threshold
     * (bounded rounds), then one static wear-leveling move if one is
     * due. The device runs this after every host enqueue; a batch
     * retirement runs it again when the admission bound deferred a
     * collection since the last retry.
     */
    void collect();

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
     * Flash-level completion upcall for GC requests. A migration
     * program that failed on flash is re-homed by Ftl::onProgramFail
     * and re-issued to the replacement page.
     */
    void onRequestFinished(MemoryRequest *req);

    /** True when no GC work is outstanding. */
    bool idle() const { return liveBatches_ == 0; }

    const GcManagerStats &stats() const { return stats_; }

  private:
    /**
     * In-flight batch state, indexed by the recycled slot id that
     * every member request carries in MemoryRequest::job.
     */
    struct BatchSlot
    {
        Ppn victimBasePpn = kInvalidPage;
        std::uint64_t planeIdx = 0; //!< admission accounting
        std::uint64_t remainingPrograms = 0;
        bool eraseIssued = false;
        /** False for a retirement batch and an unfinished victim:
         *  no erase follows the programs. */
        bool eraseAfter = true;
        bool live = false;
    };

    /** Acquire a free batch slot, growing the flat table if needed. */
    std::uint32_t acquireBatchSlot();

    /** Recycle a finished batch slot; retry deferred collection. */
    void retireSlot(std::uint32_t slot);

    FlashBackend &backend_;
    Ftl &ftl_;

    std::vector<BatchSlot> batches_;       //!< flat recycled-slot table
    std::vector<std::uint32_t> freeSlots_; //!< recycled slot ids (LIFO)
    /** Live batches per plane (admission accounting). */
    std::vector<std::uint32_t> livePerPlane_;
    std::uint32_t maxLivePerPlane_;
    std::uint32_t liveBatches_ = 0;
    /** FTL deferral count at the last admission-bound retry. */
    std::uint64_t deferralsSeen_ = 0;
    GcManagerStats stats_;
};

} // namespace spk

#endif // SPK_SSD_GC_MANAGER_HH
