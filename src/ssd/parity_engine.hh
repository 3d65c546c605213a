/**
 * @file
 * Die-level RAID parity execution engine.
 *
 * The StripeParityMap (owned by the FTL) says which pages form a
 * stripe and which are written; this engine charges the flash time of
 * keeping parity consistent and of using it:
 *
 *  - Stripe close. The controller accumulates the XOR of data members
 *    in RAM as they are programmed, so closing a stripe costs one
 *    parity-page program — no reads — whether the stripe filled
 *    (full-stripe write) or its flush window expired. Only members
 *    written *before* the stripe opened here (pre-populated after GC,
 *    retirement or revival) must be re-read at close, and a member
 *    arriving after its stripe's parity was already written pays a
 *    parity read-modify-write.
 *
 *  - Degraded reads. A host read that comes back uncorrectable (dead
 *    die or exhausted retry ladder + soft decode) fans out
 *    front-priority reads of the surviving stripe members; when all
 *    return, the page is reconstructed and the I/O completes without
 *    an error.
 *
 *  - Online rebuild. After a die failure, a background job walks the
 *    dead die's valid pages at a configurable pace, reconstructs each
 *    from its survivors onto spare capacity, and finally revives the
 *    die — restoring full redundancy without stopping host service.
 *
 * The FlashBackend issues the engine's requests, as it does the GC
 * manager's: from the device-wide arena, with ids from the parity
 * space (1 << 61) and the job's slot in MemoryRequest::job; jobs live
 * in a flat table of recycled slots.
 */

#ifndef SPK_SSD_PARITY_ENGINE_HH
#define SPK_SSD_PARITY_ENGINE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "controller/flash_backend.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"
#include "ftl/ftl.hh"
#include "sim/event_queue.hh"
#include "ssd/config.hh"

namespace spk
{

/** Counters exported by the parity engine. */
struct ParityEngineStats
{
    std::uint64_t parityUpdates = 0;     //!< parity-page programs
    std::uint64_t fullStripeCloses = 0;  //!< closed because all data
                                         //!< members were written
    std::uint64_t partialCloses = 0;     //!< flush-window expiries
    std::uint64_t forcedCloses = 0;      //!< die-failure force-closes
    std::uint64_t rmwReads = 0;          //!< parity RMW read legs
    std::uint64_t reconstructionReads = 0; //!< survivor reads issued
    std::uint64_t rebuildPagesTotal = 0; //!< dead-die pages to rebuild
    std::uint64_t rebuildPagesRebuilt = 0;
};

/**
 * Executes parity maintenance, degraded-read reconstruction and
 * online rebuild against the flash controllers.
 */
class ParityEngine
{
  public:
    /**
     * @param events shared event queue
     * @param backend the flash side parity requests are issued to and
     *        released back to (must outlive the engine)
     * @param ftl translation layer; must have die parity enabled (the
     *        engine uses its stripe map and rebuild relocation)
     * @param cfg parity knobs (flush window, rebuild pacing)
     */
    ParityEngine(EventQueue &events, FlashBackend &backend, Ftl &ftl,
                 const ParityConfig &cfg);

    /**
     * A data-page program completed successfully (host write, GC
     * migration or rebuild relocation). Marks the stripe member and
     * runs parity maintenance: full-stripe close, flush-window arm,
     * or read-modify-write for a late member.
     */
    void onDataProgram(Ppn ppn);

    /**
     * NVMHC degraded-read hook: try to take ownership of a host read
     * whose page came back uncorrectable. Returns false when the
     * stripe has no usable parity (the error completes as before).
     */
    bool tryReconstruct(MemoryRequest *req);

    /** The configured die failed: force-close the chip's open stripes
     *  while their accumulators still hold the data, then start the
     *  background rebuild. */
    void onDieFailure(std::uint32_t chip, std::uint32_t die);

    /** Resolve a finished reconstruction through the NVMHC. */
    using FinishReconstructFn =
        std::function<void(MemoryRequest *, bool ok)>;
    void setFinishReconstructHook(FinishReconstructFn hook)
    {
        finishReconstruct_ = std::move(hook);
    }

    /** Rebuild drained the dead die; the device revives it (FTL
     *  planes, fault model, stripe map) and re-polls the scheduler. */
    void setRebuildCompleteHook(std::function<void()> hook)
    {
        onRebuildComplete_ = std::move(hook);
    }

    /**
     * Flash-level completion upcall for parity requests. A rebuild
     * program that failed on flash is re-homed by Ftl::onProgramFail.
     */
    void onRequestFinished(MemoryRequest *req);

    /** True when no parity flash work is outstanding. */
    bool idle() const { return liveJobs_ == 0 && !rebuildActive_; }

    const ParityEngineStats &stats() const { return stats_; }

  private:
    enum class JobKind : std::uint8_t { Close, Reconstruct, Rebuild };

    /** In-flight job state, indexed by the recycled slot id every
     *  member request carries in MemoryRequest::job. */
    struct JobSlot
    {
        JobKind kind = JobKind::Close;
        bool live = false;
        std::uint32_t remainingReads = 0;
        StripeId stripe = 0;
        MemoryRequest *origin = nullptr; //!< Reconstruct: host read
        bool failed = false;             //!< Reconstruct: survivor lost
        Ppn rebuildTo = kInvalidPage;    //!< Rebuild: new location
    };

    /** RAM parity-accumulator state of one open (unclosed) stripe. */
    struct OpenStripe
    {
        std::uint32_t accumulated = 0; //!< members XORed in RAM
        std::uint64_t token = 0;       //!< flush-deadline guard
    };

    std::uint32_t acquireSlot();
    void retireSlot(std::uint32_t slot);

    /** Close an open stripe: re-read pre-populated members the
     *  accumulator never saw, then program the parity page. */
    void closeStripe(StripeId stripe, const OpenStripe &os);

    /** Flush-window deadline for (stripe, token). */
    void onFlushDeadline(StripeId stripe, std::uint64_t token);

    /** Parity read-modify-write for a member written after its
     *  stripe's parity. */
    void startRmw(StripeId stripe);

    /** One paced rebuild step: reconstruct the next valid dead-die
     *  page onto spare capacity. */
    void rebuildStep();
    void scheduleRebuildStep();

    /** True when (chip, die) is the currently-failed die. */
    bool dieIsDead(std::uint32_t chip, std::uint32_t die) const
    {
        return deadActive_ && chip == deadChip_ && die == deadDie_;
    }

    EventQueue &events_;
    FlashBackend &backend_;
    const FlashGeometry &geo_;
    Ftl &ftl_;
    StripeParityMap &map_;
    ParityConfig cfg_;
    FinishReconstructFn finishReconstruct_;
    std::function<void()> onRebuildComplete_;

    std::unordered_map<StripeId, OpenStripe> open_;
    std::uint64_t nextToken_ = 0;

    std::vector<JobSlot> jobs_;            //!< flat recycled-slot table
    std::vector<std::uint32_t> freeSlots_; //!< recycled slot ids
    std::uint32_t liveJobs_ = 0;

    bool deadActive_ = false;
    std::uint32_t deadChip_ = 0;
    std::uint32_t deadDie_ = 0;

    bool rebuildActive_ = false;
    std::uint64_t rebuildCursor_ = 0; //!< offset into the dead die
    ParityEngineStats stats_;
};

} // namespace spk

#endif // SPK_SSD_PARITY_ENGINE_HH
