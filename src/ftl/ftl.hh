/**
 * @file
 * Flash Translation Layer facade.
 *
 * Combines the page-level mapping and the block manager, implements
 * greedy garbage collection with live-data migration, and exposes the
 * readdressing callback Sprinkler uses to track migrations
 * (Section 4.3 of the paper).
 */

#ifndef SPK_FTL_FTL_HH
#define SPK_FTL_FTL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "flash/fault_model.hh"
#include "flash/geometry.hh"
#include "ftl/block_manager.hh"
#include "ftl/mapping.hh"
#include "ftl/parity_map.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace spk
{

/** FTL tuning knobs. */
struct FtlConfig
{
    /** Fraction of physical capacity reserved (not host-visible). */
    double overprovision = 0.10;

    /** GC triggers when a plane's free blocks fall below this. */
    std::uint32_t gcFreeBlockThreshold = 2;

    /** Erase cycles before a block is retired (bad-block handling). */
    std::uint32_t endurance = 100000;

    /** Write-frontier rotation order (data placement scheme). */
    AllocationPolicy allocation = AllocationPolicy::ChannelStripe;

    /**
     * Static wear leveling: when the erase-count spread (max - min
     * over blocks) exceeds this, the coldest full block is migrated
     * so its cold data stops pinning a low-wear block. 0 disables.
     * Wear-leveling migrations are the paper's second live-data
     * migration source (Section 4.3).
     */
    std::uint32_t wearLevelThreshold = 0;
};

/** One live-page move performed by garbage collection. */
struct GcMigration
{
    Lpn lpn = kInvalidPage;
    Ppn from = kInvalidPage;
    Ppn to = kInvalidPage;
};

/**
 * Fixed-capacity migration sequence of one GcBatch. The storage is a
 * segment of the owning GcBatchList's shared arena (one allocation
 * for the whole list instead of one vector per batch slot); capacity
 * is pagesPerBlock -- a victim block physically cannot hold more live
 * pages than that -- so push_back past it is a simulator bug.
 */
class MigrationList
{
  public:
    void
    push_back(const GcMigration &mig)
    {
        if (size_ >= cap_)
            panic("MigrationList overflow");
        data_[size_++] = mig;
    }

    void clear() { size_ = 0; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    GcMigration *begin() { return data_; }
    GcMigration *end() { return data_ + size_; }
    const GcMigration *begin() const { return data_; }
    const GcMigration *end() const { return data_ + size_; }
    const GcMigration &operator[](std::size_t i) const
    {
        return data_[i];
    }

  private:
    friend class GcBatchList;
    GcMigration *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/**
 * One garbage-collection unit of work: migrate the victim's live
 * pages, then erase the victim. The mapping changes are applied
 * eagerly by collectGc(); the caller charges the flash time by
 * issuing the corresponding read/program/erase memory requests.
 */
struct GcBatch
{
    std::uint64_t planeIdx = 0;
    std::uint32_t victimBlock = 0;
    Ppn victimBasePpn = kInvalidPage; //!< any page in the victim block
    MigrationList migrations;

    /**
     * Charge a flash erase once the migrations complete. False for
     * block-retirement batches (program/erase failure), whose victim
     * is Bad and never erased again, and for a victim whose migration
     * ran out of space: it keeps live data, and only the moves made
     * are charged.
     */
    bool eraseAfter = true;
};

/**
 * Recycled GcBatch sequence used for the FTL -> GC-engine handoff.
 *
 * Batches are reused in place across collection rounds: append()
 * resets an existing slot instead of constructing a new one, and
 * every slot's migrations live in one shared arena (slot i owns the
 * fixed segment [i * cap, (i + 1) * cap)), so the whole list costs
 * two allocations and steady-state collection performs none. The
 * list is only valid until the next collect call on the owning FTL.
 */
class GcBatchList
{
  public:
    /** Reusable batch slot; migrations cleared, capacity kept. */
    GcBatch &
    append()
    {
        if (used_ == storage_.size())
            reserve(storage_.size() + 1,
                    migCap_ != 0 ? migCap_ : kDefaultMigrations);
        GcBatch &batch = storage_[used_++];
        batch.planeIdx = 0;
        batch.victimBlock = 0;
        batch.victimBasePpn = kInvalidPage;
        batch.migrations.clear();
        batch.eraseAfter = true;
        return batch;
    }

    /** Drop the most recent append() (aborted collection). */
    void
    dropLast()
    {
        if (used_ > 0)
            --used_;
    }

    /** Forget all batches; storage and capacities are retained. */
    void reset() { used_ = 0; }

    /**
     * Pre-carve @p n slots of @p migrations capacity each. Call once
     * before use: raising the per-slot capacity re-strides the arena,
     * which would scramble any migrations already recorded.
     */
    void
    reserve(std::size_t n, std::size_t migrations)
    {
        if (migrations > migCap_ && used_ != 0)
            panic("GcBatchList::reserve re-stride with live batches");
        migCap_ = std::max(migCap_, migrations);
        const std::size_t slots = std::max(storage_.size(), n);
        storage_.resize(slots);
        arena_.resize(slots * migCap_);
        // Growing the arena moves it: re-wire every slot's segment
        // (sizes survive in the slots; slot offsets are stable).
        for (std::size_t i = 0; i < slots; ++i) {
            storage_[i].migrations.data_ = arena_.data() + i * migCap_;
            storage_[i].migrations.cap_ = migCap_;
        }
    }

    std::size_t size() const { return used_; }
    bool empty() const { return used_ == 0; }

    /** True when some batch erases its victim: the collection that
     *  produced the list collected at least one victim whole. */
    bool
    reclaimed() const
    {
        return std::any_of(begin(), end(), [](const GcBatch &batch) {
            return batch.eraseAfter;
        });
    }
    const GcBatch &operator[](std::size_t i) const { return storage_[i]; }
    const GcBatch *begin() const { return storage_.data(); }
    const GcBatch *end() const { return storage_.data() + used_; }

  private:
    /** Per-slot capacity when append() runs before any reserve()
     *  (ad-hoc lists in tests); the FTL always reserves with the
     *  device's real pagesPerBlock. */
    static constexpr std::size_t kDefaultMigrations = 64;

    std::vector<GcBatch> storage_;
    std::vector<GcMigration> arena_; //!< all slots' migration storage
    std::size_t migCap_ = 0;         //!< per-slot arena stride
    std::size_t used_ = 0;
};

/** Counters exported by the FTL. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;
    std::uint64_t gcInvocations = 0;
    std::uint64_t pagesMigrated = 0;
    std::uint64_t blocksErased = 0;
    std::uint64_t wearLevelMoves = 0;
    /** Collections skipped because the plane's live-batch admission
     *  bound was reached (retried when a batch retires). */
    std::uint64_t gcDeferrals = 0;

    /** Pages re-homed after a program failure (fault injection). */
    std::uint64_t programRemaps = 0;

    /** Erase pulses that failed and retired their block. */
    std::uint64_t eraseFailures = 0;

    /** Blocks retired, by cause. */
    std::uint64_t blocksRetiredWear = 0;
    std::uint64_t blocksRetiredProgram = 0;
    std::uint64_t blocksRetiredErase = 0;

    bool operator==(const FtlStats &) const = default;
};

/**
 * The state preconditioning writes into an Ftl, as one value: what
 * Ftl::image() captures and Ftl::restore() puts back. The reverse map
 * is not stored; restore() rebuilds it from the forward table.
 */
struct FtlImage
{
    std::vector<std::uint32_t> forward; //!< PageMapping::forwardTable()
    BlockManager blocks;
    std::vector<std::uint32_t> parityMasks; //!< empty without parity
    std::uint64_t allocCursor = 0;
    FtlStats stats;
};

/**
 * Pure page-level FTL with greedy GC.
 *
 * Write allocation rotates over planes in channel-stripe order so
 * consecutive writes scatter across chips first; see BlockManager.
 */
class Ftl
{
  public:
    /** Called for every migrated live page (readdressing callback). */
    using ReaddressCallback =
        std::function<void(Lpn lpn, Ppn from, Ppn to)>;

    /**
     * @param faults fault decider; nullptr or inert = fault-free.
     * @param die_parity stripe writes across the dies of each chip
     *        with one rotating parity page per stripe; logical
     *        capacity scales by (D-1)/D and garbage collection turns
     *        stripe-consistent (whole block groups).
     */
    Ftl(const FlashGeometry &geo, const FtlConfig &cfg,
        const FaultModel *faults = nullptr, bool die_parity = false);

    /** Host-visible capacity in pages. */
    std::uint64_t logicalPages() const { return mapping_.logicalPages(); }

    /** Physical location of @p lpn; kInvalidPage when never written. */
    Ppn translateRead(Lpn lpn) const { return mapping_.lookup(lpn); }

    /**
     * Allocate a physical page for writing @p lpn and update the
     * mapping. The previous copy (if any) becomes invalid. Never
     * collects: on a full device it fails without launching flash work.
     * @return the new Ppn; kInvalidPage if no plane has a free page.
     */
    Ppn allocateWrite(Lpn lpn);

    /**
     * allocateWrite() for a timed host write: when no plane has a free
     * page, collect past the admission gate, launch the batches
     * through the batch launcher (so their flash time is charged) and
     * retry; up to 256 rounds, stopping when a round collects nothing.
     * @return the new Ppn; kInvalidPage if reclaim freed nothing.
     */
    Ppn allocateWriteReclaiming(Lpn lpn);

    /**
     * True when at least one live plane is below the GC threshold.
     * O(1): the block manager keeps the count of such planes.
     */
    bool gcNeeded() const { return blocks_.planesBelowGcThreshold() != 0; }

    /**
     * Per-plane GC admission gate. When set, collectGc() skips (and
     * counts as deferred) planes the predicate rejects — the device
     * wires this to the GC engine's live-batch bound so the flat
     * batch table stays statically sizable. Deferred planes are
     * retried when a batch retires (GcManager::collect).
     * @p pending counts the batches this collection round has already
     * produced for the plane and not yet launched: with parity, a
     * plane collected as a sibling of an earlier group can come up
     * again under its own index in the same round.
     */
    using GcAdmission =
        std::function<bool(std::uint64_t plane, std::uint32_t pending)>;
    void setGcAdmission(GcAdmission admit)
    {
        gcAdmit_ = std::move(admit);
    }

    /**
     * Run victim selection + mapping migration for every plane below
     * threshold. Mapping state changes immediately; the returned
     * batches let the device charge flash-time for the work. Fires
     * the readdressing callback per migrated page. A victim whose
     * migration runs out of space keeps its batch of the moves made,
     * without the erase (GcBatch::eraseAfter), so every move counted
     * in FtlStats::pagesMigrated is in some returned batch.
     *
     * The returned list references recycled internal storage: it is
     * valid only until the next collectGc()/collectWearLevel() call.
     */
    const GcBatchList &collectGc();

    /** True when the erase-count spread exceeds the threshold. */
    bool wearLevelNeeded() const;

    /**
     * Migrate the coldest full block (static wear leveling). Same
     * batch semantics (and storage lifetime) as collectGc(); empty
     * when nothing qualifies.
     */
    const GcBatchList &collectWearLevel();

    /** Register the scheduler's readdressing callback. */
    void setReaddressCallback(ReaddressCallback cb)
    {
        readdress_ = std::move(cb);
    }

    /**
     * Register the GC-engine launcher used by emergency reclaim
     * (allocateWriteReclaiming, onProgramFail, rebuildRelocate) and
     * block retirement: the FTL hands it batches whose flash time must
     * be charged immediately, outside the regular collectGc() flow.
     */
    using BatchLaunchFn = std::function<void(const GcBatchList &)>;
    void setBatchLauncher(BatchLaunchFn launch)
    {
        launchBatches_ = std::move(launch);
    }

    /**
     * A program targeting @p failed reported a failure. Re-homes the
     * page (if its mapping was not superseded meanwhile), retires the
     * containing block via the Bad-block path — relocating its other
     * live pages through the GC engine — and runs emergency reclaim
     * if the frontier is out of space. fatal() naming the plane on
     * true spare exhaustion.
     *
     * @return the replacement Ppn to re-program, or kInvalidPage when
     *         the page was superseded and no re-program is needed.
     */
    Ppn onProgramFail(Ppn failed);

    /** Take every plane of (chip, die) offline (die failure). */
    void markDieDead(std::uint32_t chip, std::uint32_t die);

    /**
     * Relocate the (still-mapped) page at @p from — which lives on a
     * dead die — onto spare capacity, running emergency reclaim if the
     * frontier is out of space. The caller (rebuild engine) charges
     * the survivor reads and the program.
     *
     * @return the new Ppn, or kInvalidPage when the mapping was
     *         superseded meanwhile and nothing needs relocating.
     */
    Ppn rebuildRelocate(Ppn from);

    /**
     * Bring (chip, die) back online after rebuild relocated all of its
     * live data: every plane revives with fresh Free blocks and the
     * stripe map forgets the die's members. Panics if any valid
     * mapped page still resides on the die.
     */
    void reviveDie(std::uint32_t chip, std::uint32_t die);

    /**
     * Fill the device to @p fill_fraction of logical capacity with
     * valid data, then re-write @p churn_fraction of those pages in
     * random order to fragment blocks (pre-GC conditioning,
     * Section 5.9). fatal() if GC cannot bring every plane back to
     * the GC threshold (the device is too small for the fill).
     */
    void precondition(double fill_fraction, double churn_fraction,
                      Rng &rng);

    /** Capture the mapping, blocks, stripe masks, allocation cursor
     *  and counters (see FtlImage). */
    FtlImage image() const;

    /**
     * Overwrite this FTL's state with @p image, captured from an FTL
     * of the same config. Callbacks, admission gate and scratch stay
     * this FTL's own. Panics when the image's logical page, block or
     * stripe count differs from this FTL's (a different geometry or
     * parity setting).
     */
    void restore(const FtlImage &image);

    const FtlStats &stats() const { return stats_; }
    const BlockManager &blocks() const { return blocks_; }
    const PageMapping &mapping() const { return mapping_; }
    const FlashGeometry &geometry() const { return geo_; }

    /** Die-parity stripe map; nullptr when parity is off. */
    StripeParityMap *parityMap() { return parityMap_.get(); }
    const StripeParityMap *parityMap() const { return parityMap_.get(); }

  private:
    /** Pick the next plane for allocation (channel-stripe rotation). */
    std::optional<Ppn> allocateRotating(bool gc_reserve);

    /** allocateRotating(), reclaiming as allocateWriteReclaiming()
     *  describes when it fails. */
    std::optional<Ppn> allocateReclaiming(bool gc_reserve);

    /** Bind @p lpn to @p ppn as a host write; kInvalidPage when
     *  @p ppn is empty. */
    Ppn bindHostWrite(Lpn lpn, std::optional<Ppn> ppn);

    /**
     * Move the live page of @p lpn from @p from to @p to: rebind the
     * mapping, fix both blocks' valid counts and fire the readdressing
     * callback.
     */
    void movePage(Lpn lpn, Ppn from, Ppn to);

    /**
     * Move every live page out of (plane, block), recording the moves
     * and the victim in @p batch.
     * @return false when space ran out first; the moves made so far
     *         stay applied.
     */
    bool migrateLivePages(std::uint64_t plane, std::uint32_t block,
                          GcBatch &batch);

    /**
     * Migrate every live page out of (plane, block) and erase it,
     * recording the work as a new batch of batchScratch_.
     * @return false when space ran out first: the moves made stay
     *         applied, in a batch that does not erase (none if no page
     *         moved).
     */
    bool collectVictim(std::uint64_t plane, std::uint32_t block);

    /** Decrement valid count for the block owning @p ppn. */
    void noteInvalidated(Ppn ppn);

    /** Increment valid count for the block owning @p ppn. */
    void noteValidated(Ppn ppn);

    /** Victim loop behind collectGc (gated) and emergency reclaim
     *  (ungated). It collects block groups, one plane each without
     *  parity and the D sibling planes with it, so stripes empty
     *  atomically. */
    const GcBatchList &collectGcImpl(bool respect_admission);

    /** Forget the stripe membership of an erased block. */
    void parityForgetBlock(std::uint64_t plane, std::uint32_t block);

    /** Rebuild the stripe map from frontier state after an untimed
     *  precondition (no programs were issued to mark members). */
    void syncParityAfterPrecondition();

    /**
     * Retire (plane, block) as Bad, relocating its live pages and
     * launching the relocation batch through launchBatches_. Uses its
     * own scratch list so it can run while batchScratch_ is live.
     */
    void retireBlockWithMigration(std::uint64_t plane,
                                  std::uint32_t block);

    FlashGeometry geo_;
    FtlConfig cfg_;
    PageMapping mapping_;
    BlockManager blocks_;
    const FaultModel *faults_ = nullptr;
    std::unique_ptr<StripeParityMap> parityMap_;
    std::uint64_t allocCursor_ = 0;
    FtlStats stats_;
    ReaddressCallback readdress_;
    GcAdmission gcAdmit_;
    BatchLaunchFn launchBatches_;
    /** Recycled collectGc/collectWearLevel output (pre-carved in the
     *  constructor so steady-state collection never allocates). */
    GcBatchList batchScratch_;
    /** Scratch for fault-driven block retirement; separate from
     *  batchScratch_ because retirement can interleave with GC. */
    GcBatchList retireScratch_;
    /** Per plane: batches the running collectGcImpl round has put in
     *  batchScratch_ (sized only with parity; zero between rounds). */
    std::vector<std::uint32_t> roundBatches_;
};

} // namespace spk

#endif // SPK_FTL_FTL_HH
