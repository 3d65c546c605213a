#include "ftl/ftl.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace spk
{

namespace
{

std::uint64_t
logicalCapacity(const FlashGeometry &geo, double overprovision,
                bool die_parity)
{
    const double frac = std::clamp(1.0 - overprovision, 0.01, 1.0);
    // Die parity reserves one page per stripe: 1/D of raw capacity.
    std::uint64_t physical = geo.totalPages();
    if (die_parity)
        physical = physical / geo.diesPerChip * (geo.diesPerChip - 1);
    const auto pages = static_cast<std::uint64_t>(
        static_cast<double>(physical) * frac);
    return std::max<std::uint64_t>(pages, 1);
}

/**
 * Report the victims a collection round left holding live pages (no
 * space to migrate them into): one line per round, not one per victim.
 */
void
warnKeptLive(std::uint32_t victims)
{
    if (victims != 0)
        warn("Ftl::collectGc: no space to migrate; " +
             std::to_string(victims) +
             " victim(s) keep live pages, their collection aborted");
}

} // namespace

Ftl::Ftl(const FlashGeometry &geo, const FtlConfig &cfg,
         const FaultModel *faults, bool die_parity)
    : geo_(geo),
      cfg_(cfg),
      mapping_(geo, logicalCapacity(geo, cfg.overprovision, die_parity)),
      blocks_(geo, cfg.endurance, cfg.allocation, die_parity,
              cfg.gcFreeBlockThreshold),
      faults_(faults)
{
    geo_.validate();
    if (die_parity) {
        parityMap_ = std::make_unique<StripeParityMap>(geo_);
        roundBatches_.assign(blocks_.numPlanes(), 0);
    }
    // One batch per plane per collection round (plus one wear-level
    // slot), at most a block's worth of migrations each: pre-carving
    // the scratch here makes steady-state collection allocation-free.
    batchScratch_.reserve(blocks_.numPlanes() + 1, geo_.pagesPerBlock);
    retireScratch_.reserve(1, geo_.pagesPerBlock);
}

void
Ftl::noteInvalidated(Ppn ppn)
{
    const PhysAddr addr = geo_.decompose(ppn);
    blocks_.addValid(blocks_.planeIndexOf(addr), addr.block, -1);
}

void
Ftl::noteValidated(Ppn ppn)
{
    const PhysAddr addr = geo_.decompose(ppn);
    blocks_.addValid(blocks_.planeIndexOf(addr), addr.block, +1);
}

std::optional<Ppn>
Ftl::allocateRotating(bool gc_reserve)
{
    const std::uint64_t n_planes = blocks_.numPlanes();
    for (std::uint64_t attempt = 0; attempt < n_planes; ++attempt) {
        const std::uint64_t plane = allocCursor_ % n_planes;
        ++allocCursor_;
        if (auto ppn = blocks_.allocatePage(plane, gc_reserve))
            return ppn;
    }
    return std::nullopt;
}

std::optional<Ppn>
Ftl::allocateReclaiming(bool gc_reserve)
{
    auto ppn = allocateRotating(gc_reserve);
    for (int round = 0; round < 256 && !ppn; ++round) {
        // Collect past the admission gate: bounding the GC engine's
        // batch table is pointless if the device runs out of space
        // instead. The launch charges the reclaim's flash time.
        const GcBatchList &batches =
            collectGcImpl(/*respect_admission=*/false);
        const bool reclaimed = batches.reclaimed();
        if (launchBatches_)
            launchBatches_(batches);
        if (!reclaimed)
            break;
        ppn = allocateRotating(gc_reserve);
    }
    return ppn;
}

Ppn
Ftl::bindHostWrite(Lpn lpn, std::optional<Ppn> ppn)
{
    if (!ppn)
        return kInvalidPage;

    const Ppn old = mapping_.bind(lpn, *ppn);
    if (old != kInvalidPage)
        noteInvalidated(old);
    noteValidated(*ppn);
    ++stats_.hostWrites;
    return *ppn;
}

Ppn
Ftl::allocateWrite(Lpn lpn)
{
    return bindHostWrite(lpn, allocateRotating(/*gc_reserve=*/false));
}

Ppn
Ftl::allocateWriteReclaiming(Lpn lpn)
{
    return bindHostWrite(lpn, allocateReclaiming(/*gc_reserve=*/false));
}

void
Ftl::movePage(Lpn lpn, Ppn from, Ppn to)
{
    mapping_.bind(lpn, to); // invalidates `from` in the mapping
    noteInvalidated(from);
    noteValidated(to);
    if (readdress_)
        readdress_(lpn, from, to);
}

bool
Ftl::migrateLivePages(std::uint64_t plane, std::uint32_t block,
                      GcBatch &batch)
{
    batch.planeIdx = plane;
    batch.victimBlock = block;

    PhysAddr addr = blocks_.planeAddr(plane);
    addr.block = block;
    addr.page = 0;
    batch.victimBasePpn = geo_.compose(addr);

    for (std::uint32_t page = 0; page < geo_.pagesPerBlock; ++page) {
        addr.page = page;
        const Ppn from = geo_.compose(addr);
        if (!mapping_.isValid(from))
            continue;
        const auto to = allocateRotating(/*gc_reserve=*/true);
        if (!to)
            return false;
        const Lpn lpn = mapping_.reverseLookup(from);
        batch.migrations.push_back(GcMigration{lpn, from, *to});
        ++stats_.pagesMigrated;
        movePage(lpn, from, *to);
    }
    return true;
}

bool
Ftl::collectVictim(std::uint64_t plane, std::uint32_t block)
{
    GcBatch &batch = batchScratch_.append();
    if (!migrateLivePages(plane, block, batch)) {
        // Out of space: the victim keeps live data and is not erased,
        // but the moves made so far are launched and charged.
        if (batch.migrations.empty())
            batchScratch_.dropLast();
        else
            batch.eraseAfter = false;
        return false;
    }
    if (faults_ &&
        faults_->eraseFails(batch.victimBasePpn,
                            blocks_.block(plane, block).eraseCount + 1)) {
        // The erase pulse fails on flash: the block is retired instead
        // of freed. The batch still charges the erase attempt's time.
        blocks_.retireBlock(plane, block);
        ++stats_.eraseFailures;
        ++stats_.blocksRetiredErase;
        parityForgetBlock(plane, block); // content untrusted mid-erase
        return true;
    }
    if (!blocks_.eraseBlock(plane, block))
        ++stats_.blocksRetiredWear; // endurance exhausted
    ++stats_.blocksErased;
    parityForgetBlock(plane, block);
    return true;
}

void
Ftl::parityForgetBlock(std::uint64_t plane, std::uint32_t block)
{
    if (!parityMap_)
        return;
    PhysAddr base = blocks_.planeAddr(plane);
    base.block = block;
    base.page = 0;
    parityMap_->clearBlock(geo_.compose(base), base.die);
}

const GcBatchList &
Ftl::collectGcImpl(bool respect_admission)
{
    batchScratch_.reset();
    const std::uint64_t n_planes = blocks_.numPlanes();
    // With parity, GC collects block groups: the same block on every
    // sibling plane (same chip and plane-in-die on each die), so every
    // stripe of the group empties atomically and none is left with a
    // stale parity member. Without parity a group is one plane.
    const std::uint32_t members = parityMap_ ? geo_.diesPerChip : 1;
    // Batches this round holds for a plane: with parity, a plane
    // collected as a sibling of an earlier group can come up again
    // under its own index. Without parity each plane comes up once.
    const auto pending = [this](std::uint64_t plane) {
        return parityMap_ ? roundBatches_[plane] : 0u;
    };
    std::uint32_t kept_live = 0;

    for (std::uint64_t plane = 0; plane < n_planes; ++plane) {
        if (blocks_.planeDead(plane))
            continue;
        if (blocks_.freeBlocks(plane) >= cfg_.gcFreeBlockThreshold)
            continue;

        std::uint64_t group[kMaxDiesPerChip] = {plane};
        if (parityMap_) {
            PhysAddr sib = blocks_.planeAddr(plane);
            for (std::uint32_t d = 0; d < members; ++d) {
                sib.die = d;
                group[d] = blocks_.planeIndexOf(sib);
            }
        }

        bool deferred = false;
        if (respect_admission && gcAdmit_) {
            for (std::uint32_t d = 0; d < members && !deferred; ++d) {
                if (!blocks_.planeDead(group[d]) &&
                    !gcAdmit_(group[d], pending(group[d])))
                    deferred = true;
            }
        }
        if (deferred) {
            // Live-batch bound reached: defer this collection until a
            // batch retires (the device retries then).
            ++stats_.gcDeferrals;
            continue;
        }

        // Eligible group with the fewest live pages (the first such):
        // every live member Full (or an empty Free/Bad block), dead
        // members drained -- their pages await rebuild and the
        // survivors must stay put.
        std::optional<std::uint32_t> best;
        std::uint64_t best_valid = ~0ull;
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            bool eligible = false;
            bool blocked = false;
            std::uint64_t valid = 0;
            for (std::uint32_t d = 0; d < members && !blocked; ++d) {
                const BlockInfo &info = blocks_.block(group[d], b);
                if (blocks_.planeDead(group[d])) {
                    if (info.validPages != 0)
                        blocked = true;
                    continue;
                }
                switch (info.state) {
                  case BlockState::Full:
                    eligible = true;
                    valid += info.validPages;
                    break;
                  case BlockState::Free:
                  case BlockState::Bad:
                    if (info.validPages != 0)
                        blocked = true;
                    break;
                  case BlockState::Active:
                    blocked = true; // frontier in use
                    break;
                }
            }
            if (blocked || !eligible)
                continue;
            if (valid < best_valid) {
                best_valid = valid;
                best = b;
            }
        }
        if (!best)
            continue;

        bool collected = false;
        for (std::uint32_t d = 0; d < members; ++d) {
            const std::uint64_t member = group[d];
            if (blocks_.planeDead(member) ||
                blocks_.block(member, *best).state != BlockState::Full)
                continue;
            const std::size_t held = batchScratch_.size();
            if (collectVictim(member, *best))
                collected = true;
            else
                ++kept_live;
            if (parityMap_ && batchScratch_.size() > held)
                ++roundBatches_[member];
        }
        if (collected)
            ++stats_.gcInvocations;
    }
    if (parityMap_) {
        for (const GcBatch &batch : batchScratch_)
            roundBatches_[batch.planeIdx] = 0;
    }
    warnKeptLive(kept_live);
    return batchScratch_;
}

const GcBatchList &
Ftl::collectGc()
{
    return collectGcImpl(/*respect_admission=*/true);
}

bool
Ftl::wearLevelNeeded() const
{
    if (cfg_.wearLevelThreshold == 0)
        return false;
    const auto spread = blocks_.eraseSpread();
    return spread.second - spread.first > cfg_.wearLevelThreshold;
}

const GcBatchList &
Ftl::collectWearLevel()
{
    batchScratch_.reset();
    if (!wearLevelNeeded())
        return batchScratch_;
    // The coldest full block pins cold data on a low-wear block:
    // moving it lets the block re-enter the hot allocation rotation.
    const auto victim = blocks_.pickColdestFull();
    if (!victim)
        return batchScratch_;
    if (gcAdmit_ && !gcAdmit_(victim->first, 0)) {
        ++stats_.gcDeferrals;
        return batchScratch_;
    }
    if (collectVictim(victim->first, victim->second))
        ++stats_.wearLevelMoves;
    else
        warnKeptLive(1);
    return batchScratch_;
}

Ppn
Ftl::onProgramFail(Ppn failed)
{
    const PhysAddr faddr = geo_.decompose(failed);
    const std::uint64_t plane = blocks_.planeIndexOf(faddr);
    const Lpn lpn = mapping_.reverseLookup(failed);

    // Re-home the failed page first, so the block retirement below
    // never tries to "migrate" data that was never programmed. A
    // superseded mapping (a newer write or migration already rebound
    // the LPN) needs no re-program at all.
    Ppn fresh = kInvalidPage;
    if (lpn != kInvalidPage) {
        const auto to = allocateReclaiming(/*gc_reserve=*/true);
        if (!to) {
            fatal("Ftl: spare capacity exhausted on plane " +
                  std::to_string(plane) +
                  " while re-homing a failed program (ppn " +
                  std::to_string(failed) + ")");
        }
        ++stats_.programRemaps;
        movePage(lpn, failed, *to);
        fresh = *to;
    }

    // A second in-flight program can fail into an already-retired
    // block; retire (and count) only once.
    if (blocks_.block(plane, faddr.block).state != BlockState::Bad) {
        ++stats_.blocksRetiredProgram;
        retireBlockWithMigration(plane, faddr.block);
    }
    return fresh;
}

void
Ftl::retireBlockWithMigration(std::uint64_t plane, std::uint32_t block)
{
    // Mark Bad before allocating destinations so the relocation can
    // never land inside the block being retired.
    blocks_.retireBlock(plane, block);

    retireScratch_.reset();
    GcBatch &batch = retireScratch_.append();
    batch.eraseAfter = false; // Bad blocks are never erased again
    if (!migrateLivePages(plane, block, batch)) {
        // Data survives in place: the mapping still resolves, the
        // block just cannot be reused. Reclaim may relocate it on a
        // later pass.
        warn("Ftl::retireBlock: no space to relocate live pages");
    }
    if (batch.migrations.empty()) {
        retireScratch_.dropLast();
        return;
    }
    if (launchBatches_)
        launchBatches_(retireScratch_);
}

void
Ftl::markDieDead(std::uint32_t chip, std::uint32_t die)
{
    PhysAddr addr;
    addr.channel = geo_.channelOfChip(chip);
    addr.chipInChannel = geo_.chipOffsetOfChip(chip);
    addr.die = die;
    for (std::uint32_t p = 0; p < geo_.planesPerDie; ++p) {
        addr.plane = p;
        blocks_.markPlaneDead(blocks_.planeIndexOf(addr));
    }
}

Ppn
Ftl::rebuildRelocate(Ppn from)
{
    const Lpn lpn = mapping_.reverseLookup(from);
    if (lpn == kInvalidPage)
        return kInvalidPage; // superseded by a newer host write

    const auto to = allocateReclaiming(/*gc_reserve=*/true);
    if (!to) {
        fatal("Ftl: spare capacity exhausted while rebuilding ppn " +
              std::to_string(from));
    }
    movePage(lpn, from, *to);
    return *to;
}

void
Ftl::reviveDie(std::uint32_t chip, std::uint32_t die)
{
    const Ppn base =
        (std::uint64_t{chip} * geo_.diesPerChip + die) * geo_.pagesPerDie();
    for (std::uint64_t off = 0; off < geo_.pagesPerDie(); ++off) {
        if (mapping_.isValid(base + off))
            panic("Ftl::reviveDie: live mapped page still on the die");
    }
    PhysAddr addr;
    addr.channel = geo_.channelOfChip(chip);
    addr.chipInChannel = geo_.chipOffsetOfChip(chip);
    addr.die = die;
    for (std::uint32_t p = 0; p < geo_.planesPerDie; ++p) {
        addr.plane = p;
        blocks_.revivePlane(blocks_.planeIndexOf(addr));
    }
    if (parityMap_)
        parityMap_->clearDie(chip, die);
}

void
Ftl::precondition(double fill_fraction, double churn_fraction, Rng &rng)
{
    fill_fraction = std::clamp(fill_fraction, 0.0, 1.0);
    churn_fraction = std::clamp(churn_fraction, 0.0, 4.0);

    const auto n_fill = static_cast<std::uint64_t>(
        static_cast<double>(mapping_.logicalPages()) * fill_fraction);

    for (Lpn lpn = 0; lpn < n_fill; ++lpn) {
        if (allocateWrite(lpn) == kInvalidPage)
            fatal("Ftl::precondition: device full during sequential fill");
    }

    // Random overwrites fragment the blocks: every overwrite leaves an
    // invalid page behind in some earlier block.
    const auto n_churn = static_cast<std::uint64_t>(
        static_cast<double>(n_fill) * churn_fraction);
    for (std::uint64_t i = 0; i < n_churn; ++i) {
        if (n_fill == 0)
            break;
        const Lpn lpn = rng.nextBelow(n_fill);
        if (allocateWrite(lpn) == kInvalidPage) {
            // Out of space: reclaim synchronously (mapping-only GC);
            // preconditioning is not timed.
            collectGc();
            if (allocateWrite(lpn) == kInvalidPage)
                break;
        }
    }

    // Leave the device at the GC threshold, not beyond it: the timed
    // run should start from a fragmented-but-operable state.
    constexpr int kMaxRounds = 1024;
    int rounds = 0;
    while (rounds < kMaxRounds && gcNeeded()) {
        if (!collectGc().reclaimed())
            break;
        ++rounds;
    }
    // A plane holding more valid pages than its blocks above the
    // threshold can store never gets back to it: GC keeps migrating
    // fully valid blocks, here and in the timed run, which then
    // completes no host I/O. Every round of the budget collecting
    // something is that livelock's sign. A GC with nothing it can
    // collect (no space left to migrate into on a worn-out device)
    // ends the loop early instead.
    if (rounds == kMaxRounds && gcNeeded()) {
        fatal("Ftl::precondition: " +
              std::to_string(blocks_.planesBelowGcThreshold()) + " of " +
              std::to_string(blocks_.numPlanes()) +
              " planes stay below the GC threshold of " +
              std::to_string(cfg_.gcFreeBlockThreshold) +
              " free blocks after " + std::to_string(kMaxRounds) +
              " collections; raise the overprovisioning or the blocks "
              "per plane, or lower the fill");
    }

    syncParityAfterPrecondition();
}

FtlImage
Ftl::image() const
{
    return FtlImage{mapping_.forwardTable(), blocks_,
                    parityMap_ ? parityMap_->masks()
                               : std::vector<std::uint32_t>{},
                    allocCursor_, stats_};
}

void
Ftl::restore(const FtlImage &image)
{
    const std::uint64_t stripes =
        parityMap_ ? parityMap_->stripeCount() : 0;
    if (image.forward.size() != mapping_.logicalPages() ||
        image.blocks.numBlocks() != blocks_.numBlocks() ||
        image.parityMasks.size() != stripes)
        panic("Ftl::restore: the image is of a different geometry or "
              "parity setting");
    mapping_.restore(image.forward);
    blocks_ = image.blocks;
    if (parityMap_)
        parityMap_->restoreMasks(image.parityMasks);
    allocCursor_ = image.allocCursor;
    stats_ = image.stats;
}

void
Ftl::syncParityAfterPrecondition()
{
    if (!parityMap_)
        return;
    const std::uint32_t dies = geo_.diesPerChip;
    for (std::uint64_t plane = 0; plane < blocks_.numPlanes(); ++plane) {
        PhysAddr addr = blocks_.planeAddr(plane);
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            const BlockInfo &info = blocks_.block(plane, b);
            addr.block = b;
            for (std::uint32_t pg = 0; pg < info.writtenPages; ++pg) {
                if (StripeParityMap::isParitySlot(addr.die, b, pg, dies))
                    continue;
                addr.page = pg;
                parityMap_->markDataWritten(geo_.compose(addr));
            }
        }
    }
    // Declare parity programmed for every stripe holding data: the
    // untimed precondition stands in for the flushes the parity
    // engine would have performed along the way.
    for (StripeId s = 0; s < parityMap_->stripeCount(); ++s) {
        if (parityMap_->dataMask(s) != 0)
            parityMap_->markParityWritten(s);
    }
}

} // namespace spk
