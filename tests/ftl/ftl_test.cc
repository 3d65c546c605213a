/**
 * @file
 * Unit + property tests for the FTL facade: translation, write
 * allocation striping, GC and readdressing callbacks.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <vector>

#include "ftl/ftl.hh"

namespace spk
{
namespace
{

FlashGeometry
geo()
{
    FlashGeometry g;
    g.numChannels = 2;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 8;
    return g;
}

FtlConfig
cfg()
{
    FtlConfig c;
    c.overprovision = 0.25;
    c.gcFreeBlockThreshold = 2;
    return c;
}

TEST(Ftl, LogicalCapacityHonoursOverprovision)
{
    Ftl ftl(geo(), cfg());
    EXPECT_EQ(ftl.logicalPages(),
              static_cast<std::uint64_t>(geo().totalPages() * 0.75));
}

TEST(Ftl, UnwrittenReadIsInvalid)
{
    Ftl ftl(geo(), cfg());
    EXPECT_EQ(ftl.translateRead(0), kInvalidPage);
}

TEST(Ftl, WriteThenReadTranslates)
{
    Ftl ftl(geo(), cfg());
    const Ppn ppn = ftl.allocateWrite(7);
    ASSERT_NE(ppn, kInvalidPage);
    EXPECT_EQ(ftl.translateRead(7), ppn);
    EXPECT_EQ(ftl.stats().hostWrites, 1u);
}

TEST(Ftl, ConsecutiveWritesStripeAcrossChips)
{
    const auto g = geo();
    Ftl ftl(g, cfg());
    std::set<std::uint32_t> chips;
    for (Lpn lpn = 0; lpn < g.numChips(); ++lpn) {
        const Ppn ppn = ftl.allocateWrite(lpn);
        chips.insert(static_cast<std::uint32_t>(ppn / g.pagesPerChip()));
    }
    // The first numChips writes must land on numChips distinct chips:
    // this is what gives RIOS its system-level parallelism.
    EXPECT_EQ(chips.size(), g.numChips());
}

TEST(Ftl, RewriteInvalidatesOldPage)
{
    Ftl ftl(geo(), cfg());
    const Ppn first = ftl.allocateWrite(3);
    const Ppn second = ftl.allocateWrite(3);
    EXPECT_NE(first, second);
    EXPECT_EQ(ftl.translateRead(3), second);
    EXPECT_FALSE(ftl.mapping().isValid(first));
}

TEST(Ftl, GcNeededAfterHeavyChurn)
{
    Ftl ftl(geo(), cfg());
    Rng rng(3);
    EXPECT_FALSE(ftl.gcNeeded());
    // Hammer a small working set until planes run out of free blocks.
    const std::uint64_t working = ftl.logicalPages() / 4;
    for (int i = 0; i < 4000 && !ftl.gcNeeded(); ++i)
        (void)ftl.allocateWrite(rng.nextBelow(working));
    EXPECT_TRUE(ftl.gcNeeded());

    const auto batches = ftl.collectGc();
    EXPECT_FALSE(batches.empty());
    EXPECT_GT(ftl.stats().blocksErased, 0u);
}

TEST(Ftl, GcPreservesMappingConsistency)
{
    Ftl ftl(geo(), cfg());
    Rng rng(9);
    const std::uint64_t working = ftl.logicalPages() / 4;
    std::vector<Ppn> last(working, kInvalidPage);
    for (int i = 0; i < 6000; ++i) {
        const Lpn lpn = rng.nextBelow(working);
        const Ppn ppn = ftl.allocateWrite(lpn);
        if (ppn == kInvalidPage) {
            ftl.collectGc();
            continue;
        }
        last[lpn] = ppn;
        if (ftl.gcNeeded())
            ftl.collectGc();
    }
    // Every written LPN still resolves, and GC may have moved it.
    for (Lpn lpn = 0; lpn < working; ++lpn) {
        if (last[lpn] == kInvalidPage)
            continue;
        const Ppn now = ftl.translateRead(lpn);
        ASSERT_NE(now, kInvalidPage);
        EXPECT_TRUE(ftl.mapping().isValid(now));
        EXPECT_EQ(ftl.mapping().reverseLookup(now), lpn);
    }
}

TEST(Ftl, ReaddressCallbackFiresPerMigration)
{
    Ftl ftl(geo(), cfg());
    std::uint64_t callbacks = 0;
    ftl.setReaddressCallback(
        [&](Lpn, Ppn, Ppn) { ++callbacks; });

    Rng rng(4);
    const std::uint64_t working = ftl.logicalPages() / 4;
    for (int i = 0; i < 4000 && !ftl.gcNeeded(); ++i)
        (void)ftl.allocateWrite(rng.nextBelow(working));
    ftl.collectGc();
    EXPECT_EQ(callbacks, ftl.stats().pagesMigrated);
}

TEST(Ftl, CallbackReportsAccurateMove)
{
    Ftl ftl(geo(), cfg());
    ftl.setReaddressCallback([&](Lpn lpn, Ppn from, Ppn to) {
        EXPECT_NE(from, to);
        EXPECT_EQ(ftl.translateRead(lpn), to);
    });
    Rng rng(6);
    const std::uint64_t working = ftl.logicalPages() / 4;
    for (int i = 0; i < 5000; ++i) {
        (void)ftl.allocateWrite(rng.nextBelow(working));
        if (ftl.gcNeeded())
            ftl.collectGc();
    }
}

/** One plane of 8 blocks of 4 pages: every write lands on it, block
 *  by block in index order. */
FlashGeometry
onePlane()
{
    FlashGeometry g;
    g.numChannels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 4;
    return g;
}

/** No overprovisioning, so all 32 pages are logical. */
FtlConfig
onePlaneCfg(std::uint32_t gc_threshold)
{
    FtlConfig c;
    c.overprovision = 0.0;
    c.gcFreeBlockThreshold = gc_threshold;
    return c;
}

void
writeAll(Ftl &ftl, std::initializer_list<Lpn> lpns)
{
    for (const Lpn lpn : lpns)
        ASSERT_NE(ftl.allocateWrite(lpn), kInvalidPage) << "lpn " << lpn;
}

TEST(Ftl, GcVictimIsTheFullBlockWithFewestValidPages)
{
    Ftl ftl(onePlane(), onePlaneCfg(4));
    writeAll(ftl, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); // blocks 0-2
    // Overwrites fill block 3 and start block 4: block 0 keeps 2 live
    // pages (LPNs 2, 3), block 1 keeps 1 (LPN 7). 3 blocks stay free.
    writeAll(ftl, {0, 1, 4, 5, 6});
    ASSERT_TRUE(ftl.gcNeeded());

    const GcBatchList &batches = ftl.collectGc();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].victimBlock, 1u);
    ASSERT_EQ(batches[0].migrations.size(), 1u);
    EXPECT_EQ(batches[0].migrations[0].lpn, 7u);
    EXPECT_TRUE(batches[0].eraseAfter);
    EXPECT_EQ(ftl.stats().gcInvocations, 1u);
}

TEST(Ftl, GcVictimIsNeverTheActiveOrAFreeBlock)
{
    // Below the threshold as soon as block 0 opens, but no block is
    // Full: the active block and the free ones are not victims.
    Ftl ftl(onePlane(), onePlaneCfg(8));
    writeAll(ftl, {0});
    ASSERT_TRUE(ftl.gcNeeded());
    EXPECT_TRUE(ftl.collectGc().empty());
    EXPECT_EQ(ftl.stats().gcInvocations, 0u);
}

TEST(Ftl, GcChargesTheMovesOfAVictimItCannotFinish)
{
    // Endurance 1 retires every block at its first erase, so each
    // collection uses up free space for good.
    FtlConfig c = onePlaneCfg(2);
    c.endurance = 1;
    Ftl ftl(onePlane(), c);
    for (Lpn lpn = 0; lpn < 25; ++lpn) // blocks 0-5, then block 6
        ASSERT_NE(ftl.allocateWrite(lpn), kInvalidPage);
    writeAll(ftl, {0, 4, 8}); // blocks 0-2 keep 3 live pages each

    // Every migrated page must be in some returned batch, or its read
    // and program are never charged to flash.
    const auto collect = [&ftl] {
        const std::uint64_t before = ftl.stats().pagesMigrated;
        const GcBatchList &batches = ftl.collectGc();
        std::uint64_t held = 0;
        for (const GcBatch &batch : batches)
            held += batch.migrations.size();
        EXPECT_EQ(ftl.stats().pagesMigrated - before, held);
        return &batches;
    };

    // Block 0's 3 pages move into the last free block; the erase
    // retires block 0.
    const GcBatchList *batches = collect();
    ASSERT_EQ(batches->size(), 1u);
    EXPECT_EQ((*batches)[0].victimBlock, 0u);
    EXPECT_TRUE(batches->reclaimed());

    // Block 1's first live page takes the last free page; the other
    // two have nowhere to go. The one move stays in a batch that does
    // not erase the victim.
    batches = collect();
    ASSERT_EQ(batches->size(), 1u);
    const GcBatch &partial = (*batches)[0];
    EXPECT_EQ(partial.victimBlock, 1u);
    ASSERT_EQ(partial.migrations.size(), 1u);
    EXPECT_EQ(partial.migrations[0].lpn, 5u);
    EXPECT_FALSE(partial.eraseAfter);
    EXPECT_FALSE(batches->reclaimed());
    EXPECT_EQ(ftl.stats().gcInvocations, 1u);
    EXPECT_EQ(ftl.translateRead(5), partial.migrations[0].to);
    EXPECT_EQ(ftl.blocks().block(0, 1).validPages, 2u);
}

TEST(Ftl, PreconditionFillsRequestedFraction)
{
    Ftl ftl(geo(), cfg());
    Rng rng(12);
    ftl.precondition(0.5, 0.0, rng);
    EXPECT_EQ(ftl.mapping().liveCount(), ftl.logicalPages() / 2);
}

TEST(Ftl, PreconditionChurnFragments)
{
    Ftl ftl(geo(), cfg());
    Rng rng(12);
    ftl.precondition(0.6, 0.5, rng);
    // Churn must have produced invalid pages somewhere: at least one
    // Full block has fewer valid pages than its capacity.
    const auto &g = ftl.geometry();
    bool fragmented = false;
    for (std::uint64_t p = 0; p < ftl.blocks().numPlanes(); ++p) {
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const auto &info = ftl.blocks().block(p, b);
            if (info.state == BlockState::Full &&
                info.validPages < g.pagesPerBlock) {
                fragmented = true;
            }
        }
    }
    EXPECT_TRUE(fragmented);
}

/**
 * Reference for gcNeeded(): the scan it replaced, counting each live
 * plane's Free blocks from block states.
 */
bool
scanGcNeeded(const Ftl &ftl)
{
    const BlockManager &bm = ftl.blocks();
    const FlashGeometry &g = ftl.geometry();
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
        if (bm.planeDead(p))
            continue;
        std::uint32_t free = 0;
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b)
            free += bm.block(p, b).state == BlockState::Free;
        if (free < cfg().gcFreeBlockThreshold)
            return true;
    }
    return false;
}

class FtlGcTrigger : public testing::TestWithParam<bool>
{
};

TEST_P(FtlGcTrigger, MatchesPlaneScanAtEveryStep)
{
    Ftl ftl(geo(), cfg(), nullptr, /*die_parity=*/GetParam());
    std::uint64_t checks = 0;
    std::uint64_t needed = 0;
    auto check = [&] {
        ++checks;
        const bool want = scanGcNeeded(ftl);
        needed += want;
        ASSERT_EQ(ftl.gcNeeded(), want) << "check " << checks;
    };
    // The callback runs after every migrated page, so collections are
    // checked mid-sweep as well as between calls.
    ftl.setReaddressCallback([&](Lpn, Ppn, Ppn) { check(); });
    check();

    Rng rng(GetParam() ? 31 : 30);
    ftl.precondition(0.6, 0.5, rng);
    check();

    const std::uint64_t working = ftl.logicalPages() / 2;
    auto churn = [&](int writes) {
        for (int i = 0; i < writes && !HasFatalFailure(); ++i) {
            const bool written =
                ftl.allocateWrite(rng.nextBelow(working)) != kInvalidPage;
            check();
            if (written && !ftl.gcNeeded())
                continue;
            ftl.collectGc();
            check();
        }
    };
    churn(3000);

    // Die failure: its planes leave the trigger, then rebuild moves
    // the die's live pages elsewhere and the die comes back empty.
    const std::uint32_t chip = 1;
    const std::uint32_t die = 0;
    ftl.markDieDead(chip, die);
    check();
    churn(1500);
    const FlashGeometry &g = ftl.geometry();
    const Ppn base =
        (std::uint64_t{chip} * g.diesPerChip + die) * g.pagesPerDie();
    for (std::uint64_t off = 0; off < g.pagesPerDie(); ++off) {
        if (ftl.mapping().isValid(base + off)) {
            (void)ftl.rebuildRelocate(base + off);
            check();
        }
    }
    ftl.reviveDie(chip, die);
    check();
    churn(1500);

    EXPECT_GT(ftl.stats().gcInvocations, 0u);
    EXPECT_GT(needed, 0u);
    EXPECT_LT(needed, checks);
}

INSTANTIATE_TEST_SUITE_P(Parity, FtlGcTrigger, testing::Bool());

} // namespace
} // namespace spk
