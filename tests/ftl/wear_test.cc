/**
 * @file
 * Wear, endurance, bad-block and allocation-policy tests for the FTL
 * stack.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

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

/** The chip @p ppn lives on: the dense layout puts it in the top
 *  digits. */
std::uint32_t
chipOf(Ppn ppn)
{
    return static_cast<std::uint32_t>(ppn / geo().pagesPerChip());
}

TEST(Wear, RotationSpreadsEraseCounts)
{
    FtlConfig cfg;
    cfg.overprovision = 0.25;
    Ftl ftl(geo(), cfg);
    Rng rng(31);

    // Uniform random overwrite traffic for a while.
    const std::uint64_t working = ftl.logicalPages() / 2;
    for (int i = 0; i < 20000; ++i) {
        (void)ftl.allocateWrite(rng.nextBelow(working));
        if (ftl.gcNeeded())
            ftl.collectGc();
    }

    // With rotating allocation and greedy GC, wear must spread: the
    // hottest block's erase count stays within a small factor of the
    // device mean.
    const auto &bm = ftl.blocks();
    std::uint64_t total_erases = 0;
    std::uint64_t blocks = 0;
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
        for (std::uint32_t b = 0; b < geo().blocksPerPlane; ++b) {
            total_erases += bm.block(p, b).eraseCount;
            ++blocks;
        }
    }
    const double mean =
        static_cast<double>(total_erases) / static_cast<double>(blocks);
    EXPECT_GT(mean, 0.5);
    EXPECT_LT(bm.maxEraseCount(), mean * 6.0 + 4.0);
}

TEST(Wear, EnduranceExhaustionRetiresBlocksGracefully)
{
    FtlConfig cfg;
    cfg.overprovision = 0.25;
    cfg.endurance = 6; // tiny: force bad blocks quickly
    Ftl ftl(geo(), cfg);
    Rng rng(32);

    const std::uint64_t working = ftl.logicalPages() / 3;
    for (int i = 0; i < 15000; ++i) {
        if (ftl.allocateWrite(rng.nextBelow(working)) == kInvalidPage)
            break; // capacity shrank to nothing: fine
        if (ftl.gcNeeded())
            ftl.collectGc();
    }
    EXPECT_GT(ftl.blocks().badBlocks(), 0u);
    // Live mappings still resolve despite retirements.
    for (Lpn lpn = 0; lpn < working; ++lpn) {
        const Ppn ppn = ftl.translateRead(lpn);
        if (ppn != kInvalidPage) {
            EXPECT_EQ(ftl.mapping().reverseLookup(ppn), lpn);
        }
    }
}

TEST(Allocation, ChannelStripeSpreadsAcrossChipsFirst)
{
    FtlConfig cfg;
    cfg.allocation = AllocationPolicy::ChannelStripe;
    Ftl ftl(geo(), cfg);
    std::set<std::uint32_t> chips;
    for (Lpn lpn = 0; lpn < geo().numChips(); ++lpn)
        chips.insert(chipOf(ftl.allocateWrite(lpn)));
    EXPECT_EQ(chips.size(), geo().numChips());
}

TEST(Allocation, PlaneFirstFillsOneChipFirst)
{
    FtlConfig cfg;
    cfg.allocation = AllocationPolicy::PlaneFirst;
    Ftl ftl(geo(), cfg);
    const std::uint32_t planes_per_chip =
        geo().diesPerChip * geo().planesPerDie;
    std::set<std::uint32_t> chips;
    for (Lpn lpn = 0; lpn < planes_per_chip; ++lpn)
        chips.insert(chipOf(ftl.allocateWrite(lpn)));
    // The first planes_per_chip writes all land on one chip.
    EXPECT_EQ(chips.size(), 1u);
}

TEST(Allocation, PlaneFirstEnablesSameChipCoalescing)
{
    FtlConfig cfg;
    cfg.allocation = AllocationPolicy::PlaneFirst;
    const auto g = geo();
    Ftl ftl(g, cfg);
    const std::uint32_t planes_per_chip = g.diesPerChip * g.planesPerDie;
    // Consecutive writes land on distinct (die, plane) slots with the
    // same in-block page offset: a perfect PAL3 transaction.
    std::set<std::pair<std::uint32_t, std::uint32_t>> slots;
    std::set<std::uint32_t> pages;
    for (Lpn lpn = 0; lpn < planes_per_chip; ++lpn) {
        const PhysAddr a = g.decompose(ftl.allocateWrite(lpn));
        slots.insert({a.die, a.plane});
        pages.insert(a.page);
    }
    EXPECT_EQ(slots.size(), planes_per_chip);
    EXPECT_EQ(pages.size(), 1u);
}

/** Property sweep: plane index round trip under both policies. */
class PolicySweep : public ::testing::TestWithParam<AllocationPolicy>
{
};

TEST_P(PolicySweep, PlaneIndexRoundTrip)
{
    BlockManager bm(geo(), 100, GetParam());
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p)
        EXPECT_EQ(bm.planeIndexOf(bm.planeAddr(p)), p);
}

TEST_P(PolicySweep, GcReserveHoldsUnderChurn)
{
    FtlConfig cfg;
    cfg.overprovision = 0.25;
    cfg.allocation = GetParam();
    Ftl ftl(geo(), cfg);
    Rng rng(33);
    const std::uint64_t working = ftl.logicalPages() / 2;
    for (int i = 0; i < 8000; ++i) {
        // Invariant: no plane ever loses its last free block to a
        // host write (GC must always have a destination), so every
        // host write finds a page.
        ASSERT_NE(ftl.allocateWrite(rng.nextBelow(working)), kInvalidPage)
            << "write " << i;
        if (ftl.gcNeeded())
            ftl.collectGc();
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(
                             AllocationPolicy::ChannelStripe,
                             AllocationPolicy::PlaneFirst));

} // namespace
} // namespace spk
