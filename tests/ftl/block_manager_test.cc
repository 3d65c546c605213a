/**
 * @file
 * Unit tests for block allocation, wear and GC victim selection.
 */

#include <gtest/gtest.h>

#include <set>

#include "ftl/block_manager.hh"
#include "sim/rng.hh"

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
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 4;
    return g;
}

/** Reference for freeBlocks(): count the plane's Free blocks. */
std::uint32_t
countFree(const BlockManager &bm, const FlashGeometry &g,
          std::uint64_t plane)
{
    std::uint32_t n = 0;
    for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b)
        n += bm.block(plane, b).state == BlockState::Free;
    return n;
}

/** Reference for planesBelowGcThreshold(): recount live planes. */
std::uint64_t
countBelow(const BlockManager &bm, const FlashGeometry &g,
           std::uint32_t threshold)
{
    std::uint64_t n = 0;
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p)
        n += !bm.planeDead(p) && countFree(bm, g, p) < threshold;
    return n;
}

/** Assert every kept count against its recount. */
void
expectCountsMatch(const BlockManager &bm, const FlashGeometry &g,
                  std::uint32_t threshold)
{
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p)
        ASSERT_EQ(bm.freeBlocks(p), countFree(bm, g, p)) << "plane " << p;
    ASSERT_EQ(bm.planesBelowGcThreshold(), countBelow(bm, g, threshold));
}

TEST(BlockManager, PlaneCountMatchesGeometry)
{
    BlockManager bm(geo(), 100);
    EXPECT_EQ(bm.numPlanes(), 4ull * 2 * 2); // chips * dies * planes
}

TEST(BlockManager, PlaneIndexRoundTrip)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
        const PhysAddr addr = bm.planeAddr(p);
        EXPECT_EQ(bm.planeIndexOf(addr), p);
    }
}

TEST(BlockManager, PlaneIndexStripesChipsFirst)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    // Consecutive plane indices 0..numChips-1 must land on distinct
    // chips (the allocator's channel-stripe property).
    std::set<std::uint32_t> chips;
    for (std::uint32_t p = 0; p < g.numChips(); ++p) {
        const PhysAddr a = bm.planeAddr(p);
        chips.insert(g.chipIndex(a.channel, a.chipInChannel));
    }
    EXPECT_EQ(chips.size(), g.numChips());
}

TEST(BlockManager, AllocatesSequentialPagesWithinBlock)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    const auto p0 = bm.allocatePage(0);
    const auto p1 = bm.allocatePage(0);
    ASSERT_TRUE(p0 && p1);
    const PhysAddr a0 = g.decompose(*p0);
    const PhysAddr a1 = g.decompose(*p1);
    EXPECT_EQ(a0.block, a1.block);
    EXPECT_EQ(a1.page, a0.page + 1);
}

TEST(BlockManager, ExhaustsPlaneThenReturnsNullopt)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    // Host allocations stop one block short: that block is the GC
    // migration reserve.
    const std::uint64_t host_capacity =
        std::uint64_t{g.blocksPerPlane - 1} * g.pagesPerBlock;
    for (std::uint64_t i = 0; i < host_capacity; ++i)
        EXPECT_TRUE(bm.allocatePage(0).has_value());
    EXPECT_FALSE(bm.allocatePage(0).has_value());

    // The GC path may consume the reserve...
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        EXPECT_TRUE(bm.allocatePage(0, /*gc_reserve=*/true).has_value());
    // ...after which the plane is truly full for everyone.
    EXPECT_FALSE(bm.allocatePage(0, true).has_value());
}

TEST(BlockManager, EraseReturnsBlockToFreeList)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    // Fill block 0 (it is consumed first).
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    (void)bm.allocatePage(0); // opens the next block
    const std::uint32_t free_before = bm.freeBlocks(0);
    EXPECT_TRUE(bm.eraseBlock(0, 0));
    EXPECT_EQ(bm.freeBlocks(0), free_before + 1);
    EXPECT_EQ(bm.block(0, 0).eraseCount, 1u);
    EXPECT_EQ(bm.maxEraseCount(), 1u);
}

TEST(BlockManager, EraseWithLivePagesDies)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    bm.addValid(0, 0, 1);
    EXPECT_DEATH(bm.eraseBlock(0, 0), "live");
}

TEST(BlockManager, EnduranceRetiresBlock)
{
    const auto g = geo();
    BlockManager bm(g, 2); // two erases allowed
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    EXPECT_FALSE(bm.eraseBlock(0, 0) == false); // first erase fine
    for (std::uint32_t i = 0; i < g.pagesPerBlock * 2; ++i)
        (void)bm.allocatePage(0);
    // Second erase hits the endurance limit -> bad block. Block 0
    // was back on the free list, so the plane loses a free block.
    ASSERT_EQ(bm.block(0, 0).state, BlockState::Free);
    const std::uint32_t free_before = bm.freeBlocks(0);
    EXPECT_FALSE(bm.eraseBlock(0, 0));
    EXPECT_EQ(bm.badBlocks(), 1u);
    EXPECT_EQ(bm.block(0, 0).state, BlockState::Bad);
    EXPECT_EQ(bm.freeBlocks(0), free_before - 1);
    EXPECT_EQ(bm.freeBlocks(0), countFree(bm, g, 0));
}

TEST(BlockManager, RetiringAFreeBlockDropsItFromTheCount)
{
    const auto g = geo();
    BlockManager bm(g, 100, AllocationPolicy::ChannelStripe, false,
                    /*gc_threshold=*/g.blocksPerPlane);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 0u);
    bm.retireBlock(0, 2); // Free -> Bad
    EXPECT_EQ(bm.freeBlocks(0), g.blocksPerPlane - 1);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 1u);
    bm.retireBlock(0, 2); // already Bad: no-op
    EXPECT_EQ(bm.freeBlocks(0), g.blocksPerPlane - 1);
    // The stale free-list entry is skipped, never reopened.
    for (std::uint32_t i = 0; i < 3 * g.pagesPerBlock; ++i) {
        const auto ppn = bm.allocatePage(0, /*gc_reserve=*/true);
        ASSERT_TRUE(ppn.has_value());
        EXPECT_NE(g.decompose(*ppn).block, 2u);
    }
    EXPECT_FALSE(bm.allocatePage(0, true).has_value());
    EXPECT_EQ(bm.freeBlocks(0), 0u);
    expectCountsMatch(bm, g, g.blocksPerPlane);
}

TEST(BlockManager, DeadPlanesLeaveTheBelowThresholdCount)
{
    const auto g = geo();
    const std::uint32_t threshold = 3;
    BlockManager bm(g, 100, AllocationPolicy::ChannelStripe, false,
                    threshold);
    // Open two blocks on plane 5: 2 free < 3.
    for (std::uint32_t i = 0; i <= g.pagesPerBlock; ++i)
        (void)bm.allocatePage(5);
    EXPECT_EQ(bm.freeBlocks(5), 2u);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 1u);

    bm.markPlaneDead(5);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 0u);
    EXPECT_EQ(bm.freeBlocks(5), 2u); // the blocks themselves stay Free
    bm.markPlaneDead(5);             // idempotent
    EXPECT_EQ(bm.planesBelowGcThreshold(), 0u);
    // Retiring on a dead plane moves its count, not the device's.
    bm.retireBlock(5, 3);
    EXPECT_EQ(bm.freeBlocks(5), 1u);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 0u);

    // Revival rebuilds the free list from every non-Bad block.
    bm.revivePlane(5);
    EXPECT_EQ(bm.freeBlocks(5), g.blocksPerPlane - 1);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 0u);
    expectCountsMatch(bm, g, threshold);

    // A plane that revives short of blocks counts again at once.
    bm.retireBlock(5, 0);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 1u);
    bm.markPlaneDead(5);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 0u);
    bm.revivePlane(5);
    EXPECT_EQ(bm.freeBlocks(5), 2u);
    EXPECT_EQ(bm.planesBelowGcThreshold(), 1u);
    expectCountsMatch(bm, g, threshold);
}

/**
 * Randomized state machine over every operation that moves a block in
 * or out of Free or a plane in or out of service. After each step the
 * kept counts must equal a recount from block states.
 */
TEST(BlockManager, FreeCountsMatchRecountUnderRandomOps)
{
    FlashGeometry g = geo();
    g.blocksPerPlane = 8;
    // Thresholds from "never" (0) to "every plane, always" (9 > 8).
    const std::uint32_t thresholds[] = {0, 1, 2, 3, 8, 9};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        const std::uint32_t threshold = thresholds[seed - 1];
        const bool parity = seed % 2 == 0;
        BlockManager bm(g, /*endurance=*/6, AllocationPolicy::ChannelStripe,
                        parity, threshold);
        Rng rng(seed);
        const std::uint64_t planes = bm.numPlanes();
        auto drain = [&](std::uint64_t p, std::uint32_t b) {
            const std::uint32_t valid = bm.block(p, b).validPages;
            if (valid != 0)
                bm.addValid(p, b, -static_cast<int>(valid));
        };
        std::uint64_t erases = 0, free_erases = 0, retires = 0,
                      revives = 0;
        expectCountsMatch(bm, g, threshold);
        for (int step = 0; step < 1500; ++step) {
            const std::uint64_t p = rng.nextBelow(planes);
            const auto b =
                static_cast<std::uint32_t>(rng.nextBelow(g.blocksPerPlane));
            const std::uint64_t op = rng.nextBelow(100);
            if (op < 55) {
                // Host or GC-reserve allocation; the page holds data.
                const bool reserve = op >= 45;
                if (const auto ppn = bm.allocatePage(p, reserve)) {
                    const PhysAddr a = g.decompose(*ppn);
                    bm.addValid(bm.planeIndexOf(a), a.block, +1);
                }
            } else if (op < 85) {
                // Erase a drained Full block (a GC victim).
                if (bm.block(p, b).state == BlockState::Full) {
                    drain(p, b);
                    bm.eraseBlock(p, b);
                    ++erases;
                }
            } else if (op < 87) {
                // Erase an already-Free block: no second list entry,
                // and a block erased to its endurance leaves the count.
                if (bm.block(p, b).state == BlockState::Free) {
                    bm.eraseBlock(p, b);
                    ++free_erases;
                }
            } else if (op < 90) {
                // Program/erase failure on a Free, Active or Full block.
                bm.retireBlock(p, b);
                ++retires;
            } else if (op < 93) {
                bm.markPlaneDead(p);
            } else {
                // Rebuild drained the dead plane: bring it back.
                if (bm.planeDead(p)) {
                    for (std::uint32_t k = 0; k < g.blocksPerPlane; ++k)
                        drain(p, k);
                    bm.revivePlane(p);
                    ++revives;
                }
            }
            expectCountsMatch(bm, g, threshold);
            if (testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(erases, 0u);
        EXPECT_GT(free_erases, 0u);
        EXPECT_GT(retires, 0u);
        EXPECT_GT(revives, 0u);
        EXPECT_GT(bm.badBlocks(), 0u);
    }
}

TEST(BlockManager, AddValidUnderflowDies)
{
    BlockManager bm(geo(), 100);
    EXPECT_DEATH(bm.addValid(0, 0, -1), "underflow");
}

} // namespace
} // namespace spk
