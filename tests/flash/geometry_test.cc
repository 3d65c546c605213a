/**
 * @file
 * Unit + property tests for geometry address arithmetic.
 */

#include <gtest/gtest.h>

#include "flash/geometry.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

FlashGeometry
smallGeo()
{
    FlashGeometry g;
    g.numChannels = 4;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 4;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 16;
    g.pageSizeBytes = 2048;
    return g;
}

TEST(Geometry, Counts)
{
    const auto g = smallGeo();
    EXPECT_EQ(g.numChips(), 8u);
    EXPECT_EQ(g.pagesPerPlane(), 128u);
    EXPECT_EQ(g.pagesPerDie(), 512u);
    EXPECT_EQ(g.pagesPerChip(), 1024u);
    EXPECT_EQ(g.totalPages(), 8192u);
    EXPECT_EQ(g.capacityBytes(), 8192u * 2048u);
    EXPECT_EQ(g.totalBlocks(), 8u * 2 * 4 * 8);
}

TEST(Geometry, ChipIndexStripesAcrossChannels)
{
    const auto g = smallGeo();
    // Chip indices 0..numChannels-1 must be offset 0 on each channel:
    // this IS the RIOS traversal order.
    for (std::uint32_t c = 0; c < g.numChannels; ++c) {
        EXPECT_EQ(g.chipIndex(c, 0), c);
        EXPECT_EQ(g.channelOfChip(c), c);
        EXPECT_EQ(g.chipOffsetOfChip(c), 0u);
    }
    EXPECT_EQ(g.chipIndex(0, 1), g.numChannels);
    EXPECT_EQ(g.chipOffsetOfChip(g.numChannels), 1u);
}

TEST(Geometry, ComposeDecomposeRoundTrip)
{
    const auto g = smallGeo();
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        const Ppn ppn = rng.nextBelow(g.totalPages());
        const PhysAddr addr = g.decompose(ppn);
        EXPECT_EQ(g.compose(addr), ppn);
        EXPECT_LT(addr.channel, g.numChannels);
        EXPECT_LT(addr.chipInChannel, g.chipsPerChannel);
        EXPECT_LT(addr.die, g.diesPerChip);
        EXPECT_LT(addr.plane, g.planesPerDie);
        EXPECT_LT(addr.block, g.blocksPerPlane);
        EXPECT_LT(addr.page, g.pagesPerBlock);
    }
}

TEST(Geometry, ConsecutivePagesShareBlock)
{
    const auto g = smallGeo();
    const PhysAddr a = g.decompose(0);
    const PhysAddr b = g.decompose(1);
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.plane, b.plane);
    EXPECT_EQ(b.page, a.page + 1);
}

TEST(Geometry, ValidateRejectsZeroDimension)
{
    auto g = smallGeo();
    g.planesPerDie = 0;
    EXPECT_DEATH(g.validate(), "non-zero");
}

TEST(Geometry, DescribeMentionsShape)
{
    const auto g = smallGeo();
    const std::string desc = g.describe();
    EXPECT_NE(desc.find("4ch"), std::string::npos);
    EXPECT_NE(desc.find("2048B"), std::string::npos);
}

/** Property sweep: round trip must hold for many geometry shapes. */
class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(GeometrySweep, RoundTripAndBounds)
{
    const auto [channels, chips, dies, planes] = GetParam();
    FlashGeometry g;
    g.numChannels = channels;
    g.chipsPerChannel = chips;
    g.diesPerChip = dies;
    g.planesPerDie = planes;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 8;
    g.validate();

    Rng rng(42);
    for (int i = 0; i < 300; ++i) {
        const Ppn ppn = rng.nextBelow(g.totalPages());
        const PhysAddr addr = g.decompose(ppn);
        EXPECT_EQ(g.compose(addr), ppn);
        EXPECT_LT(g.chipIndex(addr.channel, addr.chipInChannel),
                  g.numChips());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Combine(::testing::Values(1, 2, 8, 32),
                       ::testing::Values(1, 4, 32),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4)));

} // namespace
} // namespace spk
