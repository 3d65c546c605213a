/**
 * @file
 * Hazard-control tests across every scheduler: RAW/WAW/WAR ordering
 * on overlapping logical pages and FUA barriers must hold no matter
 * how aggressively the scheduler reorders (Section 4.4).
 */

#include <gtest/gtest.h>

#include "ssd/ssd.hh"

namespace spk
{
namespace
{

SsdConfig
config(SchedulerKind kind)
{
    SsdConfig cfg;
    cfg.geometry.numChannels = 2;
    cfg.geometry.chipsPerChannel = 2;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 16;
    cfg.scheduler = kind;
    return cfg;
}

class HazardSweep : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(HazardSweep, ReadAfterWriteOrdered)
{
    Ssd ssd(config(GetParam()));
    ssd.submitAt(0, true, 8192, 2048);  // W(page 4)
    ssd.submitAt(1, false, 8192, 2048); // R(page 4)
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 2u);
    EXPECT_TRUE(ssd.results()[0].isWrite);
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);
}

TEST_P(HazardSweep, WriteAfterWriteOrdered)
{
    Ssd ssd(config(GetParam()));
    ssd.submitAt(0, true, 4096, 4096);
    ssd.submitAt(1, true, 4096, 4096);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 2u);
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);
}

TEST_P(HazardSweep, WriteAfterReadOrdered)
{
    Ssd ssd(config(GetParam()));
    ssd.submitAt(0, false, 16384, 2048); // R first
    ssd.submitAt(1, true, 16384, 2048);  // W must wait
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 2u);
    EXPECT_FALSE(ssd.results()[0].isWrite);
}

TEST_P(HazardSweep, LongDependencyChain)
{
    // W-R-W-R-W on one page: strict serialization.
    Ssd ssd(config(GetParam()));
    for (int i = 0; i < 5; ++i)
        ssd.submitAt(static_cast<Tick>(i), i % 2 == 0, 2048, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 5u);
    for (std::size_t i = 1; i < 5; ++i)
        EXPECT_GE(ssd.results()[i].completed,
                  ssd.results()[i - 1].completed);
}

TEST_P(HazardSweep, DisjointPagesMayReorder)
{
    // No hazard across different pages: all complete, any order.
    Ssd ssd(config(GetParam()));
    for (int i = 0; i < 12; ++i)
        ssd.submitAt(static_cast<Tick>(i), i % 2 == 0,
                     static_cast<std::uint64_t>(i) * 65536, 8192);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 12u);
}

TEST_P(HazardSweep, FuaDrainsOlderAndBlocksYounger)
{
    Ssd ssd(config(GetParam()));
    ssd.submitAt(0, false, 1 << 20, 8192);         // older read
    ssd.submitAt(1, true, 2 << 20, 2048, true);    // FUA write
    ssd.submitAt(2, false, 3 << 20, 8192);         // younger read
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 3u);
    // Completion order: older, FUA, younger.
    EXPECT_FALSE(ssd.results()[0].isWrite);
    EXPECT_TRUE(ssd.results()[1].isWrite);
    EXPECT_FALSE(ssd.results()[2].isWrite);
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);
    EXPECT_GE(ssd.results()[2].completed, ssd.results()[1].completed);
}

TEST_P(HazardSweep, BackToBackFuaSerializes)
{
    Ssd ssd(config(GetParam()));
    for (int i = 0; i < 4; ++i)
        ssd.submitAt(static_cast<Tick>(i), true,
                     static_cast<std::uint64_t>(i) * 32768, 4096, true);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 4u);
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_GE(ssd.results()[i].completed,
                  ssd.results()[i - 1].completed);
}

TEST_P(HazardSweep, YoungerIoWaitsForQueuedFuaThenRuns)
{
    // Disjoint pages: only the FUA barrier orders these I/Os. While
    // the FUA write is queued nothing of the younger read may be
    // composed; once it completes the barrier lifts.
    Ssd ssd(config(GetParam()));
    ssd.submitAt(0, true, 0, 32768, true);     // FUA write, 16 pages
    ssd.submitAt(1, false, 1 << 20, 16384);    // younger read
    bool saw_both = false;
    while (ssd.events().step()) {
        const auto &queue = ssd.nvmhc().queue();
        const IoRequest *fua = nullptr;
        const IoRequest *younger = nullptr;
        for (const IoRequest *io : queue)
            (io->fua ? fua : younger) = io;
        if (fua && younger) {
            saw_both = true;
            EXPECT_EQ(younger->composedCount, 0u);
        }
    }
    EXPECT_TRUE(saw_both);
    ASSERT_EQ(ssd.results().size(), 2u);
    EXPECT_TRUE(ssd.results()[0].isWrite);
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);

    // The FUA count is back to zero: a later read is not held back.
    ssd.submitAt(ssd.events().now() + 1, false, 2 << 20, 4096);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 3u);
}

TEST_P(HazardSweep, OverlappingRangesPartialConflict)
{
    // Two 4-page writes overlapping by 2 pages: every page's updates
    // apply in order; both complete.
    Ssd ssd(config(GetParam()));
    ssd.submitAt(0, true, 0, 8192);    // pages 0-3
    ssd.submitAt(1, true, 4096, 8192); // pages 2-5
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 2u);
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, HazardSweep,
    ::testing::Values(SchedulerKind::VAS, SchedulerKind::PAS,
                      SchedulerKind::SPK1, SchedulerKind::SPK2,
                      SchedulerKind::SPK3),
    [](const ::testing::TestParamInfo<SchedulerKind> &info) {
        return schedulerKindName(info.param);
    });

} // namespace
} // namespace spk
