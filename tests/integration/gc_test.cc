/**
 * @file
 * Garbage-collection integration tests: preconditioning, migration
 * correctness under live traffic, readdressing callbacks and the
 * GC-vs-pristine performance ordering (Section 5.9).
 */

#include <gtest/gtest.h>

#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

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
    cfg.geometry.blocksPerPlane = 12;
    cfg.geometry.pagesPerBlock = 16;
    cfg.scheduler = kind;
    cfg.ftl.overprovision = 0.20;
    return cfg;
}

Trace
writeHammer(std::uint64_t span, std::uint64_t seed, std::uint64_t ios)
{
    SyntheticConfig wl;
    wl.numIos = ios;
    wl.readFraction = 0.0;
    wl.writeSizes = {{8192, 1.0}};
    wl.spanBytes = span;
    wl.meanInterarrival = 20 * kMicrosecond;
    wl.seed = seed;
    return generateSynthetic(wl);
}

TEST(GcIntegration, WriteStormTriggersGc)
{
    Ssd ssd(config(SchedulerKind::SPK3));
    ssd.preconditionForGc(0.90, 0.30);
    const std::uint64_t span =
        ssd.ftl().logicalPages() * 2048 / 2;
    ssd.replay(writeHammer(span, 21, 400));
    ssd.run();
    EXPECT_GT(ssd.gc().stats().batches, 0u);
    EXPECT_GT(ssd.gc().stats().erases, 0u);
    EXPECT_EQ(ssd.gc().stats().migrationReads,
              ssd.gc().stats().migrationPrograms);
}

TEST(GcIntegration, MappingConsistentAfterGcStorm)
{
    Ssd ssd(config(SchedulerKind::SPK3));
    ssd.preconditionForGc(0.90, 0.30);
    const std::uint64_t span = ssd.ftl().logicalPages() * 2048 / 2;
    ssd.replay(writeHammer(span, 22, 500));
    ssd.run();
    const auto &ftl = ssd.ftl();
    const auto &geo = ssd.config().geometry;
    // Forward and reverse map agree for every live logical page.
    std::uint64_t live = 0;
    for (Lpn lpn = 0; lpn < ftl.logicalPages(); ++lpn) {
        const Ppn ppn = ftl.translateRead(lpn);
        if (ppn == kInvalidPage)
            continue;
        ASSERT_LT(ppn, geo.totalPages());
        EXPECT_EQ(ftl.mapping().reverseLookup(ppn), lpn);
        ++live;
    }
    EXPECT_EQ(live, ftl.mapping().liveCount());
}

TEST(GcIntegration, AllIosCompleteDespiteGc)
{
    for (const auto kind : {SchedulerKind::VAS, SchedulerKind::PAS,
                            SchedulerKind::SPK3}) {
        Ssd ssd(config(kind));
        ssd.preconditionForGc(0.90, 0.30);
        const std::uint64_t span = ssd.ftl().logicalPages() * 2048 / 2;
        const Trace t = writeHammer(span, 23, 300);
        ssd.replay(t);
        ssd.run();
        EXPECT_EQ(ssd.results().size(), t.size())
            << schedulerKindName(kind);
    }
}

TEST(GcIntegration, GcSlowsTheDeviceDown)
{
    const Trace t = writeHammer(4ull << 20, 24, 300);
    auto bandwidth = [&](bool precondition) {
        Ssd ssd(config(SchedulerKind::SPK3));
        if (precondition)
            ssd.preconditionForGc(0.95, 0.40);
        ssd.replay(t);
        ssd.run();
        return ssd.metrics().bandwidthKBps;
    };
    EXPECT_GT(bandwidth(false), bandwidth(true));
}

TEST(GcIntegration, ReadsSurviveMigration)
{
    // Mixed read/write storm over a small span: reads race GC
    // migrations; every read must still complete exactly once.
    Ssd ssd(config(SchedulerKind::SPK3));
    ssd.preconditionForGc(0.92, 0.35);
    SyntheticConfig wl;
    wl.numIos = 400;
    wl.readFraction = 0.5;
    wl.readSizes = {{4096, 1.0}};
    wl.writeSizes = {{8192, 1.0}};
    wl.spanBytes = ssd.ftl().logicalPages() * 2048 / 2;
    wl.meanInterarrival = 10 * kMicrosecond;
    wl.seed = 25;
    const Trace t = generateSynthetic(wl);
    ssd.replay(t);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), t.size());
}

TEST(GcIntegration, Spk3UsesReaddressingVasPaysRetries)
{
    // Under the same GC pressure, VAS/PAS (no readdressing callback)
    // must pay at least as many stale re-executions as SPK3.
    auto retries = [&](SchedulerKind kind) {
        Ssd ssd(config(kind));
        ssd.preconditionForGc(0.95, 0.40);
        const std::uint64_t span = ssd.ftl().logicalPages() * 2048 / 2;
        SyntheticConfig wl;
        wl.numIos = 350;
        wl.readFraction = 0.5;
        wl.readSizes = {{4096, 1.0}};
        wl.writeSizes = {{8192, 1.0}};
        wl.spanBytes = span;
        wl.meanInterarrival = 10 * kMicrosecond;
        wl.seed = 26;
        ssd.replay(generateSynthetic(wl));
        ssd.run();
        return ssd.metrics().staleRetries;
    };
    EXPECT_GE(retries(SchedulerKind::VAS), retries(SchedulerKind::SPK3));
}

/** At 12 blocks per plane the default fill leaves more valid pages on
 *  every plane than its blocks above the GC threshold hold, so GC can
 *  never restore the threshold. Preconditioning must stop with the
 *  sizing problem instead of handing over a device whose GC never
 *  ends; two blocks more precondition cleanly. */
TEST(GcIntegrationDeathTest, DeviceTooSmallForItsFillDies)
{
    const auto device = [](std::uint32_t blocks_per_plane) {
        SsdConfig cfg = SsdConfig::withChips(8);
        cfg.geometry.blocksPerPlane = blocks_per_plane;
        cfg.geometry.pagesPerBlock = 16;
        cfg.scheduler = SchedulerKind::SPK3;
        return cfg;
    };
    EXPECT_DEATH(
        {
            Ssd ssd(device(12));
            ssd.preconditionForGc();
        },
        "64 of 64 planes stay below the GC threshold.*raise the "
        "overprovisioning or the blocks per plane, or lower the fill");

    Ssd ssd(device(14));
    ssd.preconditionForGc();
    EXPECT_FALSE(ssd.ftl().gcNeeded());
}

} // namespace
} // namespace spk
