/**
 * @file
 * Static wear-leveling tests: the cold-block migration path bounds
 * the erase-count spread under skewed traffic (Section 4.3's second
 * live-migration source).
 */

#include <gtest/gtest.h>

#include "ftl/ftl.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

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

/** Cold data: fills a band of blocks that never gets rewritten. */
void
coldFill(Ftl &ftl)
{
    const std::uint64_t cold = ftl.logicalPages() / 2;
    for (Lpn lpn = 0; lpn < cold; ++lpn)
        (void)ftl.allocateWrite(lpn);
}

/**
 * Hot data: constant overwrites of a small range above the cold band.
 * @return the writes after which wear leveling was needed
 */
std::uint64_t
hotWrites(Ftl &ftl, int iterations, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t cold = ftl.logicalPages() / 2;
    const std::uint64_t hot = ftl.logicalPages() / 16;
    std::uint64_t fires = 0;
    for (int i = 0; i < iterations; ++i) {
        (void)ftl.allocateWrite(cold + rng.nextBelow(hot));
        if (ftl.gcNeeded())
            ftl.collectGc();
        if (ftl.wearLevelNeeded()) {
            ++fires;
            ftl.collectWearLevel();
        }
    }
    return fires;
}

/** Hammer a small hot set while a cold set pins its blocks. */
void
skewedTraffic(Ftl &ftl, int iterations, std::uint64_t seed)
{
    coldFill(ftl);
    (void)hotWrites(ftl, iterations, seed);
}

TEST(WearLeveling, DisabledByDefault)
{
    FtlConfig cfg;
    EXPECT_EQ(cfg.wearLevelThreshold, 0u);
    Ftl ftl(geo(), cfg);
    skewedTraffic(ftl, 4000, 41);
    EXPECT_EQ(ftl.stats().wearLevelMoves, 0u);
    EXPECT_FALSE(ftl.wearLevelNeeded());
}

TEST(WearLeveling, BoundsEraseSpread)
{
    FtlConfig with;
    with.wearLevelThreshold = 8;
    Ftl leveled(geo(), with);
    skewedTraffic(leveled, 6000, 42);

    FtlConfig without;
    Ftl skewed(geo(), without);
    skewedTraffic(skewed, 6000, 42);

    EXPECT_GT(leveled.stats().wearLevelMoves, 0u);
    const auto spread_on = leveled.blocks().eraseSpread();
    const auto spread_off = skewed.blocks().eraseSpread();
    // Leveling keeps min erase moving (cold blocks recirculate).
    EXPECT_GT(spread_on.first, spread_off.first);
    // And the spread stays near the threshold (one migration per
    // trigger means slight overshoot is fine).
    EXPECT_LE(spread_on.second - spread_on.first,
              2 * with.wearLevelThreshold + 4);
}

TEST(WearLeveling, MappingStaysConsistent)
{
    FtlConfig cfg;
    cfg.wearLevelThreshold = 6;
    Ftl ftl(geo(), cfg);
    skewedTraffic(ftl, 5000, 43);
    for (Lpn lpn = 0; lpn < ftl.logicalPages(); ++lpn) {
        const Ppn ppn = ftl.translateRead(lpn);
        if (ppn != kInvalidPage) {
            EXPECT_EQ(ftl.mapping().reverseLookup(ppn), lpn);
        }
    }
}

TEST(WearLeveling, FiresReaddressCallbacks)
{
    FtlConfig cfg;
    cfg.wearLevelThreshold = 6;
    Ftl ftl(geo(), cfg);
    std::uint64_t calls = 0;
    ftl.setReaddressCallback([&](Lpn, Ppn, Ppn) { ++calls; });
    skewedTraffic(ftl, 5000, 44);
    EXPECT_EQ(calls, ftl.stats().pagesMigrated);
    EXPECT_GT(ftl.stats().wearLevelMoves, 0u);
}

TEST(WearLeveling, DeviceLevelRunChargesFlashTime)
{
    // End-to-end: a device with aggressive leveling completes the
    // same workload, strictly slower or equal (migration costs time).
    SyntheticConfig wl;
    wl.numIos = 300;
    wl.readFraction = 0.1;
    wl.writeSizes = {{8192, 1.0}};
    wl.spanBytes = 2ull << 20;
    wl.meanInterarrival = 15 * kMicrosecond;
    wl.seed = 45;
    const Trace trace = generateSynthetic(wl);

    auto run = [&](std::uint32_t threshold) {
        SsdConfig cfg;
        cfg.geometry = geo();
        cfg.geometry.blocksPerPlane = 12;
        cfg.scheduler = SchedulerKind::SPK3;
        cfg.ftl.wearLevelThreshold = threshold;
        Ssd ssd(cfg);
        ssd.replay(trace);
        ssd.run();
        EXPECT_EQ(ssd.results().size(), trace.size());
        return std::make_pair(ssd.events().now(),
                              ssd.ftl().stats().wearLevelMoves);
    };
    const auto off = run(0);
    const auto on = run(2);
    EXPECT_EQ(off.second, 0u);
    if (on.second > 0) {
        EXPECT_GE(on.first, off.first);
    }
}

TEST(WearLeveling, DeadDieDoesNotPinTheSpread)
{
    // A dead die's erase counts freeze and the leveler can no longer
    // move its blocks, so they must not hold the spread's minimum
    // down: leveling would then fire after almost every write.
    struct Run
    {
        std::uint64_t fires;
        std::uint64_t moves;
        std::pair<std::uint32_t, std::uint32_t> spread;
    };
    auto run = [](bool die_fails) {
        FtlConfig cfg;
        cfg.wearLevelThreshold = 6;
        Ftl ftl(geo(), cfg);
        coldFill(ftl);
        if (die_fails)
            ftl.markDieDead(0, 0);
        const std::uint64_t fires = hotWrites(ftl, 20000, 46);
        return Run{fires, ftl.stats().wearLevelMoves,
                   ftl.blocks().eraseSpread()};
    };
    const Run healthy = run(false);
    const Run failed = run(true);
    ASSERT_GT(healthy.moves, 0u);
    EXPECT_GT(failed.moves, 0u);
    EXPECT_LE(failed.moves, 2 * healthy.moves);
    EXPECT_LE(failed.fires, 2 * healthy.fires);
    // The spread over live planes stays near the threshold.
    EXPECT_LE(failed.spread.second - failed.spread.first, 2 * 6 + 4u);
}

TEST(WearLeveling, ColdestFullSelection)
{
    BlockManager bm(geo(), 1000);
    // Fill two blocks in plane 0; erase-cycle block 0 a few times.
    for (std::uint32_t i = 0; i < 2 * geo().pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    bm.eraseBlock(0, 0);
    for (std::uint32_t i = 0; i < geo().pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    // Now block 1 (erase count 0, Full) is colder than block 0.
    bm.addValid(0, 1, 3);
    const auto victim = bm.pickColdestFull();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->second, 1u);
    EXPECT_EQ(bm.block(0, 1).eraseCount, 0u);
}

} // namespace
} // namespace spk
