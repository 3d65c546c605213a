/**
 * @file
 * Preconditioned-image oracle: restoring a captured image into a
 * fresh device must equal preconditioning that device, bit for bit.
 *
 * Device A preconditions itself. Device B is fresh and restores an
 * image captured from a third device that ran a different scheduler
 * (preconditioning never reads it). Right after the restore, A and B
 * must agree on every mapping entry, block and stripe mask and on the
 * FTL counters; after both replay the same stream, on every metric;
 * and a second preconditioning pass, which draws from the RNG carried
 * in the image, must leave them equal again. Covers every scheduler,
 * parity off and on, and three fault profiles.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/cell_cache.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

enum class Faults
{
    None,
    All,     //!< every fault class and soft decode, plus a die failure
    /** Endurance low enough that preconditioning retires blocks
     *  (its erase counts top out at 2), with just enough spare
     *  capacity that the device survives the run. */
    Wearout,
};

const char *
faultsName(Faults faults)
{
    switch (faults) {
      case Faults::None:
        return "none";
      case Faults::All:
        return "all";
      case Faults::Wearout:
        return "wearout";
    }
    return "?";
}

SsdConfig
imageConfig(SchedulerKind kind, bool parity, Faults faults)
{
    SsdConfig cfg = SsdConfig::withChips(16);
    cfg.geometry.diesPerChip = 4;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.blocksPerPlane = 32;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    cfg.seed = 17;
    cfg.parity.enabled = parity;
    cfg.parity.flushWindow = 5 * kMicrosecond;
    cfg.parity.rebuildPageInterval = 5 * kMicrosecond;

    FaultConfig &f = cfg.fault;
    if (faults == Faults::All) {
        f.readTransientRate = 0.05;
        f.retryStepFailRate = 0.7;
        f.retryLadderSteps = kMaxRetrySteps;
        f.readHardRate = 0.002;
        f.programFailRate = 0.001;
        f.eraseFailRate = 0.002;
        f.softDecodeEnabled = true;
        f.softDecodeLatency = 300 * kMicrosecond;
        f.softDecodeFailRate = 0.2;
        f.dieFailTick = 2 * kMillisecond;
        f.dieFailChip = 1;
        f.dieFailDie = 1;
    } else if (faults == Faults::Wearout) {
        cfg.ftl.endurance = 2;
        cfg.ftl.overprovision = 0.12;
    }
    return cfg;
}

/** A different scheduler than @p kind, to capture the image with. */
SchedulerKind
otherScheduler(SchedulerKind kind)
{
    return kind == SchedulerKind::SPK3 ? SchedulerKind::VAS
                                       : SchedulerKind::SPK3;
}

/** Every piece of FTL state preconditioning writes must agree. */
void
expectSameFtl(Ssd &a, Ssd &b)
{
    const Ftl &fa = a.ftl();
    const Ftl &fb = b.ftl();

    const PageMapping &ma = fa.mapping();
    const PageMapping &mb = fb.mapping();
    ASSERT_EQ(ma.logicalPages(), mb.logicalPages());
    ASSERT_EQ(ma.physicalPages(), mb.physicalPages());
    for (Lpn lpn = 0; lpn < ma.logicalPages(); ++lpn)
        ASSERT_EQ(ma.lookup(lpn), mb.lookup(lpn)) << "lpn " << lpn;
    for (Ppn ppn = 0; ppn < ma.physicalPages(); ++ppn)
        ASSERT_EQ(ma.reverseLookup(ppn), mb.reverseLookup(ppn))
            << "ppn " << ppn;
    EXPECT_EQ(ma.liveCount(), mb.liveCount());

    const BlockManager &ba = fa.blocks();
    const BlockManager &bb = fb.blocks();
    ASSERT_EQ(ba.numPlanes(), bb.numPlanes());
    const std::uint32_t per_plane = fa.geometry().blocksPerPlane;
    for (std::uint64_t plane = 0; plane < ba.numPlanes(); ++plane) {
        for (std::uint32_t blk = 0; blk < per_plane; ++blk)
            ASSERT_EQ(ba.block(plane, blk), bb.block(plane, blk))
                << "plane " << plane << " block " << blk;
        ASSERT_EQ(ba.freeBlocks(plane), bb.freeBlocks(plane))
            << "plane " << plane;
    }
    EXPECT_EQ(ba.planesBelowGcThreshold(), bb.planesBelowGcThreshold());
    EXPECT_EQ(ba.badBlocks(), bb.badBlocks());
    EXPECT_EQ(ba.maxEraseCount(), bb.maxEraseCount());

    ASSERT_EQ(fa.parityMap() == nullptr, fb.parityMap() == nullptr);
    if (fa.parityMap()) {
        EXPECT_EQ(fa.parityMap()->masks(), fb.parityMap()->masks());
    }
    EXPECT_EQ(fa.stats(), fb.stats());
}

using ImageCase = std::tuple<SchedulerKind, bool, Faults>;

class SsdImageOracle : public testing::TestWithParam<ImageCase>
{
};

TEST_P(SsdImageOracle, RestoreEqualsPrecondition)
{
    const auto [kind, parity, faults] = GetParam();
    const SsdConfig cfg = imageConfig(kind, parity, faults);

    Ssd a(cfg);
    a.preconditionForGc();
    if (faults == Faults::Wearout) {
        ASSERT_GT(a.ftl().blocks().badBlocks(), 0u)
            << "the wear-out profile must retire blocks while "
               "preconditioning";
    }

    Ssd donor(imageConfig(otherScheduler(kind), parity, faults));
    donor.preconditionForGc();
    const SsdImage image = donor.image();

    Ssd b(cfg);
    b.restore(image);
    expectSameFtl(a, b);

    const std::uint64_t span = cfg.geometry.totalPages() *
                               cfg.geometry.pageSizeBytes / 2;
    const Trace stream =
        fixedSizeStream(300, 8192, 0.9, span, 2 * kMicrosecond, 23);
    a.replay(stream);
    b.replay(stream);
    a.run();
    b.run();
    const MetricsSnapshot ma = a.metrics();
    EXPECT_GT(ma.iosCompleted, 0u);
    EXPECT_EQ(CellCache::serialize(ma), CellCache::serialize(b.metrics()));

    // Churn draws from the RNG, so this diverges unless the image
    // carried the donor's RNG state.
    a.preconditionForGc(0.02, 1.0);
    b.preconditionForGc(0.02, 1.0);
    expectSameFtl(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersParityFaults, SsdImageOracle,
    testing::Combine(testing::Values(SchedulerKind::VAS, SchedulerKind::PAS,
                                     SchedulerKind::SPK1,
                                     SchedulerKind::SPK2,
                                     SchedulerKind::SPK3),
                     testing::Bool(),
                     testing::Values(Faults::None, Faults::All,
                                     Faults::Wearout)),
    [](const testing::TestParamInfo<ImageCase> &info) {
        return std::string(schedulerKindName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_parity_" : "_plain_") +
               faultsName(std::get<2>(info.param));
    });

/**
 * What a worn-out device does next: after the wear-out profile's run,
 * a second preconditioning pass leaves every plane below the GC
 * threshold with blocks retired at endurance, and GC cannot migrate
 * (its warning comes once per collection round). A further timed
 * stream must end in fatal("device out of space"), not livelock.
 */
TEST(SsdImageDeathTest, WornOutDeviceRunsOutOfSpace)
{
    for (const bool parity : {false, true}) {
        SCOPED_TRACE(parity ? "parity on" : "parity off");
        const SsdConfig cfg =
            imageConfig(SchedulerKind::VAS, parity, Faults::Wearout);
        Ssd ssd(cfg);
        ssd.preconditionForGc();
        const std::uint64_t span = cfg.geometry.totalPages() *
                                   cfg.geometry.pageSizeBytes / 2;
        ssd.replay(
            fixedSizeStream(300, 8192, 0.9, span, 2 * kMicrosecond, 23));
        ssd.run();
        ssd.preconditionForGc(0.02, 1.0);
        const BlockManager &blocks = ssd.ftl().blocks();
        ASSERT_EQ(blocks.planesBelowGcThreshold(), blocks.numPlanes());
        ASSERT_GT(blocks.badBlocks(), 0u);

        Trace more =
            fixedSizeStream(300, 8192, 0.9, span, 2 * kMicrosecond, 29);
        for (TraceRecord &rec : more)
            rec.arrival += ssd.events().now();
        ssd.replay(more);
        EXPECT_DEATH(ssd.run(), "Nvmhc: device out of space");
    }
}

TEST(SsdImageDeathTest, RestoreIntoDeviceThatTookIoPanics)
{
    const SsdConfig cfg = imageConfig(SchedulerKind::VAS, false,
                                      Faults::None);
    Ssd donor(cfg);
    donor.preconditionForGc();
    const SsdImage image = donor.image();

    Ssd submitted(cfg);
    submitted.submitAt(0, true, 0, 4096);
    EXPECT_DEATH(submitted.restore(image), "already taken I/O");

    // No I/O, but the die-failure event has been dispatched.
    Ssd ran(imageConfig(SchedulerKind::VAS, false, Faults::All));
    ran.run();
    ASSERT_GT(ran.events().dispatched(), 0u);
    EXPECT_DEATH(ran.restore(image), "already taken I/O");
}

TEST(SsdImageDeathTest, RestoreOfAnotherGeometryOrParityPanics)
{
    const SsdConfig cfg = imageConfig(SchedulerKind::VAS, false,
                                      Faults::None);
    Ssd donor(cfg);
    donor.preconditionForGc();
    const SsdImage image = donor.image();

    SsdConfig bigger = cfg;
    bigger.geometry.blocksPerPlane = 64;
    Ssd wide(bigger);
    EXPECT_DEATH(wide.restore(image), "different geometry or parity");

    // The same pages in twice the blocks: only the block count tells
    // the geometries apart.
    SsdConfig small_blocks = cfg;
    small_blocks.geometry.blocksPerPlane = 64;
    small_blocks.geometry.pagesPerBlock = 16;
    Ssd reshaped(small_blocks);
    ASSERT_EQ(reshaped.ftl().logicalPages(), donor.ftl().logicalPages());
    EXPECT_DEATH(reshaped.restore(image), "different geometry or parity");

    SsdConfig protected_cfg = cfg;
    protected_cfg.parity.enabled = true;
    Ssd with_parity(protected_cfg);
    EXPECT_DEATH(with_parity.restore(image),
                 "different geometry or parity");

    // A protected image into an unprotected device whose larger
    // overprovision gives it the same logical page and block counts:
    // only the stripe count tells them apart.
    Ssd protected_donor(protected_cfg);
    protected_donor.preconditionForGc();
    const SsdImage protected_image = protected_donor.image();
    SsdConfig matched = cfg;
    matched.ftl.overprovision = 0.325; // 1 - 0.9 * 3/4
    Ssd plain(matched);
    ASSERT_EQ(plain.ftl().logicalPages(),
              protected_donor.ftl().logicalPages());
    EXPECT_DEATH(plain.restore(protected_image),
                 "different geometry or parity");
}

} // namespace
} // namespace spk
