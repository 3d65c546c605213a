/**
 * @file
 * Tests for device configuration helpers and the metric snapshot's
 * formatting layer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ssd/config.hh"
#include "ssd/metrics.hh"

namespace spk
{
namespace
{

TEST(SsdConfigHelpers, WithChipsKeepsPaperChannelScaling)
{
    // 64 chips -> 8 channels x 8 chips (the paper's base platform).
    const auto c64 = SsdConfig::withChips(64);
    EXPECT_EQ(c64.geometry.numChannels, 8u);
    EXPECT_EQ(c64.geometry.chipsPerChannel, 8u);
    EXPECT_EQ(c64.geometry.numChips(), 64u);

    // 1024 chips -> 32 channels (paper: 1024 chips / 32 channels).
    const auto c1024 = SsdConfig::withChips(1024);
    EXPECT_EQ(c1024.geometry.numChannels, 32u);
    EXPECT_EQ(c1024.geometry.numChips(), 1024u);
}

TEST(SsdConfigHelpers, WithChipsHandlesSmallCounts)
{
    const auto c4 = SsdConfig::withChips(4);
    EXPECT_EQ(c4.geometry.numChips(), 4u);
    const auto c1 = SsdConfig::withChips(1);
    EXPECT_EQ(c1.geometry.numChips(), 1u);
}

TEST(SsdConfigHelpers, DefaultsMatchPaperSection51)
{
    const SsdConfig cfg;
    EXPECT_EQ(cfg.geometry.diesPerChip, 2u);
    EXPECT_EQ(cfg.geometry.planesPerDie, 4u);
    EXPECT_EQ(cfg.geometry.pagesPerBlock, 128u);
    EXPECT_EQ(cfg.geometry.pageSizeBytes, 2048u);
    EXPECT_EQ(cfg.timing.readLatency, 20 * kMicrosecond);
    EXPECT_EQ(cfg.timing.programFast, 200 * kMicrosecond);
    EXPECT_EQ(cfg.timing.programSlow, 2200 * kMicrosecond);
    EXPECT_EQ(cfg.nvmhc.queueDepth, 32u);
    EXPECT_EQ(cfg.scheduler, SchedulerKind::SPK3);
}

TEST(SsdConfigHelpers, ValidateRejectsZeroWindow)
{
    SsdConfig cfg;
    cfg.faroWindow = 0;
    EXPECT_DEATH(cfg.validate(), "faroWindow");
}

TEST(SsdConfigHelpers, ValidateRejectsZeroQueueDepth)
{
    SsdConfig cfg;
    cfg.nvmhc.queueDepth = 0;
    EXPECT_DEATH(cfg.validate(), "queueDepth");
}

TEST(SsdConfigHelpers, WithChipsRejectsZeroChips)
{
    EXPECT_DEATH((void)SsdConfig::withChips(0), "at least one chip");
}

TEST(SchedulerKindHelpers, ParseRoundTrip)
{
    for (const auto kind :
         {SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
          SchedulerKind::SPK2, SchedulerKind::SPK3}) {
        EXPECT_EQ(parseSchedulerKind(schedulerKindName(kind)), kind);
    }
    EXPECT_EQ(parseSchedulerKind("spk3"), SchedulerKind::SPK3);
    EXPECT_EQ(parseSchedulerKind("vas"), SchedulerKind::VAS);
    EXPECT_DEATH((void)parseSchedulerKind("bogus"), "unknown");
}

TEST(MetricsFormatting, SnapshotStreamsEveryHeadlineField)
{
    MetricsSnapshot m;
    m.scheduler = "SPK3";
    m.bandwidthKBps = 1234.5;
    m.iops = 99.0;
    m.avgLatencyNs = 5000.0;
    m.p50LatencyNs = 4000;
    m.p99LatencyNs = 9000;
    std::ostringstream os;
    os << m;
    const std::string text = os.str();
    for (const char *needle :
         {"SPK3", "bandwidth", "IOPS", "latency", "p50", "idle",
          "transactions"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

} // namespace
} // namespace spk
