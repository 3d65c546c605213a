/**
 * @file
 * Tests for the metric layer: derived quantities must follow from
 * first principles on hand-checkable workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ssd/ssd.hh"

namespace spk
{
namespace
{

SsdConfig
tinyConfig()
{
    SsdConfig cfg;
    cfg.geometry.numChannels = 2;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 16;
    cfg.scheduler = SchedulerKind::SPK3;
    return cfg;
}

TEST(Metrics, SingleReadNumbersAddUp)
{
    Ssd ssd(tinyConfig());
    ssd.submitAt(0, false, 0, 2048);
    ssd.run();
    const auto m = ssd.metrics();
    EXPECT_EQ(m.iosCompleted, 1u);
    EXPECT_EQ(m.bytesRead, 2048u);
    EXPECT_EQ(m.bytesWritten, 0u);
    EXPECT_EQ(m.transactions, 1u);
    EXPECT_EQ(m.requestsServed, 1u);
    EXPECT_EQ(m.flpPct[0], 100.0); // single request: NON-PAL

    // Bandwidth = bytes / makespan.
    const double seconds = static_cast<double>(m.makespan) / 1e9;
    EXPECT_NEAR(m.bandwidthKBps, 2048.0 / 1024.0 / seconds, 0.01);
    EXPECT_NEAR(m.iops, 1.0 / seconds, 1e-6);
}

TEST(Metrics, LatencyMatchesResultRecords)
{
    Ssd ssd(tinyConfig());
    ssd.submitAt(0, false, 0, 4096);
    ssd.run();
    const auto m = ssd.metrics();
    Tick sum = 0;
    for (const auto &res : ssd.results())
        sum += res.latency();
    EXPECT_NEAR(m.avgLatencyNs,
                static_cast<double>(sum) / ssd.results().size(), 0.5);
    EXPECT_EQ(m.maxLatencyNs, ssd.results()[0].latency());
}

TEST(Metrics, ExecBreakdownSharesAreSane)
{
    Ssd ssd(tinyConfig());
    for (int i = 0; i < 20; ++i)
        ssd.submitAt(i * 1000, i % 2 == 0, i * 65536, 16384);
    ssd.run();
    const auto m = ssd.metrics();
    EXPECT_GT(m.execCellPct, 0.0);
    EXPECT_GT(m.execBusPct, 0.0);
    EXPECT_GE(m.execIdlePct, 0.0);
    EXPECT_LE(m.execBusPct + m.execCellPct, 110.0); // loose sanity
}

TEST(Metrics, UtilizationGrowsWithLoad)
{
    auto util = [](int n_ios) {
        Ssd ssd(tinyConfig());
        for (int i = 0; i < n_ios; ++i)
            ssd.submitAt(i * 100, false, i * 8192, 8192);
        ssd.run();
        return ssd.metrics().chipUtilizationPct;
    };
    EXPECT_GT(util(50), util(1));
}

TEST(Metrics, SummaryAndStreamOutputMentionScheduler)
{
    Ssd ssd(tinyConfig());
    ssd.submitAt(0, false, 0, 2048);
    ssd.run();
    const auto m = ssd.metrics();
    std::ostringstream os;
    os << m;
    EXPECT_NE(os.str().find("SPK3"), std::string::npos);
    EXPECT_NE(os.str().find("bandwidth"), std::string::npos);
}

TEST(Metrics, InterChipIdlenessHighWhenOneChipWorks)
{
    // Hammer a single logical page region that maps to few chips.
    Ssd ssd(tinyConfig());
    for (int i = 0; i < 30; ++i)
        ssd.submitAt(i * 10, false, 0, 2048); // same page every time
    ssd.run();
    const auto m = ssd.metrics();
    // Two chips, traffic for one: inter-chip idleness near 50 % or
    // more.
    EXPECT_GT(m.interChipIdlenessPct, 40.0);
}

} // namespace
} // namespace spk
