/**
 * @file
 * End-to-end test: MSR-format CSV file -> parser -> device replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "ssd/ssd.hh"
#include "workload/trace_parser.hh"

namespace spk
{
namespace
{

class TraceReplayE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "spk_trace_test.csv";
        std::ofstream out(path_);
        // Hand-written mini trace: mixed directions, sizes, offsets,
        // one malformed line, timestamps in filetime units.
        out << "1000,host,0,Write,0,8192,100\n"
            << "1005,host,0,Read,0,4096,100\n"
            << "garbage,not,a,line\n"
            << "1010,host,0,Write,65536,16384,100\n"
            << "1020,host,0,Read,65536,16384,100\n"
            << "1030,host,0,Read,1048576,2048,100\n";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceReplayE2E, ParseAndReplay)
{
    const auto parsed = parseMsrTraceFile(path_);
    EXPECT_EQ(parsed.skippedLines, 1u);
    ASSERT_EQ(parsed.trace.size(), 5u);

    SsdConfig cfg;
    cfg.geometry.numChannels = 2;
    cfg.geometry.chipsPerChannel = 2;
    cfg.geometry.blocksPerPlane = 32;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;

    Ssd ssd(cfg);
    ssd.replay(parsed.trace);
    ssd.run();

    ASSERT_EQ(ssd.results().size(), 5u);
    const auto &ns = ssd.nvmhc().stats();
    // 8192 + 16384 written; 4096 + 16384 + 2048 read.
    EXPECT_EQ(ns.bytesWritten, 8192u + 16384u);
    EXPECT_EQ(ns.bytesRead, 4096u + 16384u + 2048u);

    // The W(0)->R(0) pair must be ordered.
    EXPECT_TRUE(ssd.results()[0].isWrite);
}

TEST_F(TraceReplayE2E, ReplayAcrossSchedulersMatchesByteTotals)
{
    const auto parsed = parseMsrTraceFile(path_);
    for (const auto kind : {SchedulerKind::VAS, SchedulerKind::PAS,
                            SchedulerKind::SPK3}) {
        SsdConfig cfg;
        cfg.geometry.numChannels = 2;
        cfg.geometry.chipsPerChannel = 2;
        cfg.geometry.blocksPerPlane = 32;
        cfg.geometry.pagesPerBlock = 32;
        cfg.scheduler = kind;
        Ssd ssd(cfg);
        ssd.replay(parsed.trace);
        ssd.run();
        EXPECT_EQ(ssd.nvmhc().stats().bytesWritten, 8192u + 16384u)
            << schedulerKindName(kind);
    }
}

TEST(TraceReplaySample, CheckedInMsrSampleRunsEndToEnd)
{
    // The committed sample under data/traces is the first
    // non-synthetic workload: parse it, fold offsets into the device
    // span, and replay it deterministically under two schedulers.
    auto parsed = parseMsrTraceFile(std::string(SPK_DATA_DIR) +
                                    "/traces/msr_sample.csv");
    ASSERT_EQ(parsed.trace.size(), 64u);

    SsdConfig cfg;
    cfg.geometry.numChannels = 2;
    cfg.geometry.chipsPerChannel = 4;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    const std::uint64_t span =
        cfg.geometry.totalPages() * cfg.geometry.pageSizeBytes / 2;
    for (auto &rec : parsed.trace) {
        rec.offsetBytes %= span;
        rec.sizeBytes =
            std::min<std::uint64_t>(rec.sizeBytes,
                                    span - rec.offsetBytes);
    }

    for (const auto kind : {SchedulerKind::VAS, SchedulerKind::SPK3}) {
        cfg.scheduler = kind;
        Ssd ssd(cfg);
        ssd.replay(parsed.trace);
        ssd.run();
        const auto m = ssd.metrics();
        EXPECT_EQ(m.iosCompleted, 64u) << schedulerKindName(kind);
        EXPECT_GT(m.bandwidthKBps, 0.0);
    }
}

} // namespace
} // namespace spk
