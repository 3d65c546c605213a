/**
 * @file
 * Unit tests for the MSR-format trace parser.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "workload/trace_parser.hh"

namespace spk
{
namespace
{

TEST(TraceParser, ParsesWellFormedLine)
{
    TraceRecord rec;
    ASSERT_TRUE(parseMsrLine(
        "128166372003061629,hm,1,Read,383496192,32768,2126", rec));
    EXPECT_FALSE(rec.isWrite);
    EXPECT_EQ(rec.offsetBytes, 383496192u);
    EXPECT_EQ(rec.sizeBytes, 32768u);
    EXPECT_EQ(rec.arrival, 128166372003061629ull * 100);
}

TEST(TraceParser, ParsesWriteTypes)
{
    TraceRecord rec;
    EXPECT_TRUE(parseMsrLine("1,h,0,Write,0,4096,1", rec));
    EXPECT_TRUE(rec.isWrite);
    EXPECT_TRUE(parseMsrLine("1,h,0,write,0,4096,1", rec));
    EXPECT_TRUE(rec.isWrite);
    EXPECT_TRUE(parseMsrLine("1,h,0,W,0,4096,1", rec));
    EXPECT_TRUE(rec.isWrite);
}

TEST(TraceParser, RejectsMalformedLines)
{
    TraceRecord rec;
    EXPECT_FALSE(parseMsrLine("", rec));
    EXPECT_FALSE(parseMsrLine("# comment", rec));
    EXPECT_FALSE(parseMsrLine("notanumber,h,0,Read,0,4096,1", rec));
    EXPECT_FALSE(parseMsrLine("1,h,0,Frobnicate,0,4096,1", rec));
    EXPECT_FALSE(parseMsrLine("1,h,0,Read,0,0,1", rec)); // zero size
    EXPECT_FALSE(parseMsrLine("1,h,0,Read", rec));       // short line
}

TEST(TraceParser, StreamRebasesTimestamps)
{
    std::istringstream in(
        "1000,h,0,Read,0,4096,1\n"
        "1010,h,0,Write,8192,4096,1\n"
        "bogus line\n"
        "1020,h,0,Read,16384,4096,1\n");
    const auto result = parseMsrTrace(in);
    ASSERT_EQ(result.trace.size(), 3u);
    EXPECT_EQ(result.skippedLines, 1u);
    EXPECT_EQ(result.trace[0].arrival, 0u);
    EXPECT_EQ(result.trace[1].arrival, 1000u); // (1010-1000)*100ns
    EXPECT_EQ(result.trace[2].arrival, 2000u);
}

TEST(TraceParser, HandlesCrLf)
{
    std::istringstream in("1000,h,0,Read,0,4096,1\r\n");
    const auto result = parseMsrTrace(in);
    EXPECT_EQ(result.trace.size(), 1u);
    EXPECT_EQ(result.skippedLines, 0u);
}

TEST(TraceParser, ParsesCheckedInSampleTrace)
{
    // data/traces/msr_sample.csv is the repo's canonical non-synthetic
    // workload fixture: 64 records plus two comment lines.
    const auto result = parseMsrTraceFile(
        std::string(SPK_DATA_DIR) + "/traces/msr_sample.csv");
    EXPECT_EQ(result.skippedLines, 2u); // the two '#' header lines
    ASSERT_EQ(result.trace.size(), 64u);
    EXPECT_EQ(result.trace.front().arrival, 0u); // rebased

    const auto s = summarize(result.trace);
    EXPECT_EQ(s.readCount + s.writeCount, 64u);
    EXPECT_GT(s.readCount, 0u);
    EXPECT_GT(s.writeCount, 0u);
    Tick prev = 0;
    for (const auto &rec : result.trace) {
        EXPECT_GE(rec.arrival, prev); // timestamps monotonic
        prev = rec.arrival;
        EXPECT_GT(rec.sizeBytes, 0u);
    }
}

TEST(TraceParser, MissingFileDies)
{
    EXPECT_DEATH((void)parseMsrTraceFile("/nonexistent/trace.csv"),
                 "cannot open");
}

TEST(TraceSummary, CountsDirectionsAndRandomness)
{
    Trace trace{
        {0, false, false, 0, 4096},     // read, random (first)
        {1, false, false, 4096, 4096},  // read, sequential
        {2, false, false, 100000, 4096}, // read, random
        {3, true, false, 0, 8192},      // write, random (first)
        {4, true, false, 8192, 8192},   // write, sequential
    };
    const auto s = summarize(trace);
    EXPECT_EQ(s.readCount, 3u);
    EXPECT_EQ(s.writeCount, 2u);
    EXPECT_EQ(s.readBytes, 3u * 4096);
    EXPECT_EQ(s.writeBytes, 2u * 8192);
    EXPECT_NEAR(s.readRandomness, 100.0 * 2 / 3, 0.01);
    EXPECT_NEAR(s.writeRandomness, 50.0, 0.01);
    EXPECT_NEAR(s.readFraction(), 0.6, 1e-9);
}

} // namespace
} // namespace spk
