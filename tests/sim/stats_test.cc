/**
 * @file
 * Unit tests for BusyTracker.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace spk
{
namespace
{

TEST(BusyTracker, SimpleInterval)
{
    BusyTracker t;
    t.claim(100);
    t.release(150);
    EXPECT_EQ(t.busyTime(200), 50u);
    // Released: later ticks add nothing.
    EXPECT_EQ(t.busyTime(300), 50u);
}

TEST(BusyTracker, OpenIntervalCountsUpToNow)
{
    BusyTracker t;
    t.claim(10);
    EXPECT_EQ(t.busyTime(60), 50u);
    EXPECT_EQ(t.busyTime(70), 60u);
}

TEST(BusyTracker, NestedClaimsMergeIntoOneInterval)
{
    BusyTracker t;
    t.claim(0);
    t.claim(10);
    t.release(20);
    // One claim is still open: busy time keeps growing.
    EXPECT_EQ(t.busyTime(30), 30u);
    t.release(50);
    EXPECT_EQ(t.busyTime(100), 50u);
}

TEST(BusyTracker, ReleaseWithoutClaimDies)
{
    BusyTracker t;
    EXPECT_DEATH(t.release(10), "without matching claim");
}

} // namespace
} // namespace spk
