/**
 * @file
 * Unit tests for channel bus arbitration.
 */

#include <gtest/gtest.h>

#include "controller/channel.hh"

namespace spk
{
namespace
{

/** Book one command phase at event time @p earliest (no data-out). */
Tick
bookPhase(Channel &ch, Tick earliest, Tick duration)
{
    return ch.acquirePlan(earliest, duration, 0, 0).cmdStart;
}

TEST(Channel, FirstAcquireGrantsImmediately)
{
    Channel ch(0);
    EXPECT_EQ(bookPhase(ch, 100, 50), 100u);
    EXPECT_EQ(ch.busyUntil(), 150u);
    EXPECT_EQ(ch.stats().contentionTime, 0u);
    EXPECT_EQ(ch.stats().busHeldTime, 50u);
}

TEST(Channel, OverlappingAcquireWaits)
{
    Channel ch(0);
    bookPhase(ch, 0, 100);
    const Tick grant = bookPhase(ch, 30, 10);
    EXPECT_EQ(grant, 100u);
    EXPECT_EQ(ch.stats().contentionTime, 70u);
    EXPECT_EQ(ch.busyUntil(), 110u);
}

TEST(Channel, DisjointAcquiresNoContention)
{
    Channel ch(0);
    bookPhase(ch, 0, 10);
    bookPhase(ch, 50, 10);
    EXPECT_EQ(ch.stats().contentionTime, 0u);
    EXPECT_EQ(ch.stats().busHeldTime, 20u);
}

TEST(Channel, BackToBackReservationsChain)
{
    Channel ch(0);
    const Tick g1 = bookPhase(ch, 0, 10);
    const Tick g2 = bookPhase(ch, 0, 10);
    const Tick g3 = bookPhase(ch, 0, 10);
    EXPECT_EQ(g1, 0u);
    EXPECT_EQ(g2, 10u);
    EXPECT_EQ(g3, 20u);
}

TEST(Channel, ZeroDurationAcquireIsNoop)
{
    Channel ch(1);
    EXPECT_EQ(bookPhase(ch, 5, 0), 5u);
    EXPECT_EQ(ch.busyUntil(), 5u);
    EXPECT_EQ(ch.index(), 1u);
}

TEST(Channel, AcquirePlanReservesBothPhases)
{
    Channel ch(0);
    const ChannelGrant g = ch.acquirePlan(0, 10, 100, 20);
    EXPECT_EQ(g.cmdStart, 0u);
    EXPECT_EQ(g.dataOutStart, 100u); // no earlier than cells done
    EXPECT_EQ(ch.stats().busHeldTime, 30u);
    EXPECT_EQ(ch.stats().contentionTime, 0u);
    EXPECT_EQ(ch.busyUntil(), 120u);
}

TEST(Channel, CommandPhaseFirstFitsIntoCellLatencyGap)
{
    Channel ch(0);
    ch.acquirePlan(0, 10, 100, 20); // books [0,10) and [100,120)
    // Channel pipelining: another chip's command phase lands inside
    // the cell-latency gap without waiting for the data-out slot.
    EXPECT_EQ(bookPhase(ch, 15, 30), 15u);
    EXPECT_EQ(ch.stats().contentionTime, 0u);
    // A phase that cannot fit before the booked data-out slides past.
    EXPECT_EQ(bookPhase(ch, 90, 20), 120u);
    EXPECT_EQ(ch.stats().contentionTime, 30u);
}

TEST(Channel, DataOutWaitsBehindExistingTraffic)
{
    Channel ch(0);
    bookPhase(ch, 0, 50);
    const ChannelGrant g = ch.acquirePlan(0, 10, 20, 5);
    EXPECT_EQ(g.cmdStart, 50u); // behind the in-flight phase
    // Cells end at 70, after every booking: data-out is immediate.
    EXPECT_EQ(g.dataOutStart, 70u);
    EXPECT_EQ(ch.busyUntil(), 75u);
}

TEST(Channel, PlanWithoutDataOutIsPlainAcquire)
{
    Channel ch(0);
    const ChannelGrant g = ch.acquirePlan(7, 10, 1000, 0);
    EXPECT_EQ(g.cmdStart, 7u);
    EXPECT_EQ(g.dataOutStart, 0u);
    EXPECT_EQ(ch.stats().busHeldTime, 10u);
    EXPECT_EQ(ch.busyUntil(), 17u);
}

TEST(Channel, ExpiredReservationsRetireButFutureOnesHold)
{
    Channel ch(0);
    ch.acquirePlan(0, 10, 100, 20); // [0,10) and [100,120)
    // Event time has moved past the command phase; the far data-out
    // booking must still deflect this overlapping request.
    EXPECT_EQ(bookPhase(ch, 95, 10), 120u);
    // A short phase still first-fits into the remaining pre-data-out
    // gap ([95, 100) is exactly five ticks wide).
    EXPECT_EQ(bookPhase(ch, 95, 5), 95u);
    EXPECT_EQ(ch.busyUntil(), 130u);
}

} // namespace
} // namespace spk
