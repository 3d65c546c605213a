/**
 * @file
 * Unit tests for FlashChip occupancy accounting.
 */

#include <gtest/gtest.h>

#include "flash/chip.hh"

namespace spk
{
namespace
{

FlashGeometry
geo()
{
    FlashGeometry g;
    g.diesPerChip = 2;
    g.planesPerDie = 4;
    return g;
}

TransactionPlan
singlePlanePlan(Tick cell = 20000)
{
    TransactionPlan plan;
    plan.cmdPhase = 200;
    plan.cells.push_back(CellPhase{0, 0b0001, 1, 200, cell});
    plan.cellEnd = 200 + cell;
    plan.planesTouched = 1;
    return plan;
}

TEST(FlashChip, StartsIdle)
{
    FlashChip chip(3, geo());
    EXPECT_EQ(chip.index(), 3u);
    EXPECT_FALSE(chip.busy());
    EXPECT_TRUE(chip.readyAt(0));
    EXPECT_EQ(chip.planesPerChip(), 8u);
}

TEST(FlashChip, TransactionMakesBusyUntilEnd)
{
    FlashChip chip(0, geo());
    chip.beginTransaction(100, 500, singlePlanePlan(), FlpClass::NonPal,
                          1);
    EXPECT_TRUE(chip.busy());
    EXPECT_EQ(chip.busyUntil(), 500u);
    EXPECT_FALSE(chip.readyAt(400));
    EXPECT_TRUE(chip.readyAt(500));
}

TEST(FlashChip, AccountsBusyAndCellTime)
{
    FlashChip chip(0, geo());
    chip.beginTransaction(0, 1000, singlePlanePlan(800), FlpClass::NonPal,
                          1);
    const auto &s = chip.stats();
    EXPECT_EQ(s.busyTime, 1000u);
    EXPECT_EQ(s.cellTime, 800u);
    EXPECT_EQ(s.planeActiveTime, 800u);
    EXPECT_EQ(s.transactions, 1u);
}

TEST(FlashChip, PlaneActiveScalesWithMask)
{
    FlashChip chip(0, geo());
    TransactionPlan plan;
    plan.cmdPhase = 100;
    plan.cells.push_back(CellPhase{0, 0b1111, 4, 100, 1000}); // 4 planes
    plan.cells.push_back(CellPhase{1, 0b0011, 2, 200, 1000}); // 2 planes
    plan.cellEnd = 1200;
    plan.planesTouched = 6;
    chip.beginTransaction(0, 1300, plan, FlpClass::Pal3, 6);
    EXPECT_EQ(chip.stats().planeActiveTime, 4000u + 2000u);
    EXPECT_EQ(chip.stats().reqPerClass[3], 6u);
}

TEST(FlashChip, OverlappingTransactionDies)
{
    FlashChip chip(0, geo());
    chip.beginTransaction(0, 1000, singlePlanePlan(), FlpClass::NonPal,
                          1);
    EXPECT_DEATH(chip.beginTransaction(500, 1500, singlePlanePlan(),
                                       FlpClass::NonPal, 1),
                 "busy");
}

TEST(FlashChip, BackToBackTransactionsAllowed)
{
    FlashChip chip(0, geo());
    chip.beginTransaction(0, 1000, singlePlanePlan(), FlpClass::NonPal,
                          1);
    chip.beginTransaction(1000, 2000, singlePlanePlan(),
                          FlpClass::NonPal, 1);
    EXPECT_EQ(chip.stats().transactions, 2u);
    EXPECT_EQ(chip.stats().busyTime, 2000u);
}

TEST(FlashChip, ClassCountersTrackRequests)
{
    FlashChip chip(0, geo());
    chip.beginTransaction(0, 100, singlePlanePlan(50), FlpClass::Pal1, 3);
    chip.beginTransaction(100, 200, singlePlanePlan(50), FlpClass::Pal1,
                          2);
    EXPECT_EQ(chip.stats().transactions, 2u);
    EXPECT_EQ(chip.stats().reqPerClass[1], 5u);
    EXPECT_EQ(chip.stats().requestsServed, 5u);
}

} // namespace
} // namespace spk
