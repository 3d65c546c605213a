/**
 * @file
 * Property tests for transaction timing plans across the full
 * (operation x die-count x plane-count) grid: monotonicity,
 * conservation and FLP-benefit invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "flash/transaction.hh"

namespace spk
{
namespace
{

struct PlanCase
{
    FlashOp op;
    std::uint32_t dies;
    std::uint32_t planesPerDie;
};

class PlanSweep : public ::testing::TestWithParam<PlanCase>
{
  protected:
    /** The keys of a valid transaction touching dies x planes slots. */
    static CoalesceKeys
    build(const PlanCase &pc)
    {
        CoalesceKeys keys;
        for (std::uint32_t d = 0; d < pc.dies; ++d) {
            for (std::uint32_t p = 0; p < pc.planesPerDie; ++p) {
                // Same page within each die.
                keys.push_back(CoalesceKey{d, static_cast<std::uint8_t>(d),
                                           static_cast<std::uint8_t>(p),
                                           pc.op, false});
            }
        }
        return keys;
    }

    /** planTransaction() of @p keys under timing_ into @p out. */
    FlpClass
    plan(const CoalesceKeys &keys, TransactionPlan &out) const
    {
        return planTransaction(keys, timing_,
                               timing_.transferTime(kPageBytes), out);
    }

    FlashTiming timing_{};
    static constexpr std::uint32_t kPageBytes = 2048;
};

/** Plan length when the data-out channel grant is immediate. */
Tick
planLength(const TransactionPlan &plan)
{
    return std::max(plan.cmdPhase, plan.cellEnd) + plan.dataOutPhase;
}

TEST_P(PlanSweep, ValidAndClassified)
{
    const auto pc = GetParam();
    TransactionPlan out;
    const FlpClass cls = plan(build(pc), out);
    if (pc.dies > 1 && pc.planesPerDie > 1)
        EXPECT_EQ(cls, FlpClass::Pal3);
    else if (pc.dies > 1)
        EXPECT_EQ(cls, FlpClass::Pal2);
    else if (pc.planesPerDie > 1)
        EXPECT_EQ(cls, FlpClass::Pal1);
    else
        EXPECT_EQ(cls, FlpClass::NonPal);
}

TEST_P(PlanSweep, PlanConservation)
{
    const auto pc = GetParam();
    const CoalesceKeys keys = build(pc);
    TransactionPlan out;
    plan(keys, out);

    // One cell phase per die; plane mask covers every request.
    EXPECT_EQ(out.cells.size(), pc.dies);
    EXPECT_EQ(out.planesTouched, pc.dies * pc.planesPerDie);

    // Command phase covers at least one command per request, plus
    // data-in for programs.
    Tick floor = keys.size() * timing_.commandOverhead;
    if (pc.op == FlashOp::Program)
        floor += keys.size() * timing_.transferTime(kPageBytes);
    EXPECT_GE(out.cmdPhase, floor);

    // Cells start only after their commands and end within the plan.
    for (const auto &cell : out.cells) {
        EXPECT_LE(cell.start, out.cmdPhase);
        EXPECT_LE(cell.start + cell.duration, out.cellEnd);
        EXPECT_GT(cell.duration, 0u);
    }
    EXPECT_GE(planLength(out), out.cellEnd);

    if (pc.op == FlashOp::Read) {
        EXPECT_EQ(out.dataOutPhase,
                  keys.size() * (timing_.commandOverhead +
                                 timing_.transferTime(kPageBytes)));
    } else {
        EXPECT_EQ(out.dataOutPhase, 0u);
    }
}

TEST_P(PlanSweep, CoalescingBeatsSerialExecution)
{
    const auto pc = GetParam();
    if (pc.dies * pc.planesPerDie < 2)
        GTEST_SKIP() << "needs at least two requests";

    const CoalesceKeys keys = build(pc);
    TransactionPlan out;
    plan(keys, out);

    // Serial execution: each request as its own transaction.
    Tick serial = 0;
    for (const CoalesceKey &key : keys) {
        CoalesceKeys single;
        single.push_back(key);
        TransactionPlan alone;
        plan(single, alone);
        serial += planLength(alone);
    }
    EXPECT_LT(planLength(out), serial)
        << "coalesced transaction must beat serial execution";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanSweep,
    ::testing::Values(PlanCase{FlashOp::Read, 1, 1},
                      PlanCase{FlashOp::Read, 1, 4},
                      PlanCase{FlashOp::Read, 2, 1},
                      PlanCase{FlashOp::Read, 2, 4},
                      PlanCase{FlashOp::Program, 1, 1},
                      PlanCase{FlashOp::Program, 1, 4},
                      PlanCase{FlashOp::Program, 2, 1},
                      PlanCase{FlashOp::Program, 2, 4},
                      PlanCase{FlashOp::Program, 2, 2},
                      PlanCase{FlashOp::Read, 2, 2}));

TEST(TimingProperties, ReadLatencyDominatedByCellForSmallPages)
{
    FlashTiming t;
    MemoryRequest req;
    req.op = FlashOp::Read;
    req.translated = true;
    CoalesceKeys keys;
    keys.push_back(CoalesceKey::of(req));
    TransactionPlan plan;
    planTransaction(keys, t, t.transferTime(2048), plan);
    EXPECT_GT(t.readLatency, plan.cmdPhase);
}

TEST(TimingProperties, FasterBusShortensTransfers)
{
    FlashTiming slow;
    slow.busBytesPerSec = 50'000'000;
    FlashTiming fast;
    fast.busBytesPerSec = 400'000'000;
    EXPECT_GT(slow.transferTime(2048), fast.transferTime(2048));
}

TEST(TimingProperties, TransferTimeAdditive)
{
    FlashTiming t;
    // Rounding may add at most 1 ns per call.
    const Tick two = t.transferTime(4096);
    const Tick one = t.transferTime(2048);
    EXPECT_NEAR(static_cast<double>(two),
                2.0 * static_cast<double>(one), 2.0);
}

} // namespace
} // namespace spk
