/**
 * @file
 * Unit tests for flash transactions: FLP classification, validity,
 * coalescing rules and timing plans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "flash/transaction.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

MemoryRequest
makeReq(std::uint32_t die, std::uint32_t plane, std::uint32_t page,
        FlashOp op = FlashOp::Read, std::uint32_t chip = 0)
{
    MemoryRequest req;
    req.op = op;
    req.chip = chip;
    req.addr.die = die;
    req.addr.plane = plane;
    req.addr.page = page;
    req.addr.block = plane; // arbitrary distinct blocks
    req.translated = true;
    return req;
}

FlashTiming
timing()
{
    return FlashTiming{};
}

TEST(Transaction, SingleRequestIsNonPal)
{
    auto r = makeReq(0, 0, 0);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&r);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::NonPal);
    EXPECT_EQ(txn.plan(timing(), 2048).cells.size(), 1u); // one die
}

TEST(Transaction, MultiplaneSameDieIsPal1)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 5);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::Pal1);
}

TEST(Transaction, DieInterleaveIsPal2)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(1, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::Pal2);
    EXPECT_EQ(txn.plan(timing(), 2048).cells.size(), 2u); // two dies
}

TEST(Transaction, CombinedIsPal3)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 5);
    auto c = makeReq(1, 0, 7);
    auto d = makeReq(1, 2, 7);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    txn.add(&c);
    txn.add(&d);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::Pal3);
}

/** classify() by its definition: a popcount over every die's plane
 *  set and over the die set. */
FlpClass
popcountClassify(const FlashTransaction &txn)
{
    std::array<std::uint32_t, kMaxDiesPerChip> plane_use{};
    std::uint32_t die_mask = 0;
    for (const auto *req : txn.requests()) {
        plane_use[req->addr.die] |= 1u << req->addr.plane;
        die_mask |= 1u << req->addr.die;
    }
    const bool multi_die = std::popcount(die_mask) > 1;
    const bool multi_plane =
        std::any_of(plane_use.begin(), plane_use.end(),
                    [](std::uint32_t m) { return std::popcount(m) > 1; });
    if (multi_die && multi_plane)
        return FlpClass::Pal3;
    if (multi_die)
        return FlpClass::Pal2;
    if (multi_plane)
        return FlpClass::Pal1;
    return FlpClass::NonPal;
}

TEST(Transaction, ClassifyMatchesPopcountDefinition)
{
    Rng rng(29);
    // A set of 32 indices: one, or a sparse random set; either may
    // hold 31, the top bit.
    const auto index_set = [&rng] {
        std::uint32_t set =
            rng.nextBool(0.4)
                ? 1u << rng.nextBelow(32)
                : static_cast<std::uint32_t>(rng.next() & rng.next() &
                                             rng.next());
        if (rng.nextBool(0.3))
            set |= 1u << 31;
        return set == 0 ? 1u : set;
    };
    std::array<std::uint64_t, 4> per_class{};
    std::uint64_t top_die = 0;
    std::uint64_t top_plane = 0;
    for (int round = 0; round < 4000; ++round) {
        // A valid set: each die it uses holds one page offset across
        // its planes.
        std::vector<MemoryRequest> reqs;
        const std::uint32_t dies = index_set();
        const bool plane_per_die = rng.nextBool(0.3);
        for (std::uint32_t d = 0; d < kMaxDiesPerChip; ++d) {
            if (!(dies >> d & 1u))
                continue;
            const std::uint32_t planes =
                plane_per_die ? 1u << rng.nextBelow(32) : index_set();
            const auto page = static_cast<std::uint32_t>(rng.nextBelow(64));
            for (std::uint32_t p = 0; p < kMaxPlanesPerDie; ++p) {
                if (planes >> p & 1u)
                    reqs.push_back(makeReq(d, p, page));
            }
        }
        for (std::size_t i = reqs.size(); i > 1; --i)
            std::swap(reqs[i - 1], reqs[rng.nextBelow(i)]);

        FlashTransaction txn(FlashOp::Read, 0);
        for (auto &req : reqs) {
            txn.add(&req);
            top_die += req.addr.die == 31;
            top_plane += req.addr.plane == 31;
        }
        ASSERT_TRUE(txn.valid());
        const FlpClass want = popcountClassify(txn);
        ASSERT_EQ(txn.classify(), want) << "round " << round;
        ++per_class[static_cast<std::size_t>(want)];
    }
    for (std::size_t c = 0; c < per_class.size(); ++c)
        EXPECT_GT(per_class[c], 200u) << "class " << c;
    EXPECT_GT(top_die, 0u);
    EXPECT_GT(top_plane, 0u);
}

TEST(Transaction, SamePlaneTwiceIsInvalid)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_FALSE(txn.valid());
}

TEST(Transaction, MultiplaneDifferentPageIsInvalid)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 6); // ONFI multiplane needs same page
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_FALSE(txn.valid());
}

TEST(Transaction, WrongChipOrOpIsInvalid)
{
    auto a = makeReq(0, 0, 5, FlashOp::Read, 1);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    EXPECT_FALSE(txn.valid());

    auto b = makeReq(0, 0, 5, FlashOp::Program, 0);
    FlashTransaction txn2(FlashOp::Read, 0);
    txn2.add(&b);
    EXPECT_FALSE(txn2.valid());
}

TEST(Transaction, CanCoalesceMirrorsValidity)
{
    auto a = makeReq(0, 0, 5);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);

    auto same_plane = makeReq(0, 0, 9);
    EXPECT_FALSE(canCoalesce(txn, same_plane));

    auto diff_page_same_die = makeReq(0, 1, 9);
    EXPECT_FALSE(canCoalesce(txn, diff_page_same_die));

    auto good_plane = makeReq(0, 1, 5);
    EXPECT_TRUE(canCoalesce(txn, good_plane));

    auto other_die = makeReq(1, 3, 11);
    EXPECT_TRUE(canCoalesce(txn, other_die));

    auto wrong_op = makeReq(1, 3, 11, FlashOp::Program);
    EXPECT_FALSE(canCoalesce(txn, wrong_op));
}

TEST(TransactionPlan, ReadHasDataOutPhase)
{
    auto a = makeReq(0, 0, 5);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    const auto plan = txn.plan(timing(), 2048);
    EXPECT_GT(plan.cmdPhase, 0u);
    EXPECT_GT(plan.dataOutPhase, 0u);
    EXPECT_EQ(plan.cells.size(), 1u);
    EXPECT_EQ(plan.cells[0].duration, timing().readLatency);
    EXPECT_EQ(plan.planesTouched, 1u);
}

TEST(TransactionPlan, ProgramMovesDataUpFront)
{
    auto a = makeReq(0, 0, 0, FlashOp::Program);
    FlashTransaction txn(FlashOp::Program, 0);
    txn.add(&a);
    const auto plan = txn.plan(timing(), 2048);
    EXPECT_EQ(plan.dataOutPhase, 0u);
    // cmd phase covers command + page transfer
    EXPECT_GE(plan.cmdPhase,
              timing().commandOverhead + timing().transferTime(2048));
    EXPECT_EQ(plan.cells[0].duration, timing().programFast);
}

TEST(TransactionPlan, SlowPageDominatesMultiplaneProgram)
{
    auto a = makeReq(0, 0, 0, FlashOp::Program); // fast page
    auto b = makeReq(0, 1, 0, FlashOp::Program);
    b.addr.page = 0;
    FlashTransaction txn(FlashOp::Program, 0);
    txn.add(&a);
    txn.add(&b);
    auto plan = txn.plan(timing(), 2048);
    EXPECT_EQ(plan.cells[0].duration, timing().programFast);

    // Same wordline but an odd (slow) page index.
    auto c = makeReq(1, 0, 1, FlashOp::Program);
    auto d = makeReq(1, 1, 1, FlashOp::Program);
    FlashTransaction txn2(FlashOp::Program, 0);
    txn2.add(&c);
    txn2.add(&d);
    plan = txn2.plan(timing(), 2048);
    EXPECT_EQ(plan.cells[0].duration, timing().programSlow);
}

TEST(TransactionPlan, DieInterleaveOverlapsCellPhases)
{
    auto a = makeReq(0, 0, 3);
    auto b = makeReq(1, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    const auto plan = txn.plan(timing(), 2048);
    ASSERT_EQ(plan.cells.size(), 2u);
    // Die 1's commands go out after die 0's, so its cell starts later,
    // but both cells overlap: total << 2 x tR.
    EXPECT_LT(plan.cells[0].start, plan.cells[1].start);
    EXPECT_LT(plan.cellEnd, 2 * timing().readLatency);
    // Interleaved transaction must beat two serial reads.
    const Tick serial = 2 * (timing().commandOverhead +
                             timing().readLatency +
                             timing().transferTime(2048));
    EXPECT_LT(std::max(plan.cmdPhase, plan.cellEnd) + plan.dataOutPhase,
              serial);
}

TEST(TransactionPlan, EraseUsesEraseLatency)
{
    auto a = makeReq(0, 0, 0, FlashOp::Erase);
    FlashTransaction txn(FlashOp::Erase, 0);
    txn.add(&a);
    const auto plan = txn.plan(timing(), 2048);
    EXPECT_EQ(plan.cells[0].duration, timing().eraseLatency);
    EXPECT_EQ(plan.dataOutPhase, 0u);
}

TEST(TransactionPlan, InvalidTransactionDies)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_DEATH(txn.plan(timing(), 2048), "invalid");
}

TEST(Timing, TransferTimeRoundsUp)
{
    FlashTiming t;
    t.busBytesPerSec = 1000; // 1 byte per ms
    EXPECT_EQ(t.transferTime(1), kSecond / 1000);
    EXPECT_EQ(t.transferTime(0), 0u);
}

TEST(Timing, ProgramLatencyAlternatesFastSlow)
{
    FlashTiming t;
    EXPECT_EQ(t.programLatency(0), t.programFast);
    EXPECT_EQ(t.programLatency(1), t.programSlow);
    EXPECT_EQ(t.programLatency(2), t.programFast);
}

} // namespace
} // namespace spk
