/**
 * @file
 * Unit tests for flash transactions: the coalescing rule, and the key
 * planner (FLP class, ONFI check, timing plan) checked against the
 * request-walking planner it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "flash/fault_model.hh"
#include "flash/transaction.hh"
#include "sim/rng.hh"
#include "tests/flash/transaction_oracle.hh"

namespace spk
{
namespace
{

using test::canCoalesce;
using test::FlashTransaction;

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

/**
 * FlashTransaction's classify(), valid() and plan() as a launch ran
 * them before planTransaction(): the planner's oracle. The bodies are
 * verbatim but for `CellPhase cell{}` in plan(), since CellPhase no
 * longer zeroes its members; the oracle leaves CellPhase::requests 0.
 */
class ReferenceTransaction
{
  public:
    ReferenceTransaction(FlashOp op, std::uint32_t chip)
        : op_(op), chip_(chip)
    {}

    void add(MemoryRequest *req) { requests_.push_back(req); }

    const FlashTransaction::RequestSet &requests() const
    {
        return requests_;
    }

    FlpClass classify() const;
    bool valid() const;
    TransactionPlan plan(const FlashTiming &timing,
                         std::uint32_t page_bytes) const;

  private:
    FlashOp op_;
    std::uint32_t chip_;
    FlashTransaction::RequestSet requests_;
};

FlpClass
ReferenceTransaction::classify() const
{
    // plane_use[d] = set of planes addressed in die d; die_mask = set
    // of dies addressed. Fixed-size: die indices are bounded by
    // kMaxDiesPerChip (geometry validate()). A set m has two or more
    // members exactly when m & (m - 1) != 0, tested on each die's set
    // as it grows, so only the dies in use are touched (std::popcount
    // is an out-of-line libgcc call without -mpopcnt).
    std::array<std::uint32_t, kMaxDiesPerChip> plane_use{};
    std::uint32_t die_mask = 0;
    bool multi_plane = false;
    for (const auto *req : requests_) {
        const std::uint32_t planes =
            plane_use[req->addr.die] |= 1u << req->addr.plane;
        multi_plane = multi_plane || (planes & (planes - 1)) != 0;
        die_mask |= 1u << req->addr.die;
    }
    const bool multi_die = (die_mask & (die_mask - 1)) != 0;

    if (multi_die && multi_plane)
        return FlpClass::Pal3;
    if (multi_die)
        return FlpClass::Pal2;
    if (multi_plane)
        return FlpClass::Pal1;
    return FlpClass::NonPal;
}

bool
ReferenceTransaction::valid() const
{
    if (requests_.empty())
        return false;

    // (die, plane) uniqueness and the same-page multiplane rule.
    std::array<std::uint32_t, kMaxDiesPerChip> plane_use{};
    std::array<std::uint32_t, kMaxDiesPerChip> die_page{};
    for (const auto *req : requests_) {
        if (!req->translated || req->chip != chip_ || req->op != op_)
            return false;
        if (req->addr.die >= kMaxDiesPerChip ||
            req->addr.plane >= kMaxPlanesPerDie) {
            return false;
        }
        const std::uint32_t plane_bit = 1u << req->addr.plane;
        auto &mask = plane_use[req->addr.die];
        if (mask & plane_bit)
            return false; // two requests on one plane
        if (mask != 0 && die_page[req->addr.die] != req->addr.page)
            return false; // multiplane requires identical page offset
        mask |= plane_bit;
        die_page[req->addr.die] = req->addr.page;
    }
    return true;
}

TransactionPlan
ReferenceTransaction::plan(const FlashTiming &timing,
                           std::uint32_t page_bytes) const
{
    if (!valid())
        panic("FlashTransaction::plan on invalid transaction");

    TransactionPlan out;

    // Dies in insertion order of their first request; requests stay in
    // insertion order within each die (filtered scan below).
    StaticVec<std::uint32_t, kMaxDiesPerChip> die_order;
    std::uint32_t seen_mask = 0;
    for (const auto *req : requests_) {
        const std::uint32_t bit = 1u << req->addr.die;
        if (!(seen_mask & bit)) {
            seen_mask |= bit;
            die_order.push_back(req->addr.die);
        }
    }

    // Phase 1: one channel hold covering commands/addresses for every
    // request, plus data-in for programs. Each die's cell phase starts
    // as soon as its own commands finish (die interleaving).
    Tick cursor = 0;
    std::uint32_t planes_touched = 0;
    for (const auto die : die_order) {
        CellPhase cell{};
        cell.die = die;
        Tick cell_duration = 0;
        for (const auto *req : requests_) {
            if (req->addr.die != die)
                continue;
            cursor += timing.commandOverhead;
            if (op_ == FlashOp::Program) {
                cursor += timing.transferTime(page_bytes);
                cell_duration = std::max(
                    cell_duration, timing.programLatency(req->addr.page));
            }
            cell.planeMask |= 1u << req->addr.plane;
        }
        cell.start = cursor;
        planes_touched +=
            static_cast<std::uint32_t>(std::popcount(cell.planeMask));

        switch (op_) {
          case FlashOp::Read:
            cell.duration = timing.readLatency;
            break;
          case FlashOp::Program:
            // Multiplane program completes when the slowest page does.
            cell.duration = cell_duration;
            break;
          case FlashOp::Erase:
            cell.duration = timing.eraseLatency;
            break;
        }
        out.cells.push_back(cell);
    }

    out.cmdPhase = cursor;
    out.planesTouched = planes_touched;
    for (const auto &cell : out.cells)
        out.cellEnd = std::max(out.cellEnd, cell.start + cell.duration);

    // Phase 2 (reads only): one channel hold streaming every page out.
    if (op_ == FlashOp::Read) {
        out.dataOutPhase = 0;
        for (std::size_t i = 0; i < requests_.size(); ++i) {
            out.dataOutPhase +=
                timing.commandOverhead + timing.transferTime(page_bytes);
        }
    }

    return out;
}

/** planTransaction()'s plan and class. */
struct Planned
{
    TransactionPlan plan;
    FlpClass flp;
};

/** Plan @p reqs, in order, as a launch does: by their keys. */
Planned
planOf(const std::vector<const MemoryRequest *> &reqs,
       const FlashTiming &t = timing(), std::uint32_t page_bytes = 2048)
{
    CoalesceKeys keys;
    for (const auto *req : reqs)
        keys.push_back(CoalesceKey::of(*req));
    Planned out;
    out.flp = planTransaction(keys, t, t.transferTime(page_bytes),
                              out.plan);
    return out;
}

TEST(Transaction, SingleRequestIsNonPal)
{
    auto r = makeReq(0, 0, 0);
    const Planned p = planOf({&r});
    EXPECT_EQ(p.flp, FlpClass::NonPal);
    EXPECT_EQ(p.plan.cells.size(), 1u); // one die
}

TEST(Transaction, MultiplaneSameDieIsPal1)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 5);
    EXPECT_EQ(planOf({&a, &b}).flp, FlpClass::Pal1);
}

TEST(Transaction, DieInterleaveIsPal2)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(1, 0, 9);
    const Planned p = planOf({&a, &b});
    EXPECT_EQ(p.flp, FlpClass::Pal2);
    EXPECT_EQ(p.plan.cells.size(), 2u); // two dies
}

TEST(Transaction, CombinedIsPal3)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 5);
    auto c = makeReq(1, 0, 7);
    auto d = makeReq(1, 2, 7);
    EXPECT_EQ(planOf({&a, &b, &c, &d}).flp, FlpClass::Pal3);
}

/** The FLP class by its definition: a popcount over every die's plane
 *  set and over the die set. */
FlpClass
popcountClassify(const std::vector<const MemoryRequest *> &reqs)
{
    std::array<std::uint32_t, kMaxDiesPerChip> plane_use{};
    std::uint32_t die_mask = 0;
    for (const auto *req : reqs) {
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

        std::vector<const MemoryRequest *> set;
        for (const auto &req : reqs) {
            set.push_back(&req);
            top_die += req.addr.die == 31;
            top_plane += req.addr.plane == 31;
        }
        const FlpClass want = popcountClassify(set);
        ASSERT_EQ(planOf(set).flp, want) << "round " << round;
        ++per_class[static_cast<std::size_t>(want)];
    }
    for (std::size_t c = 0; c < per_class.size(); ++c)
        EXPECT_GT(per_class[c], 200u) << "class " << c;
    EXPECT_GT(top_die, 0u);
    EXPECT_GT(top_plane, 0u);
}

/**
 * Plan @p reqs, in order, with the oracle and with the planner, check
 * that every plan member and the class match, and set @p flp to the
 * class.
 */
void
expectPlannerMatches(std::vector<MemoryRequest> &reqs, FlashOp op,
                     const FlashTiming &t, std::uint32_t page_bytes,
                     FlpClass &flp)
{
    ReferenceTransaction ref(op, 0);
    std::vector<const MemoryRequest *> set;
    for (auto &req : reqs) {
        ref.add(&req);
        set.push_back(&req);
    }
    ASSERT_TRUE(ref.valid());
    const TransactionPlan want = ref.plan(t, page_bytes);
    const Planned got = planOf(set, t, page_bytes);

    flp = got.flp;
    ASSERT_EQ(got.flp, ref.classify());
    ASSERT_EQ(got.plan.cmdPhase, want.cmdPhase);
    ASSERT_EQ(got.plan.cellEnd, want.cellEnd);
    ASSERT_EQ(got.plan.dataOutPhase, want.dataOutPhase);
    ASSERT_EQ(got.plan.planesTouched, want.planesTouched);
    ASSERT_EQ(got.plan.cells.size(), want.cells.size());
    for (std::size_t i = 0; i < want.cells.size(); ++i) {
        const CellPhase &g = got.plan.cells[i];
        const CellPhase &w = want.cells[i];
        ASSERT_EQ(g.die, w.die) << "cell " << i;
        ASSERT_EQ(g.planeMask, w.planeMask) << "cell " << i;
        ASSERT_EQ(g.requests,
                  static_cast<std::uint32_t>(std::popcount(w.planeMask)))
            << "cell " << i;
        ASSERT_EQ(g.start, w.start) << "cell " << i;
        ASSERT_EQ(g.duration, w.duration) << "cell " << i;
    }
}

/**
 * The planner against the oracle on random valid sets: 1-32 dies x
 * 1-32 planes, each used die one page offset across a random set of
 * its planes (one plane, or every plane of every die, in some rounds),
 * in random order. Reads (a fifth of them a retried seed's solo read at
 * its escalated sense latency), programs on fast and slow pages, and
 * erases; random timings and page sizes, so the transfer time rounds.
 */
TEST(Transaction, PlannerMatchesReference)
{
    Rng rng(4242);
    const FaultModel faults(FaultConfig{}, 1, FlashGeometry{});
    std::array<std::uint64_t, 4> per_class{};
    std::array<std::uint64_t, kFlashOps> per_op{};
    std::uint64_t retried = 0;
    std::uint64_t slow_pages = 0;
    std::size_t largest = 0;
    for (int round = 0; round < 3000; ++round) {
        SCOPED_TRACE(round);
        const auto dies = static_cast<std::uint32_t>(1 + rng.nextBelow(32));
        const auto planes =
            static_cast<std::uint32_t>(1 + rng.nextBelow(32));
        const auto draw = rng.nextBelow(10);
        const FlashOp op = draw < 5   ? FlashOp::Read
                           : draw < 8 ? FlashOp::Program
                                      : FlashOp::Erase;
        const bool retry = op == FlashOp::Read && rng.nextBool(0.2);

        FlashTiming t;
        t.readLatency = (5 + rng.nextBelow(60)) * kMicrosecond;
        t.programFast = (100 + rng.nextBelow(400)) * kMicrosecond;
        t.programSlow =
            t.programFast + rng.nextBelow(3000) * kMicrosecond;
        t.eraseLatency = (500 + rng.nextBelow(3000)) * kMicrosecond;
        t.busBytesPerSec = 50'000'000 + rng.nextBelow(1'000'000'000);
        t.commandOverhead = (50 + rng.nextBelow(500)) * kNanosecond;
        if (retry) {
            t.readLatency = faults.senseLatency(
                static_cast<std::uint32_t>(1 + rng.nextBelow(6)),
                t.readLatency);
        }
        const auto page_bytes =
            static_cast<std::uint32_t>(512u << rng.nextBelow(6));

        const bool full = rng.nextBool(0.05);
        const bool plane_per_die = !full && rng.nextBool(0.2);
        const double die_share = full ? 1.0 : rng.nextDouble();
        const double plane_share = full ? 1.0 : rng.nextDouble();
        std::vector<MemoryRequest> reqs;
        for (std::uint32_t d = 0; d < dies && !retry; ++d) {
            if (!rng.nextBool(die_share))
                continue;
            const auto page =
                static_cast<std::uint32_t>(rng.nextBelow(256));
            if (plane_per_die) {
                reqs.push_back(makeReq(
                    d, static_cast<std::uint32_t>(rng.nextBelow(planes)),
                    page, op));
                continue;
            }
            for (std::uint32_t p = 0; p < planes; ++p) {
                if (rng.nextBool(plane_share))
                    reqs.push_back(makeReq(d, p, page, op));
            }
        }
        if (reqs.empty()) {
            reqs.push_back(makeReq(
                static_cast<std::uint32_t>(rng.nextBelow(dies)),
                static_cast<std::uint32_t>(rng.nextBelow(planes)),
                static_cast<std::uint32_t>(rng.nextBelow(256)), op));
        }
        for (std::size_t i = reqs.size(); i > 1; --i)
            std::swap(reqs[i - 1], reqs[rng.nextBelow(i)]);

        FlpClass flp;
        expectPlannerMatches(reqs, op, t, page_bytes, flp);
        if (testing::Test::HasFatalFailure())
            return;
        for (const auto &req : reqs)
            slow_pages += op == FlashOp::Program && req.addr.page % 2;
        ++per_class[static_cast<std::size_t>(flp)];
        ++per_op[static_cast<std::size_t>(op)];
        retried += retry;
        largest = std::max(largest, reqs.size());
    }
    // The draw reaches every class, op and path.
    for (std::size_t c = 0; c < per_class.size(); ++c)
        EXPECT_GT(per_class[c], 100u) << "class " << c;
    for (std::size_t o = 0; o < per_op.size(); ++o)
        EXPECT_GT(per_op[o], 300u) << "op " << o;
    EXPECT_GT(retried, 100u);
    EXPECT_GT(slow_pages, 1000u);
    EXPECT_GT(largest, 256u);
}

/** Every plane of every die of the largest chip, in each op. */
TEST(Transaction, PlannerMatchesReferenceOnFullChip)
{
    for (const FlashOp op :
         {FlashOp::Read, FlashOp::Program, FlashOp::Erase}) {
        std::vector<MemoryRequest> reqs;
        for (std::uint32_t d = 0; d < kMaxDiesPerChip; ++d) {
            for (std::uint32_t p = 0; p < kMaxPlanesPerDie; ++p)
                reqs.push_back(makeReq(d, p, d, op));
        }
        FlpClass flp;
        expectPlannerMatches(reqs, op, timing(), 4096, flp);
        EXPECT_EQ(flp, FlpClass::Pal3);
    }
}

TEST(Transaction, SamePlaneTwiceIsInvalid)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 0, 9);
    ReferenceTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_FALSE(txn.valid());
    EXPECT_DEATH(planOf({&a, &b}), "two requests on one plane");
}

TEST(Transaction, MultiplaneDifferentPageIsInvalid)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 6); // ONFI multiplane needs same page
    ReferenceTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_FALSE(txn.valid());
    EXPECT_DEATH(planOf({&a, &b}), "two page offsets on one die");
}

TEST(Transaction, WrongChipOrOpIsInvalid)
{
    // A key holds no chip: FlashController::commit rejects a request
    // for another chip (FlashController.CommitForAnotherChipDies).
    auto a = makeReq(0, 0, 5, FlashOp::Read, 1);
    ReferenceTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    EXPECT_FALSE(txn.valid());

    auto b = makeReq(0, 0, 5, FlashOp::Program, 0);
    ReferenceTransaction txn2(FlashOp::Read, 0);
    txn2.add(&b);
    EXPECT_FALSE(txn2.valid());
    auto c = makeReq(1, 0, 5, FlashOp::Read, 0);
    EXPECT_DEATH(planOf({&c, &b}), "mixed operations");
}

/** Keys straight from a scan, no request behind them: two requests on
 *  one (die, plane), and two page offsets on one die, each after a
 *  valid prefix on another die. */
TEST(Transaction, PlannerRejectsKeysBreakingOnfiRule)
{
    const auto key = [](std::uint8_t die, std::uint8_t plane,
                        std::uint32_t page) {
        return CoalesceKey{page, die, plane, FlashOp::Program, false};
    };
    TransactionPlan plan;
    CoalesceKeys one_plane;
    for (const CoalesceKey &k :
         {key(3, 0, 8), key(1, 2, 4), key(1, 5, 4), key(1, 2, 4)})
        one_plane.push_back(k);
    EXPECT_DEATH(planTransaction(one_plane, timing(), 1, plan),
                 "two requests on one plane");

    CoalesceKeys two_pages;
    for (const CoalesceKey &k :
         {key(3, 0, 8), key(1, 2, 4), key(1, 5, 4), key(1, 6, 5)})
        two_pages.push_back(k);
    EXPECT_DEATH(planTransaction(two_pages, timing(), 1, plan),
                 "two page offsets on one die");

    CoalesceKeys out_of_range;
    out_of_range.push_back(key(kMaxDiesPerChip, 0, 0));
    EXPECT_DEATH(planTransaction(out_of_range, timing(), 1, plan),
                 "out of range");
    EXPECT_DEATH(planTransaction(CoalesceKeys{}, timing(), 1, plan),
                 "no requests");
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
    const auto plan = planOf({&a}).plan;
    EXPECT_GT(plan.cmdPhase, 0u);
    EXPECT_GT(plan.dataOutPhase, 0u);
    EXPECT_EQ(plan.cells.size(), 1u);
    EXPECT_EQ(plan.cells[0].duration, timing().readLatency);
    EXPECT_EQ(plan.planesTouched, 1u);
}

TEST(TransactionPlan, ProgramMovesDataUpFront)
{
    auto a = makeReq(0, 0, 0, FlashOp::Program);
    const auto plan = planOf({&a}).plan;
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
    auto plan = planOf({&a, &b}).plan;
    EXPECT_EQ(plan.cells[0].duration, timing().programFast);

    // Same wordline but an odd (slow) page index.
    auto c = makeReq(1, 0, 1, FlashOp::Program);
    auto d = makeReq(1, 1, 1, FlashOp::Program);
    plan = planOf({&c, &d}).plan;
    EXPECT_EQ(plan.cells[0].duration, timing().programSlow);
}

TEST(TransactionPlan, DieInterleaveOverlapsCellPhases)
{
    auto a = makeReq(0, 0, 3);
    auto b = makeReq(1, 0, 9);
    const auto plan = planOf({&a, &b}).plan;
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
    const auto plan = planOf({&a}).plan;
    EXPECT_EQ(plan.cells[0].duration, timing().eraseLatency);
    EXPECT_EQ(plan.dataOutPhase, 0u);
}

TEST(TransactionPlan, InvalidTransactionDies)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 0, 9);
    EXPECT_DEATH(planOf({&a, &b}), "two requests on one plane");
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
