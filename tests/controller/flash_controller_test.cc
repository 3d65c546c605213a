/**
 * @file
 * Unit tests for the flash controller's transaction building and
 * execution: coalescing, R/B exclusivity, channel phases, GC priority.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controller/flash_controller.hh"
#include "flash/chip.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

struct Fixture
{
    FlashGeometry geo;
    EventQueue events;
    Channel channel{0};
    std::vector<std::unique_ptr<FlashChip>> chips;
    std::vector<MemoryRequest *> completed;
    std::unique_ptr<FlashController> ctrl;
    std::vector<std::unique_ptr<MemoryRequest>> pool;

    explicit Fixture(Tick window = 1000)
    {
        geo.numChannels = 1;
        geo.chipsPerChannel = 2;
        geo.diesPerChip = 2;
        geo.planesPerDie = 2;
        std::vector<FlashChip *> raw;
        for (std::uint32_t i = 0; i < geo.chipsPerChannel; ++i) {
            chips.push_back(std::make_unique<FlashChip>(i, geo));
            raw.push_back(chips.back().get());
        }
        ctrl = std::make_unique<FlashController>(
            events, channel, raw, FlashTiming{}, geo.pageSizeBytes,
            window,
            [this](MemoryRequest *r) { completed.push_back(r); });
    }

    MemoryRequest *
    make(FlashOp op, std::uint32_t chip_off, std::uint32_t die,
         std::uint32_t plane, std::uint32_t page, std::uint32_t block = 0)
    {
        auto req = std::make_unique<MemoryRequest>();
        req->id = pool.size();
        req->op = op;
        req->addr.channel = 0;
        req->addr.chipInChannel = chip_off;
        req->addr.die = die;
        req->addr.plane = plane;
        req->addr.block = block;
        req->addr.page = page;
        req->chip = geo.chipIndex(0, chip_off);
        req->translated = true;
        req->composed = true;
        pool.push_back(std::move(req));
        return pool.back().get();
    }
};

TEST(FlashController, SingleRequestCompletes)
{
    Fixture f;
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 3);
    f.ctrl->commit(req);
    EXPECT_EQ(f.ctrl->outstanding(0), 1u);
    f.events.run();
    ASSERT_EQ(f.completed.size(), 1u);
    EXPECT_EQ(f.completed[0], req);
    EXPECT_GT(req->finishedAt, req->startedAt);
    EXPECT_TRUE(f.ctrl->drained());
    EXPECT_EQ(f.ctrl->stats().transactions, 1u);
}

TEST(FlashController, CoalescesWithinDecisionWindow)
{
    Fixture f;
    // Four requests to chip 0: 2 dies x 2 planes, same page offset.
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5, 0));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 1, 5, 1));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 1, 0, 7, 2));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 1, 1, 7, 3));
    f.events.run();
    EXPECT_EQ(f.completed.size(), 4u);
    EXPECT_EQ(f.ctrl->stats().transactions, 1u);
    EXPECT_EQ(f.chips[0]->stats().txnPerClass[3], 1u); // PAL3
}

TEST(FlashController, IncompatiblePagesSplitTransactions)
{
    Fixture f;
    // Same die, same plane -> can never share a transaction.
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 6));
    f.events.run();
    EXPECT_EQ(f.ctrl->stats().transactions, 2u);
}

TEST(FlashController, MixedOpsNeverCoalesce)
{
    Fixture f;
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5));
    f.ctrl->commit(f.make(FlashOp::Program, 0, 0, 1, 5));
    f.events.run();
    EXPECT_EQ(f.ctrl->stats().transactions, 2u);
}

TEST(FlashController, RbExclusivityPerChip)
{
    Fixture f(0 /* no decision window */);
    auto *a = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(a);
    f.events.step(); // launch event
    // While chip 0 is busy, committing more work must not start it.
    auto *b = f.make(FlashOp::Read, 0, 1, 0, 2);
    f.ctrl->commit(b);
    EXPECT_TRUE(f.chips[0]->busy());
    f.events.run();
    EXPECT_EQ(f.completed.size(), 2u);
    // Second transaction started only after the first finished.
    EXPECT_GE(b->startedAt, a->finishedAt);
}

TEST(FlashController, IndependentChipsRunConcurrently)
{
    Fixture f;
    auto *a = f.make(FlashOp::Read, 0, 0, 0, 1);
    auto *b = f.make(FlashOp::Read, 1, 0, 0, 1);
    f.ctrl->commit(a);
    f.ctrl->commit(b);
    f.events.run();
    // Both chips execute concurrently: chip 1's transaction begins
    // while chip 0's is still in flight.
    EXPECT_LT(b->startedAt, a->finishedAt);
    EXPECT_LT(a->startedAt, b->finishedAt);
}

TEST(FlashController, ChannelSerializesBusPhases)
{
    Fixture f;
    auto *a = f.make(FlashOp::Program, 0, 0, 0, 0);
    auto *b = f.make(FlashOp::Program, 1, 0, 0, 0);
    f.ctrl->commit(a);
    f.ctrl->commit(b);
    f.events.run();
    // Both programs moved a page over the same bus: held time covers
    // two transfers and there was some contention or offset.
    const Tick xfer = FlashTiming{}.transferTime(f.geo.pageSizeBytes);
    EXPECT_GE(f.channel.stats().busHeldTime, 2 * xfer);
    EXPECT_NE(a->startedAt, b->startedAt);
}

TEST(FlashController, FrontCommitJumpsQueue)
{
    Fixture f(0);
    auto *busy = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(busy);
    f.events.step(); // chip 0 now busy
    auto *host = f.make(FlashOp::Read, 0, 0, 0, 2);
    auto *gc = f.make(FlashOp::Read, 0, 0, 0, 3);
    gc->isGc = true;
    f.ctrl->commit(host);
    f.ctrl->commit(gc, /*front=*/true);
    f.events.run();
    EXPECT_LT(gc->startedAt, host->startedAt);
}

TEST(FlashController, EraseNeverCoalesces)
{
    Fixture f;
    auto *e1 = f.make(FlashOp::Erase, 0, 0, 0, 0, 0);
    auto *e2 = f.make(FlashOp::Erase, 0, 1, 1, 0, 1);
    f.ctrl->commit(e1);
    f.ctrl->commit(e2);
    f.events.run();
    EXPECT_EQ(f.ctrl->stats().transactions, 2u);
}

TEST(FlashController, OutstandingCountsLifecycle)
{
    Fixture f;
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(req);
    EXPECT_EQ(f.ctrl->pendingCount(0), 1u);
    EXPECT_EQ(f.ctrl->outstanding(0), 1u);
    f.events.step(); // launch
    EXPECT_EQ(f.ctrl->pendingCount(0), 0u);
    EXPECT_EQ(f.ctrl->outstanding(0), 1u); // in flight
    f.events.run();
    EXPECT_EQ(f.ctrl->outstanding(0), 0u);
}

/**
 * The occupancy bitmaps mirror the per-tag counts after every commit
 * and event, and mid-completion (checked from the completion upcall,
 * where the NVMHC re-polls its scheduler): a chip is idle exactly when
 * it has no outstanding request, and owned by slot s exactly when all
 * of its outstanding requests belong to s. GC requests and several
 * host tags share chips, and transient read faults hold reads for
 * retries and soft decodes.
 */
TEST(FlashController, OccupancyMirrorsPerTagCounts)
{
    constexpr std::uint32_t kTags = 5; // host tags 0..4, slots 1..5
    FlashGeometry geo;
    geo.numChannels = 1;
    geo.chipsPerChannel = 3;
    geo.diesPerChip = 2;
    geo.planesPerDie = 2;
    FaultConfig fc;
    fc.readTransientRate = 0.3;
    fc.softDecodeEnabled = true;
    const FaultModel faults(fc, 7, geo);
    SoftDecoder decoder;
    ChipOccupancy occ(geo.numChips(), kTags + 1);
    EventQueue events;
    Channel channel{0};
    std::vector<std::unique_ptr<FlashChip>> chips;
    std::vector<FlashChip *> raw;
    for (std::uint32_t i = 0; i < geo.chipsPerChannel; ++i) {
        chips.push_back(std::make_unique<FlashChip>(i, geo));
        raw.push_back(chips.back().get());
    }

    std::unique_ptr<FlashController> ctrl;
    std::uint64_t checks = 0;
    const auto check = [&] {
        ++checks;
        for (std::uint32_t c = 0; c < geo.chipsPerChannel; ++c) {
            std::uint32_t total = 0;
            for (std::size_t s = 0; s <= kTags; ++s)
                total += ctrl->tagOutstanding(c, s);
            EXPECT_EQ(occ.idle(c), total == 0) << "chip " << c;
            for (std::size_t s = 0; s <= kTags; ++s) {
                const std::uint32_t mine = ctrl->tagOutstanding(c, s);
                EXPECT_EQ(occ.ownedBy(c, s), mine > 0 && mine == total)
                    << "chip " << c << " slot " << s;
            }
        }
    };
    std::uint64_t completed = 0;
    ctrl = std::make_unique<FlashController>(
        events, channel, raw, FlashTiming{}, geo.pageSizeBytes, 500,
        [&](MemoryRequest *) {
            ++completed;
            check();
        },
        &faults, &decoder, &occ);
    ctrl->reserveSteadyState(kTags);

    Rng rng(11);
    std::vector<std::unique_ptr<MemoryRequest>> pool;
    for (int step = 0; step < 3000; ++step) {
        if (rng.nextBool(0.5)) {
            auto req = std::make_unique<MemoryRequest>();
            req->id = pool.size();
            req->op = rng.nextBool(0.7) ? FlashOp::Read : FlashOp::Program;
            req->addr.channel = 0;
            req->addr.chipInChannel =
                static_cast<std::uint32_t>(rng.nextBelow(geo.chipsPerChannel));
            req->addr.die =
                static_cast<std::uint32_t>(rng.nextBelow(geo.diesPerChip));
            req->addr.plane =
                static_cast<std::uint32_t>(rng.nextBelow(geo.planesPerDie));
            req->addr.block = static_cast<std::uint32_t>(rng.nextBelow(8));
            req->addr.page = static_cast<std::uint32_t>(rng.nextBelow(8));
            req->ppn = geo.compose(req->addr);
            req->chip = geo.chipIndex(0, req->addr.chipInChannel);
            const auto t = rng.nextBelow(kTags + 1);
            req->tag = t == kTags ? kInvalidTag : static_cast<TagId>(t);
            req->isGc = req->tag == kInvalidTag;
            req->translated = true;
            req->composed = true;
            pool.push_back(std::move(req));
            ctrl->commit(pool.back().get(), pool.back()->isGc);
        } else {
            events.step();
        }
        check();
    }
    events.run();
    check();
    EXPECT_EQ(completed, pool.size());
    for (std::uint32_t c = 0; c < geo.chipsPerChannel; ++c)
        EXPECT_TRUE(occ.idle(c));
    EXPECT_GT(ctrl->stats().readRetries, 0u);
    EXPECT_GT(decoder.stats.invocations, 0u);
    EXPECT_GT(checks, pool.size());
}

TEST(FlashController, UntranslatedCommitDies)
{
    Fixture f;
    MemoryRequest req;
    EXPECT_DEATH(f.ctrl->commit(&req), "untranslated");
}

} // namespace
} // namespace spk
