/**
 * @file
 * Unit tests for the flash controller's transaction building and
 * execution: coalescing, R/B exclusivity, channel phases, GC priority.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
    /** Completed requests in completion order, each beside the tick
     *  it completed at. */
    std::vector<MemoryRequest *> completed;
    std::vector<Tick> completedAt;
    ChipOccupancy occ;
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
        occ = ChipOccupancy(geo.numChips(), 1); // GC slot only
        ctrl = std::make_unique<FlashController>(
            events, channel, raw, occ, FlashTiming{}, geo.pageSizeBytes,
            window,
            [this](MemoryRequest *r) {
                completed.push_back(r);
                completedAt.push_back(events.now());
            });
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

    /** The tick @p req completed at. */
    Tick
    doneAt(const MemoryRequest *req) const
    {
        for (std::size_t i = 0; i < completed.size(); ++i) {
            if (completed[i] == req)
                return completedAt[i];
        }
        ADD_FAILURE() << "request " << req->id << " never completed";
        return 0;
    }

    /** Transactions launched, as the chips counted them. */
    std::uint64_t
    transactions() const
    {
        std::uint64_t n = 0;
        for (const auto &chip : chips)
            n += chip->stats().transactions;
        return n;
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
    // Committed at 0: the decision window, then at least a sense.
    EXPECT_GE(f.completedAt[0], 1000 + FlashTiming{}.readLatency);
    EXPECT_EQ(f.ctrl->outstanding(0), 0u);
    EXPECT_EQ(f.transactions(), 1u);
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
    EXPECT_EQ(f.transactions(), 1u);
    EXPECT_EQ(f.chips[0]->stats().reqPerClass[3], 4u); // PAL3
}

TEST(FlashController, IncompatiblePagesSplitTransactions)
{
    Fixture f;
    // Same die, same plane -> can never share a transaction.
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 6));
    f.events.run();
    EXPECT_EQ(f.transactions(), 2u);
}

TEST(FlashController, MixedOpsNeverCoalesce)
{
    Fixture f;
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5));
    f.ctrl->commit(f.make(FlashOp::Program, 0, 0, 1, 5));
    f.events.run();
    EXPECT_EQ(f.transactions(), 2u);
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
    // The second read's sense started only after the first finished.
    EXPECT_GE(f.doneAt(b), f.doneAt(a) + FlashTiming{}.readLatency);
}

TEST(FlashController, IndependentChipsRunConcurrently)
{
    Fixture f;
    auto *a = f.make(FlashOp::Read, 0, 0, 0, 1);
    auto *b = f.make(FlashOp::Read, 1, 0, 0, 1);
    f.ctrl->commit(a);
    f.ctrl->commit(b);
    f.events.run();
    // Both chips execute concurrently: run one after the other, the
    // reads would finish at least one sense apart.
    const Tick ta = f.doneAt(a);
    const Tick tb = f.doneAt(b);
    EXPECT_LT(std::max(ta, tb) - std::min(ta, tb),
              FlashTiming{}.readLatency);
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
    // The second program's data-in waited for the first's.
    const Tick ta = f.doneAt(a);
    const Tick tb = f.doneAt(b);
    EXPECT_GE(std::max(ta, tb) - std::min(ta, tb), xfer);
}

TEST(FlashController, FrontCommitJumpsQueue)
{
    Fixture f(0);
    auto *busy = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(busy);
    f.events.step(); // chip 0 now busy
    auto *host = f.make(FlashOp::Read, 0, 0, 0, 2);
    auto *gc = f.make(FlashOp::Read, 0, 0, 0, 3);
    f.ctrl->commit(host);
    f.ctrl->commit(gc, /*front=*/true);
    f.events.run();
    EXPECT_EQ(f.completed, (std::vector<MemoryRequest *>{busy, gc, host}));
}

TEST(FlashController, EraseNeverCoalesces)
{
    Fixture f;
    auto *e1 = f.make(FlashOp::Erase, 0, 0, 0, 0, 0);
    auto *e2 = f.make(FlashOp::Erase, 0, 1, 1, 0, 1);
    f.ctrl->commit(e1);
    f.ctrl->commit(e2);
    f.events.run();
    EXPECT_EQ(f.transactions(), 2u);
}

TEST(FlashController, OutstandingCountsLifecycle)
{
    Fixture f;
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(req);
    EXPECT_FALSE(f.chips[0]->busy()); // pending
    EXPECT_EQ(f.ctrl->outstanding(0), 1u);
    f.events.step(); // launch
    EXPECT_TRUE(f.chips[0]->busy());
    EXPECT_EQ(f.ctrl->outstanding(0), 1u); // in flight
    f.events.run();
    EXPECT_EQ(f.ctrl->outstanding(0), 0u);
}

/**
 * The occupancy rows are right at every moment a scheduler can look:
 * after every commit and event, and in the middle of each completion
 * (checked from the completion upcall, where the NVMHC re-polls its
 * scheduler). The oracle for the idle and owner rows is the test's
 * own count of requests committed and not yet completed per (chip,
 * tag slot): a chip is idle exactly when it holds none, and owned by
 * slot s exactly when all it holds are of s. The load row mirrors
 * outstanding(), at limit 1 (VAS, SPK2) and above (FARO). GC requests
 * and several host tags share chips, and transient read faults hold
 * reads for retries and soft decodes, so the rows differ: a chip
 * holding only a decoding read is not idle, yet has no load.
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
    fc.readHardRate = 0.05; // walks the whole ladder into a decode
    fc.softDecodeEnabled = true;
    const FaultModel faults(fc, 7, geo);
    for (const std::uint32_t limit : {1u, 3u}) {
        SoftDecoder decoder;
        ChipOccupancy occ(geo.numChips(), kTags + 1);
        occ.setLoadLimit(limit);
        EventQueue events;
        Channel channel{0};
        std::vector<std::unique_ptr<FlashChip>> chips;
        std::vector<FlashChip *> raw;
        for (std::uint32_t i = 0; i < geo.chipsPerChannel; ++i) {
            chips.push_back(std::make_unique<FlashChip>(i, geo));
            raw.push_back(chips.back().get());
        }

        std::unique_ptr<FlashController> ctrl;
        // Committed minus completed requests per (chip, tag slot).
        std::vector<std::uint32_t> held(geo.chipsPerChannel * (kTags + 1));
        const auto held_by = [&](const MemoryRequest &req) -> auto & {
            return held[req.addr.chipInChannel * (kTags + 1) +
                        tagSlot(req.tag)];
        };
        std::uint64_t checks = 0;
        std::uint64_t held_without_load = 0;
        const auto check = [&] {
            ++checks;
            for (std::uint32_t c = 0; c < geo.chipsPerChannel; ++c) {
                const std::uint32_t *mine = &held[c * (kTags + 1)];
                std::uint32_t total = 0;
                for (std::size_t s = 0; s <= kTags; ++s)
                    total += mine[s];
                EXPECT_EQ(occ.idle(c), total == 0) << "chip " << c;
                for (std::size_t s = 0; s <= kTags; ++s) {
                    EXPECT_EQ(occ.ownedBy(c, s),
                              mine[s] > 0 && mine[s] == total)
                        << "chip " << c << " slot " << s;
                }
                const std::uint32_t load = ctrl->outstanding(c);
                EXPECT_EQ(occ.belowLimit(c), load < limit)
                    << "chip " << c << " limit " << limit;
                if (occ.idle(c) != (load == 0))
                    ++held_without_load;
            }
        };
        std::uint64_t completed = 0;
        ctrl = std::make_unique<FlashController>(
            events, channel, raw, occ, FlashTiming{}, geo.pageSizeBytes,
            500,
            [&](MemoryRequest *req) {
                --held_by(*req);
                ++completed;
                check();
            },
            &faults, &decoder);
        ctrl->reserveSteadyState(kTags);

        Rng rng(11);
        std::vector<std::unique_ptr<MemoryRequest>> pool;
        const auto commit_random = [&] {
            auto req = std::make_unique<MemoryRequest>();
            req->id = pool.size();
            req->op = rng.nextBool(0.7) ? FlashOp::Read : FlashOp::Program;
            req->addr.channel = 0;
            req->addr.chipInChannel = static_cast<std::uint32_t>(
                rng.nextBelow(geo.chipsPerChannel));
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
            req->translated = true;
            req->composed = true;
            pool.push_back(std::move(req));
            ++held_by(*pool.back());
            // GC work commits at the front, as the backend issues it.
            ctrl->commit(pool.back().get(), t == kTags);
        };
        // Saturated: chips queue work from several tags at once.
        for (int step = 0; step < 3000; ++step) {
            if (rng.nextBool(0.5))
                commit_random();
            else
                events.step();
            check();
        }
        // Sparse: one request at a time, so a decoding read is often
        // the only thing left on its chip.
        for (int i = 0; i < 300; ++i) {
            commit_random();
            check();
            while (events.step())
                check();
        }
        EXPECT_EQ(completed, pool.size());
        for (std::uint32_t c = 0; c < geo.chipsPerChannel; ++c) {
            EXPECT_TRUE(occ.idle(c));
            EXPECT_TRUE(occ.belowLimit(c));
        }
        EXPECT_GT(ctrl->stats().readRetries, 0u);
        EXPECT_GT(decoder.stats.invocations, 0u);
        EXPECT_GT(checks, pool.size());
        EXPECT_GT(held_without_load, 0u) << "limit " << limit;
    }
}

TEST(FlashController, UntranslatedCommitDies)
{
    Fixture f;
    MemoryRequest req;
    EXPECT_DEATH(f.ctrl->commit(&req), "untranslated");
}

TEST(FlashController, CommitForAnotherChipDies)
{
    Fixture f;
    // Chip 0's address, chip 1's global index: a launch would take
    // the transaction's chip from it.
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 1);
    req->chip = f.geo.chipIndex(0, 1);
    EXPECT_DEATH(f.ctrl->commit(req), "another chip");
}

} // namespace
} // namespace spk
