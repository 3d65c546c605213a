/**
 * @file
 * Randomized stress tests of the flash controller: commit storms with
 * arbitrary addresses must preserve the structural invariants (every
 * commit completes exactly once, R/B exclusivity, channel accounting,
 * coalescing legality).
 */

#include <gtest/gtest.h>

#include <map>
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

struct StressCase
{
    std::uint32_t chipsPerChannel;
    std::uint32_t numRequests;
    double writeFraction;
    Tick decisionWindow;
    std::uint64_t seed;
};

class ControllerStress : public ::testing::TestWithParam<StressCase>
{
};

TEST_P(ControllerStress, InvariantsHold)
{
    const auto sc = GetParam();

    FlashGeometry geo;
    geo.numChannels = 1;
    geo.chipsPerChannel = sc.chipsPerChannel;
    geo.diesPerChip = 2;
    geo.planesPerDie = 4;

    EventQueue events;
    Channel channel(0);
    std::vector<std::unique_ptr<FlashChip>> chips;
    std::vector<FlashChip *> raw;
    for (std::uint32_t i = 0; i < sc.chipsPerChannel; ++i) {
        chips.push_back(std::make_unique<FlashChip>(i, geo));
        raw.push_back(chips.back().get());
    }

    std::map<const MemoryRequest *, int> completions;
    // Commit and completion tick of each request, by id.
    std::vector<Tick> committedAt(sc.numRequests);
    std::vector<Tick> completedAt(sc.numRequests);
    ChipOccupancy occ(geo.numChips(), 9); // GC + tags 0..7
    FlashController ctrl(
        events, channel, raw, occ, FlashTiming{}, geo.pageSizeBytes,
        sc.decisionWindow, [&](MemoryRequest *req) {
            completions[req]++;
            completedAt[req->id] = events.now();
        });

    Rng rng(sc.seed);
    std::vector<std::unique_ptr<MemoryRequest>> pool;
    for (std::uint32_t i = 0; i < sc.numRequests; ++i) {
        auto req = std::make_unique<MemoryRequest>();
        req->id = i;
        req->op = rng.nextBool(sc.writeFraction) ? FlashOp::Program
                                                 : FlashOp::Read;
        req->addr.channel = 0;
        req->addr.chipInChannel =
            static_cast<std::uint32_t>(rng.nextBelow(sc.chipsPerChannel));
        req->addr.die =
            static_cast<std::uint32_t>(rng.nextBelow(geo.diesPerChip));
        req->addr.plane =
            static_cast<std::uint32_t>(rng.nextBelow(geo.planesPerDie));
        req->addr.block = static_cast<std::uint32_t>(rng.nextBelow(16));
        req->addr.page = static_cast<std::uint32_t>(rng.nextBelow(8));
        req->chip = geo.chipIndex(0, req->addr.chipInChannel);
        req->tag = static_cast<TagId>(rng.nextBelow(8));
        req->translated = true;
        req->composed = true;
        pool.push_back(std::move(req));
    }

    // Commit in random bursts interleaved with event processing.
    std::size_t next = 0;
    while (next < pool.size()) {
        const std::size_t burst =
            std::min<std::size_t>(1 + rng.nextBelow(8),
                                  pool.size() - next);
        for (std::size_t i = 0; i < burst; ++i) {
            committedAt[next] = events.now();
            ctrl.commit(pool[next++].get());
        }
        events.run(rng.nextBelow(12));
    }
    events.run();

    // 1. Every request completed exactly once.
    ASSERT_EQ(completions.size(), pool.size());
    for (const auto &[req, count] : completions)
        EXPECT_EQ(count, 1) << "request completed " << count << " times";

    // 2. Controller fully drained; bookkeeping zeroed.
    for (std::uint32_t c = 0; c < sc.chipsPerChannel; ++c) {
        EXPECT_EQ(ctrl.outstanding(c), 0u);
        EXPECT_TRUE(occ.idle(c));
    }

    // 3. Each request completes at least its cell operation after
    //    its commit.
    const FlashTiming timing;
    for (const auto &req : pool) {
        const Tick cell = req->op == FlashOp::Read
                              ? timing.readLatency
                              : timing.programLatency(req->addr.page);
        EXPECT_GE(completedAt[req->id], committedAt[req->id] + cell);
    }

    // 4. Served counts match; transactions never exceed requests.
    std::uint64_t served = 0;
    std::uint64_t txns = 0;
    for (const auto &chip : chips) {
        served += chip->stats().requestsServed;
        txns += chip->stats().transactions;
    }
    EXPECT_EQ(served, pool.size());
    EXPECT_LE(txns, pool.size());
    EXPECT_GT(txns, 0u);

    // 5. Chip accounting: cellTime sums per-die durations, which
    //    overlap under die interleaving -- so busy wall-time bounds
    //    it only after dividing by the die count. Requests by FLP
    //    class sum to the served count.
    for (const auto &chip : chips) {
        const auto &cs = chip->stats();
        EXPECT_GE(cs.busyTime, cs.cellTime / geo.diesPerChip);
        EXPECT_LE(cs.cellTime,
                  cs.busyTime * geo.diesPerChip);
        std::uint64_t req_sum = 0;
        for (int i = 0; i < 4; ++i)
            req_sum += cs.reqPerClass[i];
        EXPECT_EQ(req_sum, cs.requestsServed);
    }

    // 6. Channel accounting is self-consistent.
    EXPECT_GT(channel.stats().busHeldTime, 0u);
    EXPECT_LE(channel.stats().busHeldTime, events.now());
}

INSTANTIATE_TEST_SUITE_P(
    Storms, ControllerStress,
    ::testing::Values(StressCase{1, 64, 0.5, 1000, 11},
                      StressCase{2, 128, 0.3, 1000, 12},
                      StressCase{4, 256, 0.5, 0, 13},
                      StressCase{8, 256, 0.8, 3000, 14},
                      StressCase{8, 512, 0.0, 1000, 15},
                      StressCase{8, 512, 1.0, 1000, 16},
                      StressCase{16, 512, 0.5, 500, 17}));

} // namespace
} // namespace spk
