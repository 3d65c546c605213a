/**
 * @file
 * Unit tests for the FlashBackend, the one request placement, id and
 * routing site: place() against decompose() and the PPN's chip digits
 * on random geometries, commit() routing to the controller of the
 * chip's channel, and acquire() / issue() drawing ids from one counter
 * per owner and stamping owner and job.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "controller/flash_backend.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

constexpr std::uint64_t kGcIds = std::uint64_t{1} << 60;
constexpr std::uint64_t kParityIds = std::uint64_t{1} << 61;

/** A backend whose completions land in @c done, in order. */
struct Fixture
{
    EventQueue events;
    std::vector<MemoryRequest *> done;
    FlashBackend backend;

    explicit Fixture(const FlashGeometry &geo, Tick window = 0)
        : backend(events, geo, FlashTiming{}, window, 0,
                  [this](MemoryRequest *req) { done.push_back(req); })
    {}
};

FlashGeometry
smallGeometry()
{
    FlashGeometry geo;
    geo.numChannels = 3;
    geo.chipsPerChannel = 4;
    geo.diesPerChip = 2;
    geo.planesPerDie = 2;
    geo.blocksPerPlane = 4;
    geo.pagesPerBlock = 4;
    return geo;
}

TEST(FlashBackend, PlaceMatchesDecompose)
{
    Rng rng(33);
    for (int g = 0; g < 200; ++g) {
        FlashGeometry geo;
        geo.numChannels = 1 + static_cast<std::uint32_t>(rng.nextBelow(32));
        geo.chipsPerChannel =
            1 + static_cast<std::uint32_t>(rng.nextBelow(16));
        geo.diesPerChip = 1 + static_cast<std::uint32_t>(rng.nextBelow(4));
        geo.planesPerDie = 1 + static_cast<std::uint32_t>(rng.nextBelow(8));
        geo.blocksPerPlane =
            1 + static_cast<std::uint32_t>(rng.nextBelow(64));
        geo.pagesPerBlock = 1 + static_cast<std::uint32_t>(rng.nextBelow(64));
        Fixture f(geo);
        for (int i = 0; i < 200; ++i) {
            const Ppn ppn = rng.nextBelow(geo.totalPages());
            MemoryRequest req;
            f.backend.place(req, ppn);
            ASSERT_EQ(req.ppn, ppn);
            ASSERT_EQ(req.addr, geo.decompose(ppn)) << geo.describe();
            // The dense layout puts the chip in the top digits.
            ASSERT_EQ(req.chip, ppn / geo.pagesPerChip())
                << geo.describe() << " ppn " << ppn;
            ASSERT_TRUE(req.translated);
        }
    }
}

/** Chip c is served by channel c % numChannels: that channel's bus
 *  carries the request, and no other channel's does. */
TEST(FlashBackend, CommitRoutesToTheChipsChannel)
{
    const FlashGeometry geo = smallGeometry();
    Fixture f(geo);
    for (std::uint32_t chip = 0; chip < geo.numChips(); ++chip) {
        std::vector<Tick> held_before;
        for (const auto &channel : f.backend.channels())
            held_before.push_back(channel->stats().busHeldTime);

        MemoryRequest *req = f.backend.acquire(RequestOwner::Gc);
        req->op = FlashOp::Program;
        f.backend.place(*req, chip * geo.pagesPerChip() + 5);
        ASSERT_EQ(req->chip, chip);
        f.backend.commit(req);
        const std::uint32_t channel = chip % geo.numChannels;
        EXPECT_EQ(f.backend.controllers()[channel]->outstanding(
                      chip / geo.numChannels),
                  1u)
            << "chip " << chip;
        f.events.run();
        ASSERT_EQ(f.done, std::vector<MemoryRequest *>{req});
        f.done.clear();
        f.backend.release(req);

        for (std::uint32_t c = 0; c < geo.numChannels; ++c) {
            const Tick held =
                f.backend.channels()[c]->stats().busHeldTime;
            if (c == channel)
                EXPECT_GT(held, held_before[c]) << "chip " << chip;
            else
                EXPECT_EQ(held, held_before[c]) << "chip " << chip;
        }
    }
    EXPECT_EQ(f.backend.arena().liveCount(), 0u);
}

/**
 * Host ids count from 0, GC ids from 1 << 60 and parity ids from
 * 1 << 61, each owner on its own counter however the draws
 * interleave. issue() stamps owner and job, places the request and
 * commits it ahead of queued work.
 */
TEST(FlashBackend, IdsComeFromOneCounterPerOwner)
{
    const FlashGeometry geo = smallGeometry();
    Fixture f(geo, /*window=*/1000);

    MemoryRequest *host = f.backend.acquire(RequestOwner::Host);
    EXPECT_EQ(host->id, 0u);
    EXPECT_EQ(host->owner, RequestOwner::Host);
    EXPECT_EQ(host->job, kNoJob);
    host->op = FlashOp::Read;
    f.backend.place(*host, 7);
    f.backend.commit(host);

    // Same chip, die and plane as the host read: no transaction can
    // hold two of them, so completion order is queue order.
    MemoryRequest *gc =
        f.backend.issue(RequestOwner::Gc, 3, FlashOp::Read, 6);
    MemoryRequest *parity =
        f.backend.issue(RequestOwner::Parity, 9, FlashOp::Read, 5);
    MemoryRequest *gc2 =
        f.backend.issue(RequestOwner::Gc, 4, FlashOp::Read, 4);
    MemoryRequest *host2 = f.backend.acquire(RequestOwner::Host);
    MemoryRequest *parity2 =
        f.backend.issue(RequestOwner::Parity, 0, FlashOp::Read, 3);

    const std::vector<std::uint64_t> want_ids{
        kGcIds, kParityIds, kGcIds + 1, 1, kParityIds + 1};
    const std::vector<MemoryRequest *> drawn{gc, parity, gc2, host2,
                                             parity2};
    for (std::size_t i = 0; i < drawn.size(); ++i)
        EXPECT_EQ(drawn[i]->id, want_ids[i]) << "draw " << i;

    EXPECT_EQ(gc->owner, RequestOwner::Gc);
    EXPECT_EQ(gc->job, 3u);
    EXPECT_EQ(gc2->job, 4u);
    EXPECT_EQ(parity->owner, RequestOwner::Parity);
    EXPECT_EQ(parity->job, 9u);
    EXPECT_EQ(parity2->job, 0u);
    for (const MemoryRequest *req : {gc, parity, gc2, parity2}) {
        EXPECT_TRUE(req->translated);
        EXPECT_TRUE(req->composed);
        EXPECT_EQ(req->op, FlashOp::Read);
        EXPECT_EQ(req->chip, 0u);
        EXPECT_EQ(req->tag, kInvalidTag);
    }
    EXPECT_EQ(parity2->ppn, 3u);

    f.events.run();
    // Each issue went to the front, ahead of the host read and of
    // every earlier issue.
    EXPECT_EQ(f.done, (std::vector<MemoryRequest *>{parity2, gc2, parity,
                                                    gc, host}));
    for (MemoryRequest *req : f.done)
        f.backend.release(req);
    f.backend.release(host2);
    EXPECT_EQ(f.backend.arena().liveCount(), 0u);

    // A released request comes back scrubbed.
    MemoryRequest *again = f.backend.acquire(RequestOwner::Host);
    EXPECT_EQ(again->id, 2u);
    EXPECT_EQ(again->job, kNoJob);
    EXPECT_FALSE(again->translated);
    f.backend.release(again);
}

} // namespace
} // namespace spk
