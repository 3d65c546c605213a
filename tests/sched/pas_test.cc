/**
 * @file
 * Unit tests for the PAS baseline: whole-I/O out-of-order commitment
 * with conflict avoidance.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "sched/pas.hh"
#include "sim/rng.hh"
#include "tests/sched/sched_test_util.hh"

namespace spk
{
namespace
{

using test::SchedHarness;

TEST(Pas, SkipsConflictedHeadIo)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    auto *first = h.addIo({0, 0});
    auto *second = h.addIo({2, 3});
    h.view.occupy(0);
    // Every request of I/O #1 heads to the busy chip 0: unlike VAS,
    // PAS skips the blocked head and starts I/O #2.
    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
    (void)first;
}

TEST(Pas, SkipsBusyChipWithinIo)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    auto *io = h.addIo({0, 1});
    h.view.occupy(0); // first page's chip is busy
    // Coarse out-of-order: PAS skips the busy chip and commits the
    // request heading to the idle one (Section 5.1).
    EXPECT_EQ(pas.next(h.ctx), io->pages[1]);
}

TEST(Pas, OwnIoQueueIsNotAConflict)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    auto *io = h.addIo({0, 0});
    // Per-chip flash queues: outstanding requests of the SAME I/O do
    // not block further commitment (enables same-I/O coalescing).
    h.view.occupy(0, io->tag);
    EXPECT_EQ(pas.next(h.ctx), io->pages[0]);
    // Another I/O's request on the chip does.
    h.view.occupy(0, io->tag + 1);
    EXPECT_EQ(pas.next(h.ctx), nullptr);
}

TEST(Pas, ContinuesStartedIoBeforeStartingNew)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    auto *first = h.addIo({0, 1});
    auto *second = h.addIo({2});

    MemoryRequest *r1 = pas.next(h.ctx);
    EXPECT_EQ(r1, first->pages[0]);
    h.compose(r1);
    h.view.occupy(r1->chip, r1->tag); // committed, now outstanding

    // First I/O has begun: PAS keeps feeding it even though chip 1 of
    // the same I/O is free and I/O #2 could also start.
    MemoryRequest *r2 = pas.next(h.ctx);
    EXPECT_EQ(r2, first->pages[1]);
    h.compose(r2);

    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
}

TEST(Pas, InOrderWhenNoConflicts)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    auto *first = h.addIo({0});
    auto *second = h.addIo({1});
    EXPECT_EQ(pas.next(h.ctx), first->pages[0]);
    h.compose(first->pages[0]);
    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
}

TEST(Pas, AllIosConflictedReturnsNull)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    h.addIo({0});
    h.addIo({0});
    h.view.occupy(0);
    h.view.occupy(0);
    EXPECT_EQ(pas.next(h.ctx), nullptr);
}

TEST(Pas, HazardInsideIoFallsThroughToNextIo)
{
    SchedHarness h;
    PasScheduler pas;
    h.attach(pas);
    auto *first = h.addIo({0, 1});
    auto *second = h.addIo({2});
    h.view.schedulableOverride = [&](const MemoryRequest &req) {
        return req.tag != first->tag;
    };
    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
}

TEST(Pas, NameIsPas)
{
    PasScheduler pas;
    EXPECT_STREQ(pas.name(), "PAS");
    EXPECT_FALSE(pas.wantsReaddressing());
}

/**
 * The definition of the PAS pick: scan every page of every queued I/O
 * in order and return the first one that is uncomposed, hazard-free
 * and on a chip holding no other I/O's outstanding work.
 */
MemoryRequest *
linearScan(const SchedHarness &h)
{
    for (IoRequest *io : h.queue) {
        if (io->allComposed())
            continue;
        for (MemoryRequest *req : io->pages) {
            if (req->composed || !h.view.schedulable(*req))
                continue;
            if (h.view.othersOutstanding(req->chip, req->tag) > 0)
                continue;
            return req;
        }
    }
    return nullptr;
}

/**
 * Randomized cross-check of the chip-indexed next() against the
 * linear scan: random geometries (up to three mask words), queues,
 * page -> chip maps, occupancy (GC, own and foreign tags), hazards,
 * out-of-order composes and recycled tags. Every call must return the
 * same pointer.
 */
TEST(Pas, MatchesLinearScanOnRandomQueues)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        SchedHarness h(1 + static_cast<std::uint32_t>(rng.nextBelow(8)),
                       1 + static_cast<std::uint32_t>(rng.nextBelow(24)));
        PasScheduler pas;
        h.attach(pas);
        const auto chips = h.geo.numChips();

        std::set<std::uint64_t> held; // request ids behind a hazard
        h.view.schedulableOverride = [&](const MemoryRequest &req) {
            return held.count(req.id) == 0;
        };
        std::vector<std::pair<std::uint32_t, TagId>> occupied;

        const auto add_io = [&] {
            // Pages cluster on a window of chips, so runs hold several.
            const auto pages = 1 + rng.nextBelow(48);
            const auto span = 1 + rng.nextBelow(chips);
            const auto base = rng.nextBelow(chips);
            std::vector<std::uint32_t> targets;
            for (std::uint64_t i = 0; i < pages; ++i) {
                targets.push_back(static_cast<std::uint32_t>(
                    (base + rng.nextBelow(span)) % chips));
            }
            h.addIo(targets, rng.nextBool(0.5));
        };
        const auto random_io = [&] {
            return h.queue[rng.nextBelow(h.queue.size())];
        };
        const auto random_page = [&] {
            IoRequest *io = random_io();
            return io->pages[rng.nextBelow(io->pages.size())];
        };

        const auto initial = 1 + rng.nextBelow(8);
        for (std::uint64_t i = 0; i < initial; ++i)
            add_io();

        for (int step = 0; step < 200; ++step) {
            MemoryRequest *want = linearScan(h);
            ASSERT_EQ(pas.next(h.ctx), want)
                << "seed " << seed << " step " << step;

            switch (rng.nextBelow(8)) {
              case 0:
              case 1:
              case 2:
                // The NVMHC composes the pick; it then sits on its chip.
                if (want != nullptr) {
                    h.compose(want);
                    h.view.occupy(want->chip, want->tag);
                    occupied.emplace_back(want->chip, want->tag);
                }
                break;
              case 3:
                // Out-of-order compose (a page PAS did not pick).
                if (!h.queue.empty()) {
                    MemoryRequest *req = random_page();
                    if (!req->composed)
                        h.compose(req);
                }
                break;
              case 4: {
                // Outstanding work from GC, a queued I/O or a stranger.
                const auto chip =
                    static_cast<std::uint32_t>(rng.nextBelow(chips));
                TagId tag = kInvalidTag;
                if (rng.nextBool(0.5) && !h.queue.empty())
                    tag = random_io()->tag;
                else if (rng.nextBool(0.5))
                    tag = static_cast<TagId>(
                        rng.nextBelow(SchedHarness::kQueueDepth));
                h.view.occupy(chip, tag);
                occupied.emplace_back(chip, tag);
                break;
              }
              case 5:
                if (!occupied.empty()) {
                    const auto i = rng.nextBelow(occupied.size());
                    h.view.release(occupied[i].first, occupied[i].second);
                    occupied[i] = occupied.back();
                    occupied.pop_back();
                }
                break;
              case 6:
                if (!h.queue.empty()) {
                    const std::uint64_t id = random_page()->id;
                    if (!held.erase(id))
                        held.insert(id);
                }
                break;
              case 7:
                // Retire a fully composed I/O (its tag is recycled) or
                // admit a new one.
                if (!h.queue.empty() && rng.nextBool(0.5)) {
                    IoRequest *io = random_io();
                    if (io->allComposed())
                        h.retire(io);
                } else if (h.queue.size() < 32) {
                    add_io();
                }
                break;
            }
        }
    }
}

} // namespace
} // namespace spk
