/**
 * @file
 * Unit tests for the Sprinkler scheduler: RIOS traversal order, FARO
 * batch selection (overlap depth + connectivity), over-commitment
 * windows and readdressing, plus a randomized cross-check of the
 * indexed walks and the per-chip FARO set cache against the
 * chip-by-chip rescans they replace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sched/sprinkler.hh"
#include "sim/rng.hh"
#include "tests/flash/transaction_oracle.hh"
#include "tests/sched/sched_test_util.hh"

namespace spk
{
namespace
{

using test::canCoalesce;
using test::FlashTransaction;
using test::SchedHarness;

TEST(Sprinkler, NamesAndFlags)
{
    SprinklerScheduler spk1(false, true, 8);
    SprinklerScheduler spk2(true, false, 8);
    SprinklerScheduler spk3(true, true, 8);
    for (const auto kind :
         {SchedulerKind::SPK1, SchedulerKind::SPK2, SchedulerKind::SPK3})
        EXPECT_EQ(parseSchedulerKind(schedulerKindName(kind)), kind);
    EXPECT_EQ(parseSchedulerKind("spk3"), SchedulerKind::SPK3);
    EXPECT_TRUE(spk3.wantsReaddressing());
    // The load row's limit: the FARO window, or one request without.
    EXPECT_EQ(spk1.loadLimit(), 8u);
    EXPECT_EQ(spk2.loadLimit(), 1u);
    EXPECT_EQ(spk3.loadLimit(), 8u);
    EXPECT_DEATH(SprinklerScheduler(false, false, 8), "at least one");
}

TEST(Sprinkler, RiosTraversesChipsInStripeOrder)
{
    SchedHarness h;
    SprinklerScheduler spk2(true, false, 1);
    h.attach(spk2);
    // One I/O fanned over chips 2, 0, 1 (out of order on purpose).
    h.addIo({2, 0, 1});

    // RIOS visits chip 0 first regardless of request order in the I/O.
    MemoryRequest *r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->chip, 0u);
    h.compose(r);
    r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->chip, 1u);
    h.compose(r);
    r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->chip, 2u);
}

TEST(Sprinkler, RiosCommitsAcrossIoBoundaries)
{
    SchedHarness h;
    SprinklerScheduler spk2(true, false, 1);
    h.attach(spk2);
    h.addIo({0});
    auto *second = h.addIo({1});
    h.view.setLoad(0, 1); // chip 0 busy
    // VAS would stall; RIOS simply serves chip 1 from I/O #2.
    MemoryRequest *r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r, second->pages[0]);
}

TEST(Sprinkler, Spk2NoOvercommit)
{
    SchedHarness h;
    SprinklerScheduler spk2(true, false, 1);
    h.attach(spk2);
    h.addIo({0, 0});
    h.view.setLoad(0, 1);
    EXPECT_EQ(spk2.next(h.ctx), nullptr); // won't stack on a busy chip
}

TEST(Sprinkler, FaroOvercommitsUpToWindow)
{
    {
        SchedHarness h;
        SprinklerScheduler spk3(true, true, 4);
        h.attach(spk3);
        h.addIo({0, 0});
        h.view.setLoad(0, 2); // already two outstanding, window is 4
        EXPECT_NE(spk3.next(h.ctx), nullptr);
    }
    {
        SchedHarness h;
        SprinklerScheduler fresh(true, true, 4);
        h.attach(fresh);
        h.addIo({0, 0});
        h.view.setLoad(0, 4); // window reached
        EXPECT_EQ(fresh.next(h.ctx), nullptr);
    }
}

/**
 * The window bounds the load a chip may have *before* it takes a set,
 * and the set itself holds up to window requests: at window - 1
 * outstanding a chip still takes a full set, so it can hold
 * 2 * window - 1. Both FARO variants behave this way.
 */
TEST(Sprinkler, FaroChipCanHoldTwiceTheWindowLessOne)
{
    constexpr std::uint32_t kWindow = 4;
    for (const bool rios : {false, true}) {
        SchedHarness h;
        SprinklerScheduler spk(rios, true, kWindow);
        h.attach(spk);
        // Four coalescable requests: one per (die, plane) of chip 0.
        h.addIo({0, 0, 0, 0});
        h.view.setLoad(0, kWindow - 1);
        std::uint32_t taken = 0;
        while (MemoryRequest *r = spk.next(h.ctx)) {
            EXPECT_EQ(r->chip, 0u);
            h.compose(r);
            ++taken;
        }
        EXPECT_EQ(taken, kWindow) << "rios " << rios;
        EXPECT_EQ(kWindow - 1 + taken, 2 * kWindow - 1) << "rios " << rios;

        SchedHarness full;
        SprinklerScheduler at_window(rios, true, kWindow);
        full.attach(at_window);
        full.addIo({0, 0, 0, 0});
        full.view.setLoad(0, kWindow);
        EXPECT_EQ(at_window.next(full.ctx), nullptr) << "rios " << rios;
    }
}

TEST(Sprinkler, FaroBatchesCoalescableSet)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 8);
    h.attach(spk3);
    // Four requests to chip 0 on distinct (die, plane) slots; the
    // harness gives them equal page offsets, so all four coalesce.
    h.addIo({0, 0, 0, 0});

    // The whole batch comes out in consecutive next() calls.
    std::set<const MemoryRequest *> batch;
    for (int i = 0; i < 4; ++i) {
        MemoryRequest *r = spk3.next(h.ctx);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->chip, 0u);
        batch.insert(r);
        h.compose(r);
    }
    EXPECT_EQ(batch.size(), 4u);
}

TEST(Sprinkler, FaroPrefersDeeperOverlap)
{
    SchedHarness h;
    SprinklerScheduler spk1(false, true, 8);
    h.attach(spk1);
    auto *small = h.addIo({1});     // depth 1 at chip 1
    auto *big = h.addIo({2, 2, 2}); // depth 3 at chip 2
    // SPK1 picks the chip with the highest overlap depth first.
    MemoryRequest *r = spk1.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->chip, 2u);
    EXPECT_EQ(r->tag, big->tag);
    (void)small;
}

TEST(Sprinkler, ConnectivityBreaksDepthTies)
{
    SchedHarness h;
    SprinklerScheduler spk1(false, true, 8);
    h.attach(spk1);
    // Chip 1: two requests from two different I/Os (connectivity 1).
    h.addIo({1});
    h.addIo({1});
    // Chip 2: two requests from one I/O (connectivity 2).
    auto *c = h.addIo({2, 2});

    MemoryRequest *r = spk1.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->chip, 2u) << "higher connectivity set should win";
    EXPECT_EQ(r->tag, c->tag);
}

TEST(Sprinkler, RetargetMovesBucket)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 8);
    h.attach(spk3);
    auto *io = h.addIo({0});
    h.retarget(io->pages[0], 3);

    MemoryRequest *r = spk3.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->chip, 3u);
}

TEST(Sprinkler, Spk1RetargetRebuildsRuns)
{
    SchedHarness h;
    SprinklerScheduler spk1(false, true, 8);
    h.attach(spk1);
    auto *io = h.addIo({0, 0});
    h.view.setLoad(0, 8); // chip 0 is at the window
    EXPECT_EQ(spk1.next(h.ctx), nullptr);

    // The moved page now waits on an idle chip, in a run of its own.
    h.retarget(io->pages[1], 3);
    EXPECT_EQ(spk1.next(h.ctx), io->pages[1]);
}

TEST(Sprinkler, SkipsComposedEntries)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 8);
    h.attach(spk3);
    auto *io = h.addIo({0, 0});
    h.compose(io->pages[0]);
    MemoryRequest *r = spk3.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r, io->pages[1]);
}

TEST(Sprinkler, EmptyQueueReturnsNull)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 8);
    h.attach(spk3);
    EXPECT_EQ(spk3.next(h.ctx), nullptr);
}

/**
 * A read in a soft decode keeps its chip from being idle but adds no
 * load: SPK2 still serves the chip, because it tests the chip's load,
 * not its idleness.
 */
TEST(Sprinkler, HeldReadIsNoLoad)
{
    SchedHarness h;
    SprinklerScheduler spk2(true, false, 1);
    h.attach(spk2);
    auto *io = h.addIo({0});
    h.view.hold(0, io->tag + 1);
    EXPECT_FALSE(h.view.occ.idle(0));
    EXPECT_EQ(spk2.next(h.ctx), io->pages[0]);
}

TEST(Sprinkler, LoadLimitMismatchPanics)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 4);
    h.attach(spk3);
    h.addIo({0});
    h.view.occ.setLoadLimit(3);
    EXPECT_DEATH(spk3.next(h.ctx), "load limit");
}

/**
 * A cached FARO set stays clean until a hook marks its chip. A request
 * composed behind the scheduler's back (no onComposed) leaves a clean
 * set holding it, and adopting that set panics instead of handing the
 * NVMHC a composed request.
 */
TEST(Sprinkler, CleanSetHoldingAComposedRequestPanics)
{
    for (const bool rios : {false, true}) {
        SchedHarness h;
        SprinklerScheduler spk(rios, true, 8);
        h.attach(spk);
        auto *io = h.addIo({0, 0});
        MemoryRequest *head = spk.next(h.ctx);
        ASSERT_EQ(head, io->pages[0]);
        head->composed = true;         // no onComposed: chip 0 stays clean
        io->pages[1]->composed = true; // the batch skips it
        EXPECT_DEATH(spk.next(h.ctx), "holds a composed request")
            << "rios " << rios;
    }
}

/**
 * The definition of the Sprinkler picks: the bucket, RIOS and SPK1
 * code as it was before the walks were indexed and the FARO sets
 * cached, unchanged but for reading the context's uncomposed list.
 * RIOS visits every chip from the cursor and asks the test view's
 * outstanding() per chip; SPK1 re-collects the candidates from every
 * page of the lookahead I/Os; every poll builds every set it looks at
 * afresh, with the request-pointer canCoalesce() greedy, and ignores
 * the hazard-release hooks.
 */
class LinearSprinkler : public IoScheduler
{
  public:
    LinearSprinkler(bool rios, bool faro, std::uint32_t window,
                    const test::TestSchedulerView &view)
        : rios_(rios), faro_(faro), window_(window == 0 ? 1 : window),
          view_(view)
    {}

    void
    prepare(std::uint32_t num_chips, std::uint32_t queue_depth) override
    {
        numChips_ = num_chips;
        if (num_chips == 0)
            return;
        ensureBuckets(num_chips - 1);
        for (auto &bucket : buckets_)
            bucket.reserve(std::size_t{queue_depth} * 8);
    }

    void
    onEnqueue(IoRequest &io) override
    {
        for (MemoryRequest *page : io.pages) {
            ensureBuckets(page->chip);
            buckets_[page->chip].push_back(page);
        }
    }

    void
    onRetarget(MemoryRequest &req, std::uint32_t old_chip) override
    {
        if (old_chip < buckets_.size()) {
            auto &bucket = buckets_[old_chip];
            auto it = std::find(bucket.begin(), bucket.end(), &req);
            if (it != bucket.end())
                bucket.erase(it);
        }
        ensureBuckets(req.chip);
        buckets_[req.chip].push_back(&req);
    }

    void
    onComposed(const MemoryRequest &req) override
    {
        if (req.chip >= buckets_.size())
            return;
        auto &bucket = buckets_[req.chip];
        auto it = std::find(bucket.begin(), bucket.end(), &req);
        if (it != bucket.end())
            bucket.erase(it);
    }

    MemoryRequest *
    next(SchedulerContext &ctx) override
    {
        while (batchPos_ < batch_.size()) {
            MemoryRequest *req = batch_[batchPos_++];
            if (!req->composed && ctx.view->schedulable(*req))
                return req;
        }
        return rios_ ? nextRios(ctx) : nextFaroOnly(ctx);
    }

  private:
    void
    ensureBuckets(std::uint32_t chip)
    {
        if (chip >= buckets_.size())
            buckets_.resize(chip + 1);
    }

    void
    compactBucket(std::uint32_t chip)
    {
        auto &bucket = buckets_[chip];
        while (!bucket.empty() && bucket.front()->composed)
            bucket.pop_front();
    }

    MemoryRequest *
    oldest(SchedulerContext &ctx, std::uint32_t chip) const
    {
        for (MemoryRequest *req : buckets_[chip]) {
            if (!req->composed && ctx.view->schedulable(*req))
                return req;
        }
        return nullptr;
    }

    void
    bestSet(SchedulerContext &ctx, std::uint32_t chip,
            std::vector<MemoryRequest *> &out) const
    {
        candScratch_.clear();
        for (MemoryRequest *req : buckets_[chip]) {
            if (!req->composed && ctx.view->schedulable(*req))
                candScratch_.push_back(req);
        }
        bestSetFrom(candScratch_, chip, out);
    }

    void
    bestSetFrom(const std::vector<MemoryRequest *> &candidates,
                std::uint32_t chip, std::vector<MemoryRequest *> &out) const
    {
        out.clear();
        if (candidates.empty())
            return;

        for (const auto slot : touchedTags_)
            tagCount_[slot] = 0;
        touchedTags_.clear();
        for (const auto *req : candidates) {
            const std::size_t slot = tagSlot(req->tag);
            if (slot >= tagCount_.size())
                tagCount_.resize(slot + 1, 0);
            if (tagCount_[slot]++ == 0)
                touchedTags_.push_back(static_cast<std::uint32_t>(slot));
        }

        const auto greedy = [&](FlashOp op,
                                std::vector<MemoryRequest *> &set) {
            set.clear();
            FlashTransaction txn(op, chip);
            for (MemoryRequest *req : candidates) {
                if (req->op != op || set.size() >= window_)
                    continue;
                if (canCoalesce(txn, *req)) {
                    txn.add(req);
                    set.push_back(req);
                }
            }
        };

        greedy(FlashOp::Read, readSet_);
        greedy(FlashOp::Program, writeSet_);

        const auto connectivity =
            [&](const std::vector<MemoryRequest *> &set) {
                std::uint32_t best = 0;
                for (const auto *req : set)
                    best = std::max(best, tagCount_[tagSlot(req->tag)]);
                return best;
            };

        const auto pick = [&](const std::vector<MemoryRequest *> &set) {
            out.assign(set.begin(), set.end());
        };

        if (readSet_.size() != writeSet_.size()) {
            pick(readSet_.size() > writeSet_.size() ? readSet_ : writeSet_);
            return;
        }
        if (readSet_.empty())
            return;
        const auto conn_r = connectivity(readSet_);
        const auto conn_w = connectivity(writeSet_);
        if (conn_r != conn_w) {
            pick(conn_r > conn_w ? readSet_ : writeSet_);
            return;
        }
        pick(readSet_.front()->id <= writeSet_.front()->id ? readSet_
                                                           : writeSet_);
    }

    MemoryRequest *
    takeSet(const std::vector<MemoryRequest *> &set)
    {
        batch_.assign(set.begin() + 1, set.end());
        batchPos_ = 0;
        return set.front();
    }

    MemoryRequest *
    nextRios(SchedulerContext &ctx)
    {
        const std::uint32_t n = numChips_;
        for (std::uint32_t i = 0; i < n; ++i) {
            const auto chip = static_cast<std::uint32_t>((cursor_ + i) % n);
            if (chip >= buckets_.size() || buckets_[chip].empty())
                continue;
            compactBucket(chip);
            if (buckets_[chip].empty())
                continue;

            if (faro_) {
                if (view_.outstanding(chip) >= window_)
                    continue;
                bestSet(ctx, chip, setScratch_);
                if (setScratch_.empty())
                    continue;
                cursor_ = chip + 1;
                return takeSet(setScratch_);
            }

            if (view_.outstanding(chip) > 0)
                continue;
            if (MemoryRequest *req = oldest(ctx, chip)) {
                cursor_ = chip + 1;
                return req;
            }
        }
        return nullptr;
    }

    MemoryRequest *
    nextFaroOnly(SchedulerContext &ctx)
    {
        constexpr std::size_t kLookaheadIos = 4;

        if (faroPerChip_.size() < numChips_)
            faroPerChip_.resize(numChips_);
        for (const auto chip : faroTouched_)
            faroPerChip_[chip].clear();
        faroTouched_.clear();

        std::size_t seen = 0;
        for (IoRequest *io : *ctx.uncomposed) {
            if (io->allComposed())
                continue;
            for (MemoryRequest *page : io->pages) {
                MemoryRequest *req = page;
                if (req->composed || req->composing)
                    continue;
                if (!ctx.view->schedulable(*req))
                    continue;
                if (faroPerChip_[req->chip].empty())
                    faroTouched_.push_back(req->chip);
                faroPerChip_[req->chip].push_back(req);
            }
            if (++seen >= kLookaheadIos)
                break;
        }
        std::sort(faroTouched_.begin(), faroTouched_.end());

        std::size_t best_depth = 0;
        std::uint64_t best_seed = 0;
        bestScratch_.clear();
        for (const auto chip : faroTouched_) {
            if (view_.outstanding(chip) >= window_)
                continue;
            bestSetFrom(faroPerChip_[chip], chip, setScratch_);
            if (setScratch_.empty())
                continue;
            const std::uint64_t seed = setScratch_.front()->id;
            if (setScratch_.size() > best_depth ||
                (setScratch_.size() == best_depth && seed < best_seed)) {
                best_depth = setScratch_.size();
                best_seed = seed;
                std::swap(bestScratch_, setScratch_);
            }
        }
        if (bestScratch_.empty())
            return nullptr;
        return takeSet(bestScratch_);
    }

    bool rios_;
    bool faro_;
    std::uint32_t window_;
    const test::TestSchedulerView &view_;
    std::uint32_t numChips_ = 0;
    std::vector<RingDeque<MemoryRequest *>> buckets_;
    std::uint64_t cursor_ = 0;
    std::vector<MemoryRequest *> batch_;
    std::size_t batchPos_ = 0;
    mutable std::vector<MemoryRequest *> candScratch_;
    mutable std::vector<MemoryRequest *> readSet_;
    mutable std::vector<MemoryRequest *> writeSet_;
    mutable std::vector<std::uint32_t> tagCount_;
    mutable std::vector<std::uint32_t> touchedTags_;
    std::vector<MemoryRequest *> setScratch_;
    std::vector<MemoryRequest *> bestScratch_;
    std::vector<std::vector<MemoryRequest *>> faroPerChip_;
    std::vector<std::uint32_t> faroTouched_;
};

/**
 * Delivers every lifecycle call to both schedulers, so one harness
 * drives the indexed scheduler and the reference in lockstep. The
 * occupancy takes the indexed scheduler's load limit.
 */
class Lockstep : public IoScheduler
{
  public:
    Lockstep(IoScheduler &a, IoScheduler &b) : a_(a), b_(b) {}

    MemoryRequest *next(SchedulerContext &) override { return nullptr; }
    std::uint32_t loadLimit() const override { return a_.loadLimit(); }

    void
    prepare(std::uint32_t num_chips, std::uint32_t queue_depth) override
    {
        a_.prepare(num_chips, queue_depth);
        b_.prepare(num_chips, queue_depth);
    }

    void
    onEnqueue(IoRequest &io) override
    {
        a_.onEnqueue(io);
        b_.onEnqueue(io);
    }

    void
    onRetarget(MemoryRequest &req, std::uint32_t old_chip) override
    {
        a_.onRetarget(req, old_chip);
        b_.onRetarget(req, old_chip);
    }

    void
    onComposed(const MemoryRequest &req) override
    {
        a_.onComposed(req);
        b_.onComposed(req);
    }

    void
    onSchedulable(const MemoryRequest &req) override
    {
        a_.onSchedulable(req);
        b_.onSchedulable(req);
    }

    void
    onBarrierChanged() override
    {
        a_.onBarrierChanged();
        b_.onBarrierChanged();
    }

  private:
    IoScheduler &a_;
    IoScheduler &b_;
};

/**
 * Randomized cross-check of the indexed walks and the per-chip FARO
 * memo against LinearSprinkler, which recomputes everything on every
 * poll, for SPK1, SPK2 and SPK3: random geometries (up to three mask
 * words, so the rotated RIOS walk crosses word boundaries and wraps),
 * windows 1-8, clustered I/Os with random die/plane/page placement,
 * loads set through the occupancy, held reads that own a chip without
 * adding load (a soft decode), retargets, out-of-order composes and
 * recycled tags. Hazards change as the NVMHC changes them: a page is
 * born held (behind an older request on its page) and released once,
 * with onSchedulable; an FUA barrier holds every I/O that arrives
 * while it is up and drops with onBarrierChanged. Every next() must
 * return the same pointer, batch continuations included.
 */
TEST(Sprinkler, MatchesLinearScansOnRandomQueues)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        SchedHarness h(1 + static_cast<std::uint32_t>(rng.nextBelow(8)),
                       1 + static_cast<std::uint32_t>(rng.nextBelow(24)));
        const bool rios = seed % 3 != 0;
        const bool faro = seed % 3 != 1;
        const auto window = 1 + static_cast<std::uint32_t>(rng.nextBelow(8));
        SprinklerScheduler spk(rios, faro, window);
        LinearSprinkler ref(rios, faro, window, h.view);
        Lockstep both(spk, ref);
        h.attach(both);
        const auto chips = h.geo.numChips();

        // Requests behind a hazard, by id; requests from barrier_from
        // on arrived behind the FUA barrier.
        std::map<std::uint64_t, MemoryRequest *> held;
        constexpr auto kNoBarrier = ~std::uint64_t{0};
        std::uint64_t barrier_from = kNoBarrier;
        h.view.schedulableOverride = [&](const MemoryRequest &req) {
            return held.count(req.id) == 0 && req.id < barrier_from;
        };
        std::vector<std::pair<std::uint32_t, TagId>> decoding;

        const auto add_io = [&] {
            // Pages cluster on a window of chips, so chips collect
            // several candidates from one or more I/Os.
            const auto pages = 1 + rng.nextBelow(24);
            const auto span = 1 + rng.nextBelow(std::min<std::uint64_t>(
                                      chips, 1 + rng.nextBelow(16)));
            const auto base = rng.nextBelow(chips);
            std::vector<std::uint32_t> targets;
            for (std::uint64_t i = 0; i < pages; ++i) {
                targets.push_back(static_cast<std::uint32_t>(
                    (base + rng.nextBelow(span)) % chips));
            }
            IoRequest *io = h.addIo(targets, rng.nextBool(0.5));
            for (MemoryRequest *req : io->pages) {
                req->addr.die = static_cast<std::uint32_t>(rng.nextBelow(2));
                req->addr.plane =
                    static_cast<std::uint32_t>(rng.nextBelow(2));
                req->addr.page = static_cast<std::uint32_t>(rng.nextBelow(2));
                if (rng.nextBool(0.2))
                    held.emplace(req->id, req);
            }
        };
        const auto random_io = [&] {
            return h.queue[rng.nextBelow(h.queue.size())];
        };
        const auto random_page = [&] {
            IoRequest *io = random_io();
            return io->pages[rng.nextBelow(io->pages.size())];
        };
        const auto random_chip = [&] {
            return static_cast<std::uint32_t>(rng.nextBelow(chips));
        };

        const auto initial = 1 + rng.nextBelow(8);
        for (std::uint64_t i = 0; i < initial; ++i)
            add_io();

        for (int step = 0; step < 300; ++step) {
            MemoryRequest *want = ref.next(h.ctx);
            ASSERT_EQ(spk.next(h.ctx), want)
                << "rios " << rios << " faro " << faro << " window "
                << window << " seed " << seed
                << " step " << step;

            switch (rng.nextBelow(11)) {
              case 0:
              case 1:
              case 2:
                // The NVMHC composes the pick and commits it.
                if (want != nullptr) {
                    h.compose(want);
                    h.view.setLoad(want->chip,
                                   h.view.outstanding(want->chip) + 1);
                }
                break;
              case 3:
                // A request finished on a random chip.
                if (const auto chip = random_chip();
                    h.view.outstanding(chip) > 0)
                    h.view.setLoad(chip, h.view.outstanding(chip) - 1);
                break;
              case 4:
                h.view.setLoad(random_chip(), static_cast<std::uint32_t>(
                                                  rng.nextBelow(window + 2)));
                break;
              case 5:
                // A read enters or leaves a soft decode on a queued
                // page's chip: the chip is held, its load unchanged.
                if (!decoding.empty() && rng.nextBool(0.5)) {
                    const auto i = rng.nextBelow(decoding.size());
                    h.view.unhold(decoding[i].first, decoding[i].second);
                    decoding[i] = decoding.back();
                    decoding.pop_back();
                } else if (!h.queue.empty()) {
                    const MemoryRequest *req = random_page();
                    const TagId tag = static_cast<TagId>(
                        rng.nextBelow(SchedHarness::kQueueDepth));
                    h.view.hold(req->chip, tag);
                    decoding.emplace_back(req->chip, tag);
                }
                break;
              case 6:
                // The older request on a held page completed.
                if (!held.empty()) {
                    auto it = held.begin();
                    std::advance(it, rng.nextBelow(held.size()));
                    MemoryRequest *req = it->second;
                    held.erase(it);
                    both.onSchedulable(*req);
                }
                break;
              case 7:
                // Readdressing moves an uncomposed read.
                if (!h.queue.empty()) {
                    MemoryRequest *req = random_page();
                    if (!req->composed && req->op == FlashOp::Read)
                        h.retarget(req, random_chip());
                }
                break;
              case 8:
                // Out-of-order compose (a page neither picked).
                if (!h.queue.empty()) {
                    MemoryRequest *req = random_page();
                    if (!req->composed)
                        h.compose(req);
                }
                break;
              case 9:
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
              case 10:
                // An FUA barrier goes up (holding what arrives from now
                // on) or comes down as its I/O leaves the queue.
                if (barrier_from == kNoBarrier) {
                    barrier_from = h.nextReqId;
                } else {
                    barrier_from = kNoBarrier;
                    both.onBarrierChanged();
                }
                break;
            }
        }
    }
}

} // namespace
} // namespace spk
