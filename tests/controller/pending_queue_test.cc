/**
 * @file
 * Lockstep oracle for the flash controller's transaction pick.
 *
 * PendingQueue::take() scans coalescing keys, stops after the last
 * entry of the seed's operation, closes the holes its picks leave and
 * hands back the picks with their keys. The reference below is the
 * pick as FlashController::tryLaunch made it before that, unchanged:
 * the oldest request seeds; a linear canCoalesce scan skips retried
 * reads and stops at the chip's plane count; each pick leaves the
 * queue by find plus erase. Both run over random per-chip queues, and
 * every transaction (its requests, in order, each beside its own key)
 * and the queue left behind must match.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "controller/flash_controller.hh"
#include "sim/rng.hh"
#include "tests/flash/transaction_oracle.hh"

namespace spk
{
namespace
{

using test::canCoalesce;
using test::FlashTransaction;

/** canCoalesce as it was written before the ONFI rule was shared
 *  with the key scan. */
bool
linearCanCoalesce(const FlashTransaction &txn, const MemoryRequest &req)
{
    if (txn.empty())
        return true;
    if (!req.translated || req.chip != txn.chip() || req.op != txn.op())
        return false;
    for (const auto *existing : txn.requests()) {
        if (existing->addr.die != req.addr.die)
            continue;
        if (existing->addr.plane == req.addr.plane)
            return false;
        // Plane sharing within a die needs the same page offset
        // (different block/plane addresses are fine).
        if (existing->addr.page != req.addr.page)
            return false;
    }
    return true;
}

/** The reference pick: seed, linear scan, find plus erase. */
FlashTransaction
linearTake(RingDeque<MemoryRequest *> &pending, std::size_t max_size)
{
    MemoryRequest *seed = pending.front();
    FlashTransaction txn(seed->op, seed->chip);
    txn.add(seed);

    if (seed->op != FlashOp::Erase && seed->retryAttempt == 0) {
        for (auto it = pending.begin() + 1;
             it != pending.end() && txn.size() < max_size; ++it) {
            const bool fits = linearCanCoalesce(txn, **it);
            // The shared rule must decide as the original did.
            EXPECT_EQ(canCoalesce(txn, **it), fits);
            if ((*it)->retryAttempt == 0 && fits)
                txn.add(*it);
        }
    }

    for (const auto *req : txn.requests()) {
        auto it = std::find(pending.begin(), pending.end(), req);
        pending.erase(it);
    }
    return txn;
}

/** @p key is @p req's CoalesceKey. */
void
expectKeyOf(const CoalesceKey &key, const MemoryRequest &req)
{
    const CoalesceKey want = CoalesceKey::of(req);
    EXPECT_EQ(key.op, want.op);
    EXPECT_EQ(key.retried, want.retried);
    EXPECT_EQ(key.die, want.die);
    EXPECT_EQ(key.plane, want.plane);
    EXPECT_EQ(key.page, want.page);
}

/** One random chip: its geometry and the two queues in lockstep. */
struct Lockstep
{
    Rng rng;
    std::uint32_t dies;
    std::uint32_t planes;
    std::uint32_t pages; //!< page offsets drawn from [0, pages)
    PendingQueue queue;
    RingDeque<MemoryRequest *> reference;
    std::vector<std::unique_ptr<MemoryRequest>> pool;
    /** The last transaction's requests; a retry re-queues one of its
     *  reads. */
    std::vector<MemoryRequest *> executing;
    std::uint64_t transactions = 0;
    std::uint64_t coalesced = 0; //!< transactions of two or more
    std::uint64_t filled = 0;    //!< ... that filled every plane
    std::uint64_t retriesQueued = 0;

    explicit Lockstep(std::uint64_t seed)
        : rng(seed),
          dies(static_cast<std::uint32_t>(1 + rng.nextBelow(4))),
          planes(static_cast<std::uint32_t>(1 + rng.nextBelow(8))),
          pages(static_cast<std::uint32_t>(1 + rng.nextBelow(3)))
    {}

    MemoryRequest *
    make()
    {
        auto req = std::make_unique<MemoryRequest>();
        req->id = pool.size();
        const auto draw = rng.nextBelow(10);
        req->op = draw < 6   ? FlashOp::Read
                  : draw < 9 ? FlashOp::Program
                             : FlashOp::Erase;
        req->addr.die = static_cast<std::uint32_t>(rng.nextBelow(dies));
        req->addr.plane =
            static_cast<std::uint32_t>(rng.nextBelow(planes));
        req->addr.page = static_cast<std::uint32_t>(rng.nextBelow(pages));
        req->chip = 3;
        req->translated = true;
        pool.push_back(std::move(req));
        return pool.back().get();
    }

    void
    push(MemoryRequest *req, bool front)
    {
        queue.push(req, front);
        if (front)
            reference.push_front(req);
        else
            reference.push_back(req);
    }

    /** A read of the last transaction fails its sense and re-queues
     *  at the front for the next ladder step. */
    void
    requeueRetry()
    {
        const auto read = std::find_if(
            executing.begin(), executing.end(), [](MemoryRequest *r) {
                return r->op == FlashOp::Read;
            });
        if (read == executing.end())
            return;
        MemoryRequest *req = *read;
        executing.erase(read);
        ++req->retryAttempt;
        push(req, true);
        ++retriesQueued;
    }

    void
    launch()
    {
        const std::size_t max_size = std::size_t{dies} * planes;
        const FlashTransaction want = linearTake(reference, max_size);
        std::vector<MemoryRequest *> got;
        CoalesceKeys keys;
        queue.take(max_size, got, keys);
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               want.requests().begin(),
                               want.requests().end()))
            << "transaction " << transactions;
        // Each pick's key is its own, of the seed's op, and coalescible
        // with every other pick's.
        ASSERT_EQ(keys.size(), got.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            expectKeyOf(keys[i], *got[i]);
            ASSERT_EQ(keys[i].op, keys[0].op);
            for (std::size_t j = 0; j < i; ++j)
                ASSERT_TRUE(coalescible(keys[j], keys[i])) << i << " " << j;
        }
        ++transactions;
        coalesced += got.size() > 1;
        filled += got.size() > 1 && got.size() == max_size;
        executing = std::move(got);
    }

    /** The queue left behind: the same requests in the same order,
     *  each beside its own key, and the per-op counts right. */
    void
    checkQueue() const
    {
        ASSERT_EQ(queue.size(), reference.size());
        std::array<std::uint32_t, kFlashOps> ops{};
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const auto &entry = queue.entries[i];
            ASSERT_EQ(entry.req, reference[i]) << "position " << i;
            expectKeyOf(entry.key, *entry.req);
            ++ops[static_cast<std::size_t>(entry.key.op)];
        }
        EXPECT_EQ(queue.opCount, ops);
    }
};

TEST(PendingQueue, TakeMatchesLinearPickInLockstep)
{
    std::uint64_t transactions = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t filled = 0;
    std::uint64_t retries = 0;
    std::size_t deepest = 0;
    for (std::uint64_t seed = 1; seed <= 320; ++seed) {
        SCOPED_TRACE(seed);
        Lockstep s(seed);
        // Back commits outpace launches by a per-seed margin, so some
        // queues stay a few entries deep and others grow to hundreds.
        const auto back = 30 + s.rng.nextBelow(40);
        for (int step = 0; step < 400; ++step) {
            const auto draw = s.rng.nextBelow(100);
            if (draw < back) {
                s.push(s.make(), false);
            } else if (draw < back + 10) {
                s.push(s.make(), true); // GC priority
            } else if (draw < back + 20) {
                s.requeueRetry();
            } else if (!s.reference.empty()) {
                s.launch();
            }
            s.checkQueue();
            if (testing::Test::HasFatalFailure())
                return;
            deepest = std::max(deepest, s.reference.size());
        }
        while (!s.reference.empty()) {
            s.launch();
            s.checkQueue();
            if (testing::Test::HasFatalFailure())
                return;
        }
        transactions += s.transactions;
        coalesced += s.coalesced;
        filled += s.filled;
        retries += s.retriesQueued;
    }
    // The draw reaches every path the pick has.
    EXPECT_GT(transactions, 30000u);
    EXPECT_GT(coalesced, transactions / 4);
    EXPECT_GT(filled, 1000u);
    EXPECT_GT(retries, 3000u);
    EXPECT_GT(deepest, 100u);
}

} // namespace
} // namespace spk
