/**
 * @file
 * LpnChainMap: FIFO semantics per LPN, backward-shift deletion
 * correctness under churn (cross-checked against a std::unordered_map
 * reference), the head and on-chain bits it marks on each request,
 * and steady-state allocation freedom.
 */

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/alloc_counter.hh"

#include "sched/lpn_chain.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

TEST(LpnChainMap, FifoPerLpn)
{
    LpnChainMap map;
    MemoryRequest a, b, c, other;
    map.pushBack(7, &a);
    map.pushBack(7, &b);
    map.pushBack(9, &other);
    map.pushBack(7, &c);

    EXPECT_EQ(map.front(7), &a);
    EXPECT_EQ(map.front(9), &other);
    EXPECT_EQ(map.front(8), nullptr);
    EXPECT_EQ(map.size(), 4u);
    EXPECT_EQ(map.chains(), 2u);
    EXPECT_TRUE(a.lpnHead && other.lpnHead);
    EXPECT_FALSE(b.lpnHead || c.lpnHead);

    EXPECT_EQ(map.popFront(7), &a);
    EXPECT_FALSE(a.lpnHead || a.onLpnChain);
    EXPECT_TRUE(b.lpnHead && b.onLpnChain);
    EXPECT_EQ(map.front(7), &b);
    EXPECT_EQ(map.popFront(7), &b);
    EXPECT_EQ(map.popFront(7), &c);
    EXPECT_EQ(map.front(7), nullptr);
    EXPECT_EQ(map.popFront(7), nullptr);
    EXPECT_EQ(map.chains(), 1u);
}

TEST(LpnChainMap, ForEachWalksOldestFirst)
{
    LpnChainMap map;
    std::vector<MemoryRequest> reqs(5);
    for (auto &r : reqs)
        map.pushBack(3, &r);
    std::vector<MemoryRequest *> seen;
    map.forEach(3, [&](MemoryRequest *r) { seen.push_back(r); });
    ASSERT_EQ(seen.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(seen[i], &reqs[i]);
    map.forEach(4, [&](MemoryRequest *) { FAIL(); });
}

TEST(LpnChainMap, MatchesReferenceUnderChurn)
{
    // Random insert/pop churn over a clustered key set exercises
    // probe-sequence collisions and backward-shift deletion.
    LpnChainMap map;
    std::unordered_map<Lpn, std::deque<MemoryRequest *>> ref;
    std::vector<std::unique_ptr<MemoryRequest>> storage;
    Rng rng(123);
    std::uint64_t heads_seen = 0;

    for (int step = 0; step < 50'000; ++step) {
        const Lpn lpn = rng.nextBelow(97) * 64; // force hash clusters
        if (rng.nextBool(0.55)) {
            storage.push_back(std::make_unique<MemoryRequest>());
            map.pushBack(lpn, storage.back().get());
            ref[lpn].push_back(storage.back().get());
        } else {
            MemoryRequest *got = map.popFront(lpn);
            auto it = ref.find(lpn);
            if (it == ref.end()) {
                ASSERT_EQ(got, nullptr);
            } else {
                ASSERT_EQ(got, it->second.front());
                // Off the chain, it holds neither bit.
                ASSERT_FALSE(got->lpnHead || got->onLpnChain);
                it->second.pop_front();
                if (it->second.empty())
                    ref.erase(it);
            }
        }
        // Every chained request is on its chain, and heads it exactly
        // when it is the reference chain's front.
        for (const auto &[k, chain] : ref) {
            for (const MemoryRequest *req : chain) {
                ASSERT_TRUE(req->onLpnChain) << "step " << step;
                ASSERT_EQ(req->lpnHead, req == chain.front())
                    << "step " << step;
                heads_seen += req->lpnHead;
            }
        }
        if (step % 1000 == 0) {
            ASSERT_EQ(map.chains(), ref.size());
            for (const auto &[k, chain] : ref)
                ASSERT_EQ(map.front(k), chain.front());
        }
    }
    EXPECT_GT(heads_seen, 1'000'000u);
}

TEST(LpnChainMap, SteadyStateChurnIsAllocationFree)
{
    LpnChainMap map;
    std::vector<MemoryRequest> reqs(256);
    // Warm to the high-water mark: 256 distinct LPNs at once.
    for (std::size_t i = 0; i < reqs.size(); ++i)
        map.pushBack(i * 13, &reqs[i]);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        map.popFront(i * 13);

    const AllocWindow window;
    for (int cycle = 0; cycle < 500; ++cycle) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            map.pushBack(i * 13 + cycle, &reqs[i]);
        for (std::size_t i = 0; i < reqs.size(); ++i)
            map.popFront(i * 13 + cycle);
    }
    EXPECT_EQ(window.count(), 0u);
    EXPECT_EQ(map.size(), 0u);
}

} // namespace
} // namespace spk
