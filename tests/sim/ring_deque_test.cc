/**
 * @file
 * RingDeque behaves like std::deque for the operations the simulator
 * uses, and stops allocating once it reaches its high-water mark.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "sim/alloc_counter.hh"
#include "sim/ring_deque.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

TEST(RingDeque, PushPopBothEnds)
{
    RingDeque<int> dq;
    EXPECT_TRUE(dq.empty());
    dq.push_back(2);
    dq.push_back(3);
    dq.push_front(1);
    EXPECT_EQ(dq.size(), 3u);
    EXPECT_EQ(dq.front(), 1);
    EXPECT_EQ(dq.back(), 3);
    dq.pop_front();
    EXPECT_EQ(dq.front(), 2);
    dq.pop_back();
    EXPECT_EQ(dq.back(), 2);
    dq.pop_front();
    EXPECT_TRUE(dq.empty());
}

TEST(RingDeque, IterationAndFindAcrossWrap)
{
    RingDeque<int> dq;
    // Force the head to travel so live elements wrap the buffer edge.
    for (int i = 0; i < 6; ++i)
        dq.push_back(i);
    for (int i = 0; i < 5; ++i)
        dq.pop_front();
    for (int i = 6; i < 12; ++i)
        dq.push_back(i);

    std::vector<int> seen;
    for (const int v : dq)
        seen.push_back(v);
    EXPECT_EQ(seen, (std::vector<int>{5, 6, 7, 8, 9, 10, 11}));

    const auto it = std::find(dq.begin(), dq.end(), 9);
    ASSERT_NE(it, dq.end());
    EXPECT_EQ(it - dq.begin(), 4);
    EXPECT_EQ(*(dq.begin() + 2), 7);
}

TEST(RingDeque, EraseShiftsTail)
{
    RingDeque<int> dq;
    for (int i = 0; i < 5; ++i)
        dq.push_back(i);
    dq.erase(std::find(dq.begin(), dq.end(), 2));
    std::vector<int> seen(dq.begin(), dq.end());
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 3, 4}));
    dq.erase(dq.begin());
    dq.erase(dq.end() - 1);
    seen.assign(dq.begin(), dq.end());
    EXPECT_EQ(seen, (std::vector<int>{1, 3}));
}

TEST(RingDeque, MatchesStdDequeUnderRandomOps)
{
    RingDeque<int> dq;
    std::deque<int> ref;
    Rng rng(99);
    for (int step = 0; step < 20'000; ++step) {
        const auto op = rng.nextBelow(5);
        const int v = static_cast<int>(rng.nextBelow(1000));
        if (op == 0 || ref.size() < 2) {
            dq.push_back(v);
            ref.push_back(v);
        } else if (op == 1) {
            dq.push_front(v);
            ref.push_front(v);
        } else if (op == 2) {
            dq.pop_front();
            ref.pop_front();
        } else if (op == 3) {
            dq.pop_back();
            ref.pop_back();
        } else {
            const auto at = rng.nextBelow(ref.size());
            dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(at));
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at));
        }
        ASSERT_EQ(dq.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(dq.front(), ref.front());
            ASSERT_EQ(dq.back(), ref.back());
        }
    }
    EXPECT_TRUE(std::equal(dq.begin(), dq.end(), ref.begin()));
}

TEST(RingDeque, SteadyStateFlowThroughIsAllocationFree)
{
    RingDeque<int> dq;
    for (int i = 0; i < 100; ++i)
        dq.push_back(i); // high-water mark
    while (!dq.empty())
        dq.pop_front();

    const AllocWindow window;
    // A std::deque frees and re-allocates a block every ~64 elements
    // here; the ring must not touch the heap at all.
    for (int cycle = 0; cycle < 1000; ++cycle) {
        for (int i = 0; i < 100; ++i)
            dq.push_back(i);
        for (int i = 0; i < 100; ++i)
            dq.pop_front();
    }
    EXPECT_EQ(window.count(), 0u);
}

} // namespace
} // namespace spk
