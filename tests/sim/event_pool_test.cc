/**
 * @file
 * Pooled-event-kernel properties: same-tick FIFO ordering survives the
 * pool refactor, event nodes are recycled rather than re-allocated,
 * and a steady-state EventQueue::run over a million events performs
 * zero heap allocations.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

TEST(EventPool, SameTickFifoOrderAcrossRecycledNodes)
{
    EventQueue q;
    std::vector<int> order;
    // Two generations of same-tick events: the second generation is
    // scheduled from inside dispatch and reuses freed pool nodes.
    for (int i = 0; i < 16; ++i) {
        q.schedule(5, [&order, &q, i] {
            order.push_back(i);
            q.schedule(5, [&order, i] { order.push_back(100 + i); });
        });
    }
    q.run();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(order[16 + i], 100 + i);
    }
}

TEST(EventPool, NodesAreRecycledNotReallocated)
{
    EventQueue q;
    int fired = 0;
    // Burst to establish the pool high-water mark.
    for (int i = 0; i < 1000; ++i)
        q.schedule(i, [&fired] { ++fired; });
    q.run();
    const std::size_t capacity = q.poolCapacity();
    EXPECT_GE(capacity, 1000u);
    EXPECT_EQ(q.poolFree(), capacity);

    // Any number of subsequent schedule/dispatch cycles within the
    // high-water mark reuses pooled nodes; capacity must not grow.
    for (int cycle = 0; cycle < 50; ++cycle) {
        for (int i = 0; i < 1000; ++i)
            q.scheduleAfter(1 + i, [&fired] { ++fired; });
        q.run();
    }
    EXPECT_EQ(q.poolCapacity(), capacity);
    EXPECT_EQ(q.poolFree(), capacity);
    EXPECT_EQ(fired, 51 * 1000);
}

TEST(EventPool, MillionEventSteadyStateRunIsAllocationFree)
{
    EventQueue q;
    std::uint64_t count = 0;
    constexpr std::uint64_t kTotal = 1'000'000;

    // 64 self-rescheduling chains; warm up until the pool and the
    // heap's backing vector hit their high-water marks.
    struct Chain
    {
        EventQueue *q;
        std::uint64_t *count;
        int i;
        void
        operator()() const
        {
            if (++*count < kTotal)
                q->scheduleAfter(1 + (i % 7), *this);
        }
    };
    for (int i = 0; i < 64; ++i)
        q.schedule(i % 5, Chain{&q, &count, i});
    q.run(10'000); // warmup: pool chunks + heap vector growth happen here

    const AllocWindow window;
    q.run();
    const std::uint64_t allocs_during = window.count();

    // Every chain fires one final time after the target is crossed.
    EXPECT_GE(count, kTotal);
    EXPECT_EQ(allocs_during, 0u)
        << "steady-state event loop must not touch the heap";
}

TEST(EventPool, SteadyStateHostIoEnqueueIsAllocationFree)
{
    // The assertion window covers the whole host-I/O path, enqueue
    // included: IoRequest slots, per-page MemoryRequests and the
    // completion bitmap recycle through slabs keyed by the bounded
    // NCQ queue depth, the LPN hazard chains are intrusive, and every
    // flow-through queue is a RingDeque — so once the warmup run has
    // established all high-water marks, submitting and completing
    // further I/Os must not touch the heap at all.
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;
    Ssd ssd(cfg);

    SyntheticConfig wl;
    wl.numIos = 1100;
    wl.readFraction = 1.0; // reads backfill mappings; no GC pressure
    wl.spanBytes = cfg.geometry.totalPages() *
                   cfg.geometry.pageSizeBytes / 4;
    wl.seed = 5;
    ssd.replay(generateSynthetic(wl));
    ssd.run();

    wl.numIos = 300;
    wl.seed = 5; // same stream => warmed LPN set, no fresh backfill
    const Trace probe = generateSynthetic(wl);
    const Tick start = ssd.events().now();

    const AllocWindow window;
    for (const auto &rec : probe) {
        ssd.submitAt(start + rec.arrival, rec.isWrite, rec.offsetBytes,
                     rec.sizeBytes, rec.fua);
    }
    ssd.run();
    EXPECT_EQ(window.count(), 0u)
        << "steady-state host-I/O enqueue+completion must not "
           "allocate";
    EXPECT_GE(ssd.metrics().iosCompleted, 1400u);
}

TEST(EventPool, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(9, [] {}), "past");
}

} // namespace
} // namespace spk
