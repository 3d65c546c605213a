/**
 * @file
 * Unit tests for the VAS baseline: strict FIFO with head-of-line
 * blocking on chip conflicts.
 */

#include <gtest/gtest.h>

#include "sched/vas.hh"
#include "tests/sched/sched_test_util.hh"

namespace spk
{
namespace
{

using test::SchedHarness;

TEST(Vas, ComposesHeadIoInPageOrder)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *io = h.addIo({0, 1, 2});

    for (std::uint32_t i = 0; i < 3; ++i) {
        MemoryRequest *req = vas.next(h.ctx);
        ASSERT_NE(req, nullptr);
        EXPECT_EQ(req, io->pages[i]);
        h.compose(req);
    }
    EXPECT_EQ(vas.next(h.ctx), nullptr);
}

TEST(Vas, BlocksOnBusyChip)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    h.addIo({0, 1});
    h.view.setLoad(0, 1); // chip 0 occupied
    // Head request targets chip 0 -> the whole pipeline stalls, even
    // though chip 1 is free (the paper's Figure 4 pathology).
    EXPECT_EQ(vas.next(h.ctx), nullptr);

    h.view.setLoad(0, 0);
    EXPECT_NE(vas.next(h.ctx), nullptr);
}

TEST(Vas, DoesNotReorderAcrossIos)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *first = h.addIo({0});
    auto *second = h.addIo({1});
    h.view.setLoad(0, 1);
    // Second I/O's chip is idle, but VAS is FIFO: nothing to do.
    EXPECT_EQ(vas.next(h.ctx), nullptr);

    h.view.setLoad(0, 0);
    EXPECT_EQ(vas.next(h.ctx), first->pages[0]);
    h.compose(first->pages[0]);
    EXPECT_EQ(vas.next(h.ctx), second->pages[0]);
}

TEST(Vas, AdvancesToNextIoAfterHeadFullyComposed)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *first = h.addIo({0, 0});
    auto *second = h.addIo({2});
    h.compose(first->pages[0]);
    h.compose(first->pages[1]);
    EXPECT_EQ(vas.next(h.ctx), second->pages[0]);
}

TEST(Vas, HazardStallsPipeline)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *io = h.addIo({0, 1});
    h.view.schedulableOverride = [&](const MemoryRequest &req) {
        return &req != io->pages[0];
    };
    EXPECT_EQ(vas.next(h.ctx), nullptr);
}

/**
 * A retired I/O's tag comes back on a new I/O, which VAS starts at its
 * page 0: the next page is read from the I/O's own composed count, not
 * from anything kept per tag.
 */
TEST(Vas, RecycledTagStartsAtPageZero)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *first = h.addIo({0, 1, 2});
    for (MemoryRequest *page : first->pages)
        h.compose(page);
    h.retire(first);

    auto *second = h.addIo({3, 2});
    ASSERT_EQ(second->tag, first->tag);
    EXPECT_EQ(vas.next(h.ctx), second->pages[0]);
    h.compose(second->pages[0]);
    EXPECT_EQ(vas.next(h.ctx), second->pages[1]);
}

/** The page at the I/O's composed count is the first one not composed;
 *  one composed there means something composed out of page order. */
TEST(VasDeathTest, ComposedPageAtComposedCountDies)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *io = h.addIo({0, 1});
    io->pages[0]->composed = true; // composedCount stays 0
    EXPECT_DEATH(vas.next(h.ctx), "already composed");
}

/**
 * A read in a soft decode keeps its chip from being idle but adds no
 * load: VAS still serves the chip, because it stalls on load, not on
 * idleness.
 */
TEST(Vas, HeldReadIsNoLoad)
{
    SchedHarness h;
    VasScheduler vas;
    h.attach(vas);
    auto *io = h.addIo({0});
    h.view.hold(0, io->tag + 1);
    EXPECT_FALSE(h.view.occ.idle(0));
    EXPECT_EQ(vas.next(h.ctx), io->pages[0]);
}

TEST(Vas, NameIsVas)
{
    VasScheduler vas;
    EXPECT_STREQ(schedulerKindName(SchedulerKind::VAS), "VAS");
    EXPECT_EQ(parseSchedulerKind("vas"), SchedulerKind::VAS);
    EXPECT_FALSE(vas.wantsReaddressing());
    EXPECT_EQ(vas.loadLimit(), 1u);
}

} // namespace
} // namespace spk
