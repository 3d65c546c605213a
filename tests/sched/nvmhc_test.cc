/**
 * @file
 * Integration-style unit tests for the NVMHC against a small real
 * device built from a FlashBackend and an FTL, and the calls it owes
 * its scheduler: the hazard-release hooks and the uncomposed-I/O list
 * it hands to next().
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controller/flash_backend.hh"
#include "sched/nvmhc.hh"
#include "ssd/ssd.hh"

namespace spk
{
namespace
{

SsdConfig
smallConfig(SchedulerKind kind)
{
    SsdConfig cfg;
    cfg.geometry.numChannels = 2;
    cfg.geometry.chipsPerChannel = 2;
    cfg.geometry.diesPerChip = 2;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 16;
    cfg.scheduler = kind;
    cfg.nvmhc.queueDepth = 4;
    return cfg;
}

TEST(Nvmhc, SingleReadCompletes)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, false, 0, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 1u);
    EXPECT_GT(ssd.results()[0].latency(), 0u);
    EXPECT_EQ(ssd.nvmhc().stats().iosCompleted, 1u);
}

TEST(Nvmhc, WriteCompletesAndCountsBytes)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, true, 0, 8192);
    ssd.run();
    EXPECT_EQ(ssd.nvmhc().stats().bytesWritten, 8192u);
    EXPECT_EQ(ssd.nvmhc().stats().bytesRead, 0u);
}

TEST(Nvmhc, UnalignedIoCoversAllTouchedPages)
{
    Ssd ssd(smallConfig(SchedulerKind::VAS));
    // 1 byte at the end of page 0 plus 1 byte into page 1 -> 2 pages.
    ssd.submitAt(0, false, 2047, 2, false);
    ssd.run();
    EXPECT_EQ(ssd.nvmhc().stats().requestsComposed, 2u);
}

TEST(Nvmhc, QueueDepthCausesStall)
{
    auto cfg = smallConfig(SchedulerKind::VAS);
    cfg.nvmhc.queueDepth = 1;
    Ssd ssd(cfg);
    // Two simultaneous arrivals through a depth-1 queue: the second
    // waits for the first to retire.
    ssd.submitAt(0, false, 0, 2048);
    ssd.submitAt(0, false, 1 << 20, 2048);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 2u);
    EXPECT_GT(ssd.nvmhc().stats().queueStallTime, 0u);
}

TEST(Nvmhc, EveryIoCompletesExactlyOnce)
{
    for (const auto kind :
         {SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
          SchedulerKind::SPK2, SchedulerKind::SPK3}) {
        Ssd ssd(smallConfig(kind));
        constexpr int kIos = 40;
        for (int i = 0; i < kIos; ++i) {
            ssd.submitAt(i * 1000, i % 3 == 0,
                         (static_cast<std::uint64_t>(i) * 40960) %
                             (1 << 22),
                         4096 + (i % 4) * 2048);
        }
        ssd.run();
        EXPECT_EQ(ssd.results().size(), static_cast<size_t>(kIos))
            << schedulerKindName(kind);
        EXPECT_EQ(ssd.nvmhc().stats().iosCompleted,
                  static_cast<std::uint64_t>(kIos));
    }
}

TEST(Nvmhc, OverlappingLpnsKeepOrder)
{
    // A write and a read to the same page, arriving together: the
    // hazard chain must serve them in submission order.
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, true, 4096, 2048);
    ssd.submitAt(1, false, 4096, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 2u);
    // The read (second submission) cannot complete before the write.
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);
}

TEST(Nvmhc, FuaActsAsBarrier)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, true, 0, 2048, /*fua=*/true);
    ssd.submitAt(1, false, 1 << 20, 2048);
    ssd.submitAt(2, false, 2 << 20, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 3u);
    // The FUA write completes first even under SPK3 reordering.
    EXPECT_TRUE(ssd.results()[0].isWrite);
}

TEST(Nvmhc, ReadsOfUnwrittenDataAreBackfilled)
{
    Ssd ssd(smallConfig(SchedulerKind::PAS));
    ssd.submitAt(0, false, 5 << 20, 16384);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 1u);
    // The backfill bound mappings for the touched pages.
    EXPECT_GT(ssd.ftl().mapping().liveCount(), 0u);
}

TEST(Nvmhc, IdleAfterRun)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK2));
    ssd.submitAt(0, true, 0, 65536);
    ssd.run();
    EXPECT_TRUE(ssd.nvmhc().idle());
    EXPECT_EQ(ssd.nvmhc().outstandingIos(), 0u);
}

TEST(Nvmhc, DeviceActiveTimeBounded)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(1000, false, 0, 2048);
    ssd.run();
    const Tick now = ssd.events().now();
    const Tick active = ssd.nvmhc().deviceActiveTime(now);
    EXPECT_GT(active, 0u);
    EXPECT_LE(active, now);
}

/**
 * Forwards every call to a real scheduler and records the hazard
 * hooks the NVMHC delivers, by request id.
 */
class RecordingScheduler : public IoScheduler
{
  public:
    explicit RecordingScheduler(std::unique_ptr<IoScheduler> inner)
        : inner_(std::move(inner))
    {}

    MemoryRequest *
    next(SchedulerContext &ctx) override
    {
        return inner_->next(ctx);
    }

    void
    prepare(std::uint32_t num_chips, std::uint32_t queue_depth) override
    {
        inner_->prepare(num_chips, queue_depth);
    }

    std::uint32_t loadLimit() const override { return inner_->loadLimit(); }
    void onEnqueue(IoRequest &io) override { inner_->onEnqueue(io); }

    void
    onRetarget(MemoryRequest &req, std::uint32_t old_chip) override
    {
        inner_->onRetarget(req, old_chip);
    }

    void
    onComposed(const MemoryRequest &req) override
    {
        inner_->onComposed(req);
    }

    void
    onSchedulable(const MemoryRequest &req) override
    {
        schedulable.push_back(req.id);
        inner_->onSchedulable(req);
    }

    void
    onBarrierChanged() override
    {
        ++barrierChanges;
        inner_->onBarrierChanged();
    }

    bool
    wantsReaddressing() const override
    {
        return inner_->wantsReaddressing();
    }

    std::vector<std::uint64_t> schedulable;
    std::uint32_t barrierChanges = 0;

  private:
    std::unique_ptr<IoScheduler> inner_;
};

/**
 * A 2-channel x 2-chip device built around an Nvmhc from a
 * FlashBackend and an FTL, so the test holds its scheduler: a
 * RecordingScheduler around @p kind. No GC, parity or faults, and no
 * decision window: a launch fires at the tick of its commit.
 */
struct WiredDevice
{
    static constexpr std::uint32_t kQueueDepth = 8;

    static FlashGeometry
    geometry()
    {
        FlashGeometry geo;
        geo.numChannels = 2;
        geo.chipsPerChannel = 2;
        geo.blocksPerPlane = 16;
        geo.pagesPerBlock = 16;
        return geo;
    }

    EventQueue events;
    FlashBackend backend{events, geometry(), FlashTiming{}, 0, kQueueDepth,
                         [this](MemoryRequest *req) {
                             nvmhc->onRequestFinished(req);
                         }};
    Ftl ftl{geometry(), FtlConfig{}};
    RecordingScheduler *recorder = nullptr;
    std::unique_ptr<Nvmhc> nvmhc;
    std::uint32_t completed = 0;

    explicit WiredDevice(SchedulerKind kind)
    {
        auto sched = std::make_unique<RecordingScheduler>(
            makeScheduler(kind, 8));
        recorder = sched.get();
        NvmhcConfig cfg;
        cfg.queueDepth = kQueueDepth;
        nvmhc = std::make_unique<Nvmhc>(
            events, backend, ftl, std::move(sched), cfg,
            [this](const IoRequest &) { ++completed; });
    }

    /** The first page of the queued I/O @p i places from the front. */
    std::uint64_t
    pageId(std::size_t i, std::size_t page = 0) const
    {
        return nvmhc->queue()[i]->pages[page]->id;
    }
};

const SchedulerKind kAllKinds[] = {SchedulerKind::VAS, SchedulerKind::PAS,
                                   SchedulerKind::SPK1, SchedulerKind::SPK2,
                                   SchedulerKind::SPK3};

/**
 * Two one-page writes to one page: the second waits behind the first
 * on the page's hazard chain, and the first's completion reports the
 * second to the scheduler, once.
 */
TEST(NvmhcHooks, ChainSuccessorIsReportedSchedulable)
{
    for (const SchedulerKind kind : kAllKinds) {
        WiredDevice dev(kind);
        dev.nvmhc->submit(true, 5, 1, false, 0);
        dev.nvmhc->submit(true, 5, 1, false, 0);
        const std::uint64_t second = dev.pageId(1);
        dev.events.run();
        EXPECT_EQ(dev.completed, 2u) << schedulerKindName(kind);
        EXPECT_EQ(dev.recorder->schedulable,
                  std::vector<std::uint64_t>{second})
            << schedulerKindName(kind);
        EXPECT_EQ(dev.recorder->barrierChanges, 0u);
    }
}

/**
 * An I/O leaving the queue while an FUA barrier is up reports a
 * barrier change: the read older than the FUA write and the FUA write
 * itself. The younger read leaves with the barrier down.
 */
TEST(NvmhcHooks, LeavingUnderAnFuaBarrierIsReported)
{
    for (const SchedulerKind kind : kAllKinds) {
        WiredDevice dev(kind);
        dev.nvmhc->submit(false, 64, 2, false, 0);
        dev.nvmhc->submit(true, 128, 2, true, 0);
        dev.nvmhc->submit(false, 192, 2, false, 0);
        dev.events.run();
        EXPECT_EQ(dev.completed, 3u) << schedulerKindName(kind);
        EXPECT_EQ(dev.recorder->barrierChanges, 2u)
            << schedulerKindName(kind);
        EXPECT_TRUE(dev.recorder->schedulable.empty());

        WiredDevice plain(kind);
        plain.nvmhc->submit(false, 64, 2, false, 0);
        plain.nvmhc->submit(true, 128, 2, false, 0);
        plain.events.run();
        EXPECT_EQ(plain.recorder->barrierChanges, 0u)
            << schedulerKindName(kind);
    }
}

/**
 * After every event, the uncomposed list is exactly the queued I/Os
 * with a page left to compose, in arrival order: an I/O leaves it when
 * its last page composes, not before and not later.
 */
TEST(NvmhcHooks, UncomposedListIsTheQueueLessComposedIos)
{
    for (const SchedulerKind kind : kAllKinds) {
        WiredDevice dev(kind);
        // Ten multi-page I/Os through an eight-deep queue, with
        // overlapping pages so hazards hold some back.
        for (std::uint32_t i = 0; i < 10; ++i)
            dev.nvmhc->submit(i % 3 == 0, (i * 5) % 24, 1 + i % 6, false, 0);
        std::uint64_t steps = 0;
        std::uint64_t partly_composed = 0;
        while (dev.events.step()) {
            std::vector<const IoRequest *> want;
            for (const IoRequest *io : dev.nvmhc->queue()) {
                if (!io->allComposed())
                    want.push_back(io);
                partly_composed += io->composedCount > 0 && !io->allComposed();
            }
            std::vector<const IoRequest *> got;
            for (const IoRequest *io : dev.nvmhc->uncomposed())
                got.push_back(io);
            ASSERT_EQ(got, want) << schedulerKindName(kind) << " step "
                                 << steps;
            ++steps;
        }
        EXPECT_EQ(dev.completed, 10u) << schedulerKindName(kind);
        EXPECT_TRUE(dev.nvmhc->uncomposed().empty());
        EXPECT_GT(partly_composed, 0u) << schedulerKindName(kind);
    }
}

/**
 * A request that completes twice dies on the LPN hazard chain: its
 * first completion retired it from the chain it headed. The I/O only
 * counts finished pages, so this check is what catches the double
 * completion.
 */
TEST(Nvmhc, SecondCompletionOfARequestDies)
{
    WiredDevice dev(SchedulerKind::VAS);
    dev.nvmhc->submit(false, 0, 2, false, 0);
    const IoRequest *io = dev.nvmhc->queue().front();
    // Each page launches alone at its commit, so they finish in two
    // different events.
    while (io->finishedCount == 0)
        ASSERT_TRUE(dev.events.step());
    ASSERT_EQ(io->finishedCount, 1u);
    MemoryRequest *done =
        io->pages[0]->onLpnChain ? io->pages[1] : io->pages[0];
    ASSERT_FALSE(done->onLpnChain);
    EXPECT_DEATH(dev.nvmhc->onRequestFinished(done),
                 "LPN chain corrupted at completion");
}

} // namespace
} // namespace spk
