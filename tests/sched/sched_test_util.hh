/**
 * @file
 * Shared helpers for scheduler unit tests: build fake queues of I/O
 * requests with hand-placed physical targets and a controllable
 * SchedulerContext.
 */

#ifndef SPK_TESTS_SCHED_TEST_UTIL_HH
#define SPK_TESTS_SCHED_TEST_UTIL_HH

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "flash/geometry.hh"
#include "sched/scheduler.hh"
#include "sim/ring_deque.hh"

namespace spk
{
namespace test
{

/**
 * Hand-controllable SchedulerView. occupy()/release() add and remove
 * one outstanding request of a given tag: a hold in the occupancy, the
 * way the flash controllers do, and one more or less load. setLoad()
 * sets a chip's load, in a test-owned map that outstanding() reads
 * and in the occupancy's load row. hold()/unhold() model a read in a
 * soft decode: it holds the chip under its tag but adds no load. The
 * view counts each tag's holds itself, for othersOutstanding(). The
 * hazard gate can be overridden per test with a std::function hook
 * (test-only convenience; the production view in the NVMHC is
 * closure-free).
 */
struct TestSchedulerView : SchedulerView
{
    std::map<std::uint32_t, std::uint32_t> outstandingMap;
    std::function<bool(const MemoryRequest &)> schedulableOverride;
    ChipOccupancy occ;
    /** Outstanding requests per (chip, tag slot). */
    std::map<std::pair<std::uint32_t, std::size_t>, std::uint32_t> perTag;

    /** @p chip's load, as setLoad() last set it. */
    std::uint32_t
    outstanding(std::uint32_t chip) const
    {
        const auto it = outstandingMap.find(chip);
        return it == outstandingMap.end() ? 0u : it->second;
    }

    const ChipOccupancy &occupancy() const override { return occ; }

    bool
    schedulable(const MemoryRequest &req) const override
    {
        return schedulableOverride ? schedulableOverride(req) : true;
    }

    /** One more outstanding request of @p tag (default: GC) on @p chip. */
    void
    occupy(std::uint32_t chip, TagId tag = kInvalidTag)
    {
        hold(chip, tag);
        setLoad(chip, outstanding(chip) + 1);
    }

    /** One outstanding request of @p tag on @p chip finished. */
    void
    release(std::uint32_t chip, TagId tag = kInvalidTag)
    {
        unhold(chip, tag);
        setLoad(chip, outstanding(chip) - 1);
    }

    /** Set @p chip's outstanding count, in the map and the load row. */
    void
    setLoad(std::uint32_t chip, std::uint32_t load)
    {
        outstandingMap[chip] = load;
        occ.setLoad(chip, load);
    }

    /** A request of @p tag holds @p chip without adding load. */
    void
    hold(std::uint32_t chip, TagId tag = kInvalidTag)
    {
        ++perTag[{chip, tagSlot(tag)}];
        occ.hold(chip, tagSlot(tag));
    }

    /** A request held by hold() left @p chip. */
    void
    unhold(std::uint32_t chip, TagId tag = kInvalidTag)
    {
        --perTag.at({chip, tagSlot(tag)});
        occ.release(chip, tagSlot(tag));
    }

    /** Outstanding requests on @p chip that belong to another I/O. */
    std::uint32_t
    othersOutstanding(std::uint32_t chip, TagId tag) const
    {
        const auto it = perTag.find({chip, tagSlot(tag)});
        return outstanding(chip) - (it == perTag.end() ? 0u : it->second);
    }
};

/**
 * A hand-built device queue plus the context schedulers consume. With
 * a scheduler attached, the harness drives its lifecycle the way the
 * device and the NVMHC do: the occupancy takes the scheduler's load
 * limit and prepare() runs once, then onEnqueue() per added I/O,
 * onComposed() per composed page and onRetarget() per retarget(). Like
 * the NVMHC, it keeps the I/Os with pages left to compose on the
 * uncomposed list the context hands out: an I/O joins when added and
 * leaves when its last page composes.
 */
struct SchedHarness
{
    /** Tag space handed to prepare(); addIo() recycles retired tags. */
    static constexpr std::uint32_t kQueueDepth = 64;

    FlashGeometry geo;
    RingDeque<IoRequest *> queue;
    UncomposedIos uncomposed;
    std::vector<std::unique_ptr<IoRequest>> storage;
    std::vector<std::unique_ptr<MemoryRequest>> reqStorage;
    TestSchedulerView view;
    SchedulerContext ctx;
    IoScheduler *sched = nullptr;
    std::uint64_t nextReqId = 0;
    TagId nextTag = 0;
    std::vector<TagId> freeTags;

    explicit SchedHarness(std::uint32_t channels = 2,
                          std::uint32_t chips_per_channel = 2)
    {
        geo.numChannels = channels;
        geo.chipsPerChannel = chips_per_channel;
        geo.diesPerChip = 2;
        geo.planesPerDie = 2;
        view.occ = ChipOccupancy(geo.numChips(), kQueueDepth + 1);
        ctx.uncomposed = &uncomposed;
        ctx.view = &view;
    }

    /** Drive @p s's lifecycle from here on (before adding I/Os). */
    void
    attach(IoScheduler &s)
    {
        sched = &s;
        view.occ.setLoadLimit(s.loadLimit());
        s.prepare(geo.numChips(), kQueueDepth);
    }

    /**
     * Add an I/O whose pages target the given chips in order. Die /
     * plane / page are derived so that same-chip pages of one call sit
     * on different planes with equal page offsets (coalescable).
     */
    IoRequest *
    addIo(const std::vector<std::uint32_t> &chips, bool is_write = false)
    {
        auto io = std::make_unique<IoRequest>();
        if (freeTags.empty()) {
            io->tag = nextTag++;
        } else {
            io->tag = freeTags.back();
            freeTags.pop_back();
        }
        io->isWrite = is_write;
        io->pageCount = static_cast<std::uint32_t>(chips.size());
        std::map<std::uint32_t, std::uint32_t> per_chip;
        for (std::uint32_t i = 0; i < chips.size(); ++i) {
            auto req = std::make_unique<MemoryRequest>();
            req->id = nextReqId++;
            req->tag = io->tag;
            req->idxInIo = i;
            req->op = is_write ? FlashOp::Program : FlashOp::Read;
            req->lpn = nextReqId; // unique => no hazards
            const std::uint32_t chip = chips[i];
            const std::uint32_t slot = per_chip[chip]++;
            req->chip = chip;
            req->addr.channel = geo.channelOfChip(chip);
            req->addr.chipInChannel = geo.chipOffsetOfChip(chip);
            req->addr.die = slot / geo.planesPerDie;
            req->addr.plane = slot % geo.planesPerDie;
            req->addr.block = i;
            req->addr.page = 0;
            req->translated = true;
            io->pages.push_back(req.get());
            reqStorage.push_back(std::move(req));
        }
        storage.push_back(std::move(io));
        IoRequest *raw = storage.back().get();
        queue.push_back(raw);
        uncomposed.pushBack(*raw);
        if (sched)
            sched->onEnqueue(*raw);
        return raw;
    }

    /** Mark a request composed (as the NVMHC engine would). */
    void
    compose(MemoryRequest *req)
    {
        req->composed = true;
        for (IoRequest *io : queue) {
            if (io->tag == req->tag && ++io->composedCount == io->pageCount)
                uncomposed.erase(*io);
        }
        if (sched)
            sched->onComposed(*req);
    }

    /** Readdress uncomposed @p req to @p chip (Section 4.3). */
    void
    retarget(MemoryRequest *req, std::uint32_t chip)
    {
        const std::uint32_t old_chip = req->chip;
        req->chip = chip;
        req->addr.channel = geo.channelOfChip(chip);
        req->addr.chipInChannel = geo.chipOffsetOfChip(chip);
        if (sched)
            sched->onRetarget(*req, old_chip);
    }

    /** Drop a finished I/O from the queue and free its tag. */
    void
    retire(IoRequest *io)
    {
        if (!io->allComposed())
            uncomposed.erase(*io);
        queue.erase(std::find(queue.begin(), queue.end(), io));
        freeTags.push_back(io->tag);
    }
};

} // namespace test
} // namespace spk

#endif // SPK_TESTS_SCHED_TEST_UTIL_HH
