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

#include "sched/scheduler.hh"

namespace spk
{
namespace test
{

/**
 * Hand-controllable SchedulerView. outstanding() reads a test-owned
 * map; occupy()/release() add and remove one outstanding request of a
 * given tag there and in the occupancy bitmaps, the way the flash
 * controllers do. The hazard gate can be overridden per test with a
 * std::function hook (test-only convenience; the production view in
 * the NVMHC is closure-free).
 */
struct TestSchedulerView : SchedulerView
{
    std::map<std::uint32_t, std::uint32_t> outstandingMap;
    std::function<bool(const MemoryRequest &)> schedulableOverride;
    ChipOccupancy occ;
    /** Outstanding requests per (chip, tag slot). */
    std::map<std::pair<std::uint32_t, std::size_t>, std::uint32_t> perTag;

    std::uint32_t
    outstanding(std::uint32_t chip) const override
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
        const std::size_t slot = tagSlot(tag);
        if (perTag[{chip, slot}]++ == 0)
            occ.addOwner(chip, slot);
        ++outstandingMap[chip];
    }

    /** One outstanding request of @p tag on @p chip finished. */
    void
    release(std::uint32_t chip, TagId tag = kInvalidTag)
    {
        const std::size_t slot = tagSlot(tag);
        if (--perTag.at({chip, slot}) == 0)
            occ.removeOwner(chip, slot);
        --outstandingMap[chip];
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
 * NVMHC does: prepare() once, onEnqueue() per added I/O, onComposed()
 * per composed page.
 */
struct SchedHarness
{
    /** Tag space handed to prepare(); addIo() recycles retired tags. */
    static constexpr std::uint32_t kQueueDepth = 64;

    FlashGeometry geo;
    RingDeque<IoRequest *> queue;
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
        ctx.geo = &geo;
        ctx.queue = &queue;
        ctx.view = &view;
    }

    /** Drive @p s's lifecycle from here on (before adding I/Os). */
    void
    attach(IoScheduler &s)
    {
        sched = &s;
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
        io->initBitmap();
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
            if (io->tag == req->tag)
                io->composedCount++;
        }
        if (sched)
            sched->onComposed(*req);
    }

    /** Drop a finished I/O from the queue and free its tag. */
    void
    retire(IoRequest *io)
    {
        queue.erase(std::find(queue.begin(), queue.end(), io));
        freeTags.push_back(io->tag);
    }
};

} // namespace test
} // namespace spk

#endif // SPK_TESTS_SCHED_TEST_UTIL_HH
