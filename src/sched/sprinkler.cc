#include "sched/sprinkler.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "flash/transaction.hh"
#include "sim/logging.hh"

namespace spk
{

namespace
{

/** Lowest chip in [@p from, @p to) set in both @p a and @p b, else @p to. */
std::uint32_t
nextInBoth(const std::vector<std::uint64_t> &a, const std::uint64_t *b,
           std::uint32_t from, std::uint32_t to)
{
    while (from < to) {
        const std::uint32_t w = from / 64;
        const std::uint64_t both = (a[w] & b[w]) >> (from % 64);
        if (both != 0) {
            return std::min(
                to, from + static_cast<std::uint32_t>(std::countr_zero(both)));
        }
        from = (w + 1) * 64;
    }
    return to;
}

} // namespace

SprinklerScheduler::SprinklerScheduler(bool rios, bool faro,
                                       std::uint32_t window)
    : rios_(rios), faro_(faro), window_(window == 0 ? 1 : window)
{
    if (!rios && !faro)
        fatal("SprinklerScheduler: enable at least one of RIOS/FARO");
}

void
SprinklerScheduler::prepare(std::uint32_t num_chips,
                            std::uint32_t queue_depth)
{
    numChips_ = num_chips;
    if (rios_) {
        buckets_.resize(num_chips);
        // A bucket holds uncomposed requests, bounded by the queued
        // I/Os' page totals. Pre-carving queue_depth * 8 covers I/Os of
        // up to 8 pages each even when every queued request lands on
        // one chip, so steady-state bucketing stays off the heap for
        // the paper's trace shapes (larger I/Os fall back to amortized
        // growth).
        for (auto &bucket : buckets_)
            bucket.reserve(std::size_t{queue_depth} * 8);
        nonempty_.assign((num_chips + 63) / 64, 0);
    } else {
        runs_.prepare(num_chips, queue_depth);
        ioByTag_.assign(queue_depth, nullptr);
    }
    if (faro_) {
        // FARO scratch at its steady-state size: a set holds at most
        // window_ requests, and connectivity counts one tag slot per
        // host tag plus GC.
        candScratch_.reserve(std::size_t{queue_depth} * 8);
        for (auto *set : {&readSet_, &writeSet_, &setScratch_,
                          &bestScratch_, &batch_})
            set->reserve(window_);
        tagCount_.assign(std::size_t{queue_depth} + 1, 0);
        touchedTags_.reserve(std::size_t{queue_depth} + 1);
    }
}

void
SprinklerScheduler::bucketPush(MemoryRequest &req)
{
    if (req.chip >= numChips_)
        panic("SprinklerScheduler: chip beyond the prepared count");
    buckets_[req.chip].push_back(&req);
    nonempty_[req.chip / 64] |= std::uint64_t{1} << (req.chip % 64);
}

void
SprinklerScheduler::bucketErase(const MemoryRequest &req,
                                std::uint32_t chip)
{
    if (chip >= numChips_)
        return;
    auto &bucket = buckets_[chip];
    auto it = std::find(bucket.begin(), bucket.end(), &req);
    if (it == bucket.end())
        return;
    bucket.erase(it);
    if (bucket.empty())
        nonempty_[chip / 64] &= ~(std::uint64_t{1} << (chip % 64));
}

void
SprinklerScheduler::onEnqueue(IoRequest &io)
{
    if (!rios_) {
        runs_.build(io);
        ioByTag_[io.tag] = &io;
        return;
    }
    // Securing tags: identify physical layout and bucket per chip
    // without any memory request composition (RIOS step i).
    for (MemoryRequest *page : io.pages)
        bucketPush(*page);
}

void
SprinklerScheduler::onRetarget(MemoryRequest &req, std::uint32_t old_chip)
{
    if (!rios_) {
        if (req.tag >= ioByTag_.size() || ioByTag_[req.tag] == nullptr)
            panic("SprinklerScheduler::onRetarget page of no queued I/O");
        runs_.build(*ioByTag_[req.tag]);
        return;
    }
    bucketErase(req, old_chip);
    bucketPush(req);
}

void
SprinklerScheduler::onComposed(const MemoryRequest &req)
{
    // Drop the entry eagerly: once composed, the request may retire
    // and be freed at any time, so the bucket must not keep a pointer.
    // SPK1's runs skip composed pages when next() reaches them.
    if (rios_)
        bucketErase(req, req.chip);
}

const std::uint64_t *
SprinklerScheduler::loadRow(const SchedulerContext &ctx) const
{
    const ChipOccupancy &occ = ctx.view->occupancy();
    if (occ.loadLimit() != loadLimit())
        panic("SprinklerScheduler: occupancy load limit is not the "
              "scheduler's");
    return occ.belowLimitWords();
}

MemoryRequest *
SprinklerScheduler::oldest(SchedulerContext &ctx,
                           std::uint32_t chip) const
{
    for (MemoryRequest *req : buckets_[chip]) {
        if (!req->composed && ctx.view->schedulable(*req))
            return req;
    }
    return nullptr;
}

void
SprinklerScheduler::bestSet(SchedulerContext &ctx, std::uint32_t chip,
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
SprinklerScheduler::bestSetFrom(
    const std::vector<MemoryRequest *> &candidates, std::uint32_t chip,
    std::vector<MemoryRequest *> &out) const
{
    out.clear();
    if (candidates.empty())
        return;

    // Connectivity: requests per owning I/O among the candidates.
    // Flat per-tag counters, reset via the touched-slot list (tags
    // recycle within the NVMHC queue depth, so this stays tiny).
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

    // Greedy coalescable set seeded at the oldest candidate of each
    // operation type; the larger set has the higher overlap depth.
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
        return; // both empty
    // Same overlap depth: prefer the higher-connectivity set; final
    // tie goes to the set whose seed arrived first.
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
SprinklerScheduler::takeSet(const std::vector<MemoryRequest *> &set)
{
    batch_.assign(set.begin() + 1, set.end());
    batchPos_ = 0;
    return set.front();
}

MemoryRequest *
SprinklerScheduler::riosPick(SchedulerContext &ctx, std::uint32_t chip)
{
    MemoryRequest *req = nullptr;
    if (faro_) {
        bestSet(ctx, chip, setScratch_);
        if (!setScratch_.empty())
            req = takeSet(setScratch_);
    } else {
        // SPK2: no over-commitment -- one outstanding request per
        // chip, oldest first.
        req = oldest(ctx, chip);
    }
    if (req != nullptr)
        cursor_ = chip + 1 == numChips_ ? 0 : chip + 1;
    return req;
}

MemoryRequest *
SprinklerScheduler::nextRios(SchedulerContext &ctx)
{
    // Chip indices already stripe across channels (chip k lives on
    // channel k % numChannels), so ascending index is the RIOS visit
    // order: same offset across channels, then next offset. The walk
    // runs from the cursor to the last chip, then from chip 0 up to
    // the cursor, and stops only at chips with queued requests that
    // are below the load limit.
    const std::uint64_t *below = loadRow(ctx);
    const auto walk = [&](std::uint32_t from,
                          std::uint32_t to) -> MemoryRequest * {
        for (std::uint32_t chip = nextInBoth(nonempty_, below, from, to);
             chip < to; chip = nextInBoth(nonempty_, below, chip + 1, to)) {
            if (MemoryRequest *req = riosPick(ctx, chip))
                return req;
        }
        return nullptr;
    };
    const std::uint32_t start = cursor_;
    if (MemoryRequest *req = walk(start, numChips_))
        return req;
    return walk(0, start);
}

MemoryRequest *
SprinklerScheduler::nextFaroOnly(SchedulerContext &ctx)
{
    // SPK1: FARO without RIOS. Composition is still driven by the
    // host's I/O arrival order -- only the requests of the few I/Os
    // at the head of the queue are visible for over-commitment, so
    // parallelism dependency remains (Section 5.2: "FARO cannot
    // always secure enough memory requests without RIOS's help").
    constexpr std::size_t kLookaheadIos = 4;

    std::array<const IoRequest *, kLookaheadIos> ahead{};
    std::size_t seen = 0;
    for (const IoRequest *io : *ctx.queue) {
        if (io->allComposed())
            continue;
        ahead[seen] = io;
        if (++seen >= kLookaheadIos)
            break;
    }

    const std::uint64_t *below = loadRow(ctx);
    std::size_t best_depth = 0;
    std::uint64_t best_seed = 0;
    bestScratch_.clear();
    for (std::uint32_t w = 0; w < runs_.words(); ++w) {
        std::uint64_t chips = 0;
        for (std::size_t i = 0; i < seen; ++i)
            chips |= runs_.pending(ahead[i]->tag)[w];
        chips &= below[w];
        while (chips != 0) {
            const int b = std::countr_zero(chips);
            chips &= chips - 1;
            const std::uint32_t chip = w * 64 + b;
            // The chip's candidates in queue order, then page order.
            candScratch_.clear();
            for (std::size_t i = 0; i < seen; ++i) {
                const IoRequest &io = *ahead[i];
                if (!((runs_.pending(io.tag)[w] >> b) & 1))
                    continue;
                for (MemoryRequest *req = runs_.head(io, chip);
                     req != nullptr; req = ChipRuns::next(io, req)) {
                    if (!req->composed && !req->composing &&
                        ctx.view->schedulable(*req))
                        candScratch_.push_back(req);
                }
            }
            bestSetFrom(candScratch_, chip, setScratch_);
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
    }
    if (bestScratch_.empty())
        return nullptr;
    return takeSet(bestScratch_);
}

MemoryRequest *
SprinklerScheduler::next(SchedulerContext &ctx)
{
    // Finish committing the current FARO batch first so the whole set
    // reaches the flash controller within one decision window.
    while (batchPos_ < batch_.size()) {
        MemoryRequest *req = batch_[batchPos_++];
        if (!req->composed && ctx.view->schedulable(*req))
            return req;
    }
    return rios_ ? nextRios(ctx) : nextFaroOnly(ctx);
}

} // namespace spk
