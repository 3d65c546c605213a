#include "sched/sprinkler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

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

/**
 * One operation's side of FARO's greedy: the coalescable set seeded at
 * its oldest candidate. A request joins while the set is below its cap
 * and the ONFI rule holds against every member (coalescible() in
 * flash/transaction.hh): its (die, plane) is free, and its die is new
 * to the set or already addresses the same page offset. Members on one
 * die share its page offset, so the rule reads only the die's plane
 * mask and page offset. Geometry validation bounds dies and planes
 * per chip by 32, so one bit per die marks the dies in the set and
 * the per-die slots need no clearing.
 */
class GreedySet
{
  public:
    GreedySet(MemoryRequest **out, std::uint32_t cap)
        : out_(out), cap_(cap)
    {}

    void
    offer(MemoryRequest *req)
    {
        if (size_ >= cap_)
            return;
        const std::uint32_t die_bit = 1u << req->addr.die;
        const std::uint32_t plane_bit = 1u << req->addr.plane;
        Die &die = dies_[req->addr.die];
        if (!(used_ & die_bit)) {
            used_ |= die_bit;
            die = Die{plane_bit, req->addr.page};
        } else if ((die.planes & plane_bit) || die.page != req->addr.page) {
            return;
        } else {
            die.planes |= plane_bit;
        }
        out_[size_++] = req;
    }

    std::uint32_t size() const { return size_; }

  private:
    /** A die in the set: its planes taken and their page offset. */
    struct Die
    {
        std::uint32_t planes;
        std::uint32_t page;
    };

    MemoryRequest **out_;
    std::uint32_t cap_;
    std::uint32_t size_ = 0;
    std::uint32_t used_ = 0; //!< dies in the set, one bit each
    std::array<Die, kMaxDiesPerChip> dies_; //!< valid where used_ is set
};

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
    const std::size_t words = (num_chips + 63) / 64;
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
        nonempty_.assign(words, 0);
    } else {
        runs_.prepare(num_chips, queue_depth);
        tags_.assign(queue_depth, TagEntry{});
    }
    if (faro_) {
        // One cached set per chip plus the greedy's scratch set, every
        // chip dirty until its first poll. Connectivity counts one tag
        // slot per host tag plus GC.
        setCap_ = std::min(window_, kMaxTxnRequests);
        sets_.assign((std::size_t{num_chips} + 1) * setCap_, nullptr);
        summary_.assign(num_chips, SetSummary{});
        dirty_.assign(words, ~std::uint64_t{0});
        tagCount_.assign(std::size_t{queue_depth} + 1, 0);
        touchedTags_.reserve(std::size_t{queue_depth} + 1);
    }
}

void
SprinklerScheduler::markDirty(std::uint32_t chip)
{
    if (faro_ && chip < numChips_)
        dirty_[chip / 64] |= std::uint64_t{1} << (chip % 64);
}

void
SprinklerScheduler::bucketPush(MemoryRequest &req)
{
    if (req.chip >= numChips_)
        panic("SprinklerScheduler: chip beyond the prepared count");
    buckets_[req.chip].push_back(&req);
    nonempty_[req.chip / 64] |= std::uint64_t{1} << (req.chip % 64);
    markDirty(req.chip);
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
        // SPK1's candidates change only once the I/O enters the
        // lookahead, which next() notices.
        runs_.build(io);
        tags_[io.tag] = TagEntry{&io, false};
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
    markDirty(old_chip);
    if (!rios_) {
        if (req.tag >= tags_.size() || tags_[req.tag].io == nullptr)
            panic("SprinklerScheduler::onRetarget page of no queued I/O");
        runs_.build(*tags_[req.tag].io);
        markDirty(req.chip);
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
    markDirty(req.chip);
}

void
SprinklerScheduler::onSchedulable(const MemoryRequest &req)
{
    markDirty(req.chip);
}

void
SprinklerScheduler::onBarrierChanged()
{
    if (faro_)
        std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
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

template <typename ForEach>
void
SprinklerScheduler::chooseSet(std::uint32_t chip, ForEach &&for_each)
{
    // Greedy coalescable set seeded at the oldest candidate of each
    // operation type; the larger set has the higher overlap depth.
    // The read set builds in the chip's slots, the write set in the
    // scratch slots past the last chip.
    MemoryRequest **reads_out = setOf(chip);
    MemoryRequest **writes_out = setOf(numChips_);
    GreedySet reads(reads_out, setCap_);
    GreedySet writes(writes_out, setCap_);
    for_each([&](MemoryRequest *req) {
        if (req->op == FlashOp::Read)
            reads.offer(req);
        else if (req->op == FlashOp::Program)
            writes.offer(req);
    });

    bool take_writes = writes.size() > reads.size();
    if (reads.size() == writes.size() && reads.size() != 0) {
        // Same overlap depth: prefer the higher-connectivity set, the
        // most requests one I/O has among the chip's candidates. Flat
        // per-tag counters, reset via the touched-slot list (tags
        // recycle within the NVMHC queue depth, so this stays tiny).
        for (const auto slot : touchedTags_)
            tagCount_[slot] = 0;
        touchedTags_.clear();
        for_each([&](const MemoryRequest *req) {
            const std::size_t slot = tagSlot(req->tag);
            if (slot >= tagCount_.size())
                tagCount_.resize(slot + 1, 0);
            if (tagCount_[slot]++ == 0)
                touchedTags_.push_back(static_cast<std::uint32_t>(slot));
        });
        const auto connectivity = [&](MemoryRequest *const *set) {
            std::uint32_t best = 0;
            for (std::uint32_t i = 0; i < reads.size(); ++i) // equal sizes
                best = std::max(best, tagCount_[tagSlot(set[i]->tag)]);
            return best;
        };
        const auto conn_r = connectivity(reads_out);
        const auto conn_w = connectivity(writes_out);
        // Final tie goes to the set whose seed arrived first.
        take_writes = conn_r != conn_w ? conn_w > conn_r
                                       : writes_out[0]->id < reads_out[0]->id;
    }
    if (take_writes)
        std::copy(writes_out, writes_out + writes.size(), reads_out);
    const std::uint32_t size = take_writes ? writes.size() : reads.size();
    summary_[chip] = SetSummary{size != 0 ? reads_out[0]->id : 0, size};
    dirty_[chip / 64] &= ~(std::uint64_t{1} << (chip % 64));
}

MemoryRequest *
SprinklerScheduler::takeSet(std::uint32_t chip)
{
    MemoryRequest **set = setOf(chip);
    const std::uint32_t size = summary_[chip].size;
    for (std::uint32_t i = 0; i < size; ++i) {
        if (set[i]->composed) {
            panic("SprinklerScheduler: cached FARO set of chip " +
                  std::to_string(chip) + " holds a composed request");
        }
    }
    batchChip_ = chip;
    batchPos_ = 1;
    batchEnd_ = size;
    return set[0];
}

MemoryRequest *
SprinklerScheduler::riosPick(SchedulerContext &ctx, std::uint32_t chip)
{
    MemoryRequest *req = nullptr;
    if (faro_) {
        // The chip's candidates: its bucket's schedulable requests, in
        // arrival order.
        const auto candidates = [&](const auto &fn) {
            for (MemoryRequest *r : buckets_[chip]) {
                if (!r->composed && ctx.view->schedulable(*r))
                    fn(r);
            }
        };
        if (dirty(chip))
            chooseSet(chip, candidates);
        if (summary_[chip].size != 0)
            req = takeSet(chip);
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
    for (const IoRequest *io : *ctx.uncomposed) {
        TagEntry &entry = tags_[io->tag];
        if (!entry.inLookahead) {
            // Its pages just became candidates on its chips.
            entry.inLookahead = true;
            const std::uint64_t *pending = runs_.pending(io->tag);
            for (std::uint32_t w = 0; w < runs_.words(); ++w)
                dirty_[w] |= pending[w];
        }
        ahead[seen] = io;
        if (++seen >= kLookaheadIos)
            break;
    }

    const std::uint64_t *below = loadRow(ctx);
    std::uint32_t best_chip = 0;
    std::uint32_t best_depth = 0;
    std::uint64_t best_seed = 0;
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
            const auto candidates = [&](const auto &fn) {
                for (std::size_t i = 0; i < seen; ++i) {
                    const IoRequest &io = *ahead[i];
                    if (!((runs_.pending(io.tag)[w] >> b) & 1))
                        continue;
                    for (MemoryRequest *r = runs_.head(io, chip); r != nullptr;
                         r = ChipRuns::next(io, r)) {
                        if (!r->composed && !r->composing &&
                            ctx.view->schedulable(*r))
                            fn(r);
                    }
                }
            };
            if (dirty(chip))
                chooseSet(chip, candidates);
            const SetSummary &set = summary_[chip];
            if (set.size == 0)
                continue;
            if (set.size > best_depth ||
                (set.size == best_depth && set.seed < best_seed)) {
                best_chip = chip;
                best_depth = set.size;
                best_seed = set.seed;
            }
        }
    }
    if (best_depth == 0)
        return nullptr;
    return takeSet(best_chip);
}

MemoryRequest *
SprinklerScheduler::next(SchedulerContext &ctx)
{
    // Finish committing the current FARO batch first so the whole set
    // reaches the flash controller within one decision window.
    while (batchPos_ < batchEnd_) {
        MemoryRequest *req = setOf(batchChip_)[batchPos_++];
        if (!req->composed && ctx.view->schedulable(*req))
            return req;
    }
    return rios_ ? nextRios(ctx) : nextFaroOnly(ctx);
}

} // namespace spk
