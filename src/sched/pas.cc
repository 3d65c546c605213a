#include "sched/pas.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace spk
{

namespace
{

/** The page after @p req in its chip run, or nullptr at the end. */
MemoryRequest *
nextInRun(const IoRequest &io, const MemoryRequest *req)
{
    return req->chipNext == kEndOfRun ? nullptr : io.pages[req->chipNext];
}

} // namespace

void
PasScheduler::prepare(std::uint32_t num_chips, std::uint32_t queue_depth)
{
    numChips_ = num_chips;
    numTags_ = queue_depth;
    words_ = (num_chips + 63) / 64;
    pending_.assign(std::size_t{queue_depth} * words_, 0);
    runHead_.assign(std::size_t{queue_depth} * num_chips, nullptr);
}

void
PasScheduler::onEnqueue(IoRequest &io)
{
    if (io.tag >= numTags_)
        panic("PasScheduler::onEnqueue tag beyond the prepared depth");
    std::uint64_t *pending = &pending_[std::size_t{io.tag} * words_];
    MemoryRequest **heads = &runHead_[std::size_t{io.tag} * numChips_];
    std::fill(pending, pending + words_, 0);

    // Push pages front-first in reverse, so each chip's run ends up in
    // page-index order.
    for (auto it = io.pages.rbegin(); it != io.pages.rend(); ++it) {
        MemoryRequest *req = *it;
        const std::uint32_t chip = req->chip;
        const std::uint64_t bit = std::uint64_t{1} << (chip % 64);
        if (!(pending[chip / 64] & bit)) {
            pending[chip / 64] |= bit;
            heads[chip] = nullptr;
        }
        req->chipNext = heads[chip] ? heads[chip]->idxInIo : kEndOfRun;
        heads[chip] = req;
    }
}

/*
 * PAS processes the queue in arrival order but, knowing physical
 * addresses, skips the busy flash chips and commits the other memory
 * requests to idle chips (coarse-grain out-of-order execution with
 * per-chip flash queues, Section 5.1). A chip counts as busy when it
 * holds outstanding requests of a *different* I/O: a chip queueing
 * only one's own I/O is no conflict, which is what lets PAS build
 * same-I/O multiplane/interleave transactions (Figure 14a) while
 * still being unable to coalesce across I/O boundaries.
 *
 * The pick equals a scan of every page of every queued I/O in order:
 * the first I/O with an eligible page wins, and within it the
 * lowest-index page that is uncomposed, hazard-free and on a free
 * chip. Only runs on free chips are looked at, and a run is walked
 * only while its pages precede the best candidate found so far.
 */
MemoryRequest *
PasScheduler::next(SchedulerContext &ctx)
{
    const ChipOccupancy &occ = ctx.view->occupancy();
    const std::uint64_t *idle = occ.idleWords();
    for (IoRequest *io : *ctx.queue) {
        if (io->allComposed())
            continue;
        std::uint64_t *pending = &pending_[std::size_t{io->tag} * words_];
        MemoryRequest **heads = &runHead_[std::size_t{io->tag} * numChips_];
        const std::uint64_t *owned = occ.ownedWords(tagSlot(io->tag));
        MemoryRequest *best = nullptr;
        for (std::uint32_t w = 0; w < words_; ++w) {
            std::uint64_t free = pending[w] & (idle[w] | owned[w]);
            while (free != 0) {
                const int b = std::countr_zero(free);
                free &= free - 1;
                const std::uint32_t chip = w * 64 + b;
                MemoryRequest *&head = heads[chip];
                while (head != nullptr && head->composed)
                    head = nextInRun(*io, head);
                if (head == nullptr) {
                    pending[w] &= ~(std::uint64_t{1} << b);
                    continue;
                }
                for (MemoryRequest *req = head;
                     req != nullptr &&
                     (best == nullptr || req->idxInIo < best->idxInIo);
                     req = nextInRun(*io, req)) {
                    if (!req->composed && ctx.view->schedulable(*req)) {
                        best = req;
                        break;
                    }
                }
            }
        }
        if (best != nullptr)
            return best;
    }
    return nullptr;
}

} // namespace spk
