#include "sched/pas.hh"

#include <bit>

namespace spk
{

void
PasScheduler::prepare(std::uint32_t num_chips, std::uint32_t queue_depth)
{
    runs_.prepare(num_chips, queue_depth);
}

void
PasScheduler::onEnqueue(IoRequest &io)
{
    runs_.build(io);
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
    for (const IoRequest *io : *ctx.uncomposed) {
        const std::uint64_t *pending = runs_.pending(io->tag);
        const std::uint64_t *owned = occ.ownedWords(tagSlot(io->tag));
        MemoryRequest *best = nullptr;
        for (std::uint32_t w = 0; w < runs_.words(); ++w) {
            std::uint64_t free = pending[w] & (idle[w] | owned[w]);
            while (free != 0) {
                const std::uint32_t chip = w * 64 + std::countr_zero(free);
                free &= free - 1;
                for (MemoryRequest *req = runs_.head(*io, chip);
                     req != nullptr &&
                     (best == nullptr || req->idxInIo < best->idxInIo);
                     req = ChipRuns::next(*io, req)) {
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
