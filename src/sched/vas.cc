#include "sched/vas.hh"

#include "sim/logging.hh"

namespace spk
{

MemoryRequest *
VasScheduler::next(SchedulerContext &ctx)
{
    // Oldest I/O with uncomposed work; VAS never looks deeper.
    const IoRequest *io = ctx.uncomposed->front();
    if (io == nullptr)
        return nullptr;

    // VAS composes each I/O in page order, so its next page in virtual
    // order is the first one not yet composed.
    MemoryRequest *req = io->pages[io->composedCount];
    if (req->composed)
        panic("VasScheduler: next page of tag " + std::to_string(io->tag) +
              " already composed");
    if (!ctx.view->schedulable(*req))
        return nullptr; // ordering hazard: wait
    // VAS commits blindly and the commitment pipeline blocks on the
    // chip's R/B: model as head-of-line stall while the target chip has
    // any load (loadLimit() is 1).
    if (!ctx.view->occupancy().belowLimit(req->chip))
        return nullptr;
    return req;
}

} // namespace spk
