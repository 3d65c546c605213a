#include "flash/chip.hh"

#include "sim/logging.hh"

namespace spk
{

void
FlashChip::beginTransaction(Tick start, Tick end,
                            const TransactionPlan &plan, FlpClass flp,
                            std::size_t n_reqs)
{
    if (start < busyUntil_)
        panic("FlashChip: transaction submitted while R/B busy");
    if (end < start)
        panic("FlashChip: transaction ends before it starts");

    lastNow_ = start;
    busyUntil_ = end;

    stats_.busyTime += end - start;
    for (const auto &cell : plan.cells) {
        stats_.cellTime += cell.duration;
        stats_.planeActiveTime += cell.duration * cell.requests;
    }
    stats_.transactions += 1;
    stats_.requestsServed += n_reqs;
    stats_.reqPerClass[static_cast<int>(flp)] += n_reqs;
}

void
FlashChip::extendBusy(Tick new_end)
{
    if (new_end <= busyUntil_)
        return;
    stats_.busyTime += new_end - busyUntil_;
    busyUntil_ = new_end;
}

} // namespace spk
