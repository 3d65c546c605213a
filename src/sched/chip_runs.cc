#include "sched/chip_runs.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace spk
{

void
ChipRuns::prepare(std::uint32_t num_chips, std::uint32_t queue_depth)
{
    numChips_ = num_chips;
    numTags_ = queue_depth;
    words_ = (num_chips + 63) / 64;
    pending_.assign(std::size_t{queue_depth} * words_, 0);
    runHead_.assign(std::size_t{queue_depth} * num_chips, nullptr);
}

void
ChipRuns::build(const IoRequest &io)
{
    if (io.tag >= numTags_)
        panic("ChipRuns::build tag beyond the prepared depth");
    std::uint64_t *pending = &pending_[std::size_t{io.tag} * words_];
    MemoryRequest **heads = &runHead_[std::size_t{io.tag} * numChips_];
    std::fill(pending, pending + words_, 0);

    // Push pages front-first in reverse, so each chip's run ends up in
    // page-index order.
    for (auto it = io.pages.rbegin(); it != io.pages.rend(); ++it) {
        MemoryRequest *req = *it;
        const std::uint32_t chip = req->chip;
        if (chip >= numChips_)
            panic("ChipRuns::build chip beyond the prepared count");
        const std::uint64_t bit = std::uint64_t{1} << (chip % 64);
        if (!(pending[chip / 64] & bit)) {
            pending[chip / 64] |= bit;
            heads[chip] = nullptr;
        }
        req->chipNext = heads[chip] ? heads[chip]->idxInIo : kEndOfRun;
        heads[chip] = req;
    }
}

} // namespace spk
