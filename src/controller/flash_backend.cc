#include "controller/flash_backend.hh"

namespace spk
{

FlashBackend::FlashBackend(EventQueue &events, const FlashGeometry &geo,
                           const FlashTiming &timing, Tick decision_window,
                           std::uint32_t queue_depth,
                           CompletionFn on_complete,
                           const FaultModel *faults)
    : geo_(geo), occupancy_(geo.numChips(), queue_depth + 1)
{
    chips_.reserve(geo_.numChips());
    for (std::uint32_t i = 0; i < geo_.numChips(); ++i)
        chips_.push_back(std::make_unique<FlashChip>(i, geo_));

    channels_.reserve(geo_.numChannels);
    controllers_.reserve(geo_.numChannels);
    for (std::uint32_t c = 0; c < geo_.numChannels; ++c) {
        channels_.push_back(std::make_unique<Channel>(c));
        std::vector<FlashChip *> channel_chips;
        channel_chips.reserve(geo_.chipsPerChannel);
        for (std::uint32_t off = 0; off < geo_.chipsPerChannel; ++off)
            channel_chips.push_back(chips_[geo_.chipIndex(c, off)].get());
        controllers_.push_back(std::make_unique<FlashController>(
            events, *channels_[c], std::move(channel_chips), occupancy_,
            timing, geo_.pageSizeBytes, decision_window, on_complete,
            faults, &decoder_));
        controllers_.back()->reserveSteadyState(queue_depth);
    }
}

void
FlashBackend::place(MemoryRequest &req, Ppn ppn) const
{
    req.ppn = ppn;
    req.addr = geo_.decompose(ppn);
    req.chip = geo_.chipIndex(req.addr.channel, req.addr.chipInChannel);
    req.translated = true;
}

MemoryRequest *
FlashBackend::issue(RequestOwner owner, std::uint32_t job, FlashOp op,
                    Ppn ppn)
{
    MemoryRequest *req = acquire(owner);
    req->job = job;
    req->op = op;
    place(*req, ppn);
    req->composed = true;
    commit(req, /*front=*/true);
    return req;
}

} // namespace spk
