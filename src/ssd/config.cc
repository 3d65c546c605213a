#include "ssd/config.hh"

#include "sim/logging.hh"

namespace spk
{

SsdConfig
SsdConfig::withChips(std::uint32_t num_chips)
{
    if (num_chips == 0)
        fatal("SsdConfig::withChips: need at least one chip");
    SsdConfig cfg;
    // Keep roughly eight chips per channel as in the paper's platform
    // (64 chips / 8 channels ... 1024 chips / 32 channels follows the
    // paper's scaling, which grows channels with capacity).
    std::uint32_t channels = 8;
    while (channels * 8 < num_chips && channels < 32)
        channels *= 2;
    if (num_chips < channels)
        channels = num_chips;
    cfg.geometry.numChannels = channels;
    cfg.geometry.chipsPerChannel =
        (num_chips + channels - 1) / channels;
    return cfg;
}

void
ParityConfig::validate(const FlashGeometry &geo) const
{
    if (!enabled)
        return;
    if (geo.diesPerChip < 2)
        fatal("ParityConfig: die-level parity needs diesPerChip >= 2");
    if (flushWindow == 0)
        fatal("ParityConfig: flushWindow must be non-zero");
}

void
SsdConfig::validate() const
{
    geometry.validate();
    fault.validate();
    parity.validate(geometry);
    if (nvmhc.queueDepth == 0)
        fatal("SsdConfig: nvmhc.queueDepth must be non-zero");
    if (faroWindow == 0)
        fatal("SsdConfig: faroWindow must be non-zero");
    if (gcMaxLiveBatchesPerPlane == 0)
        fatal("SsdConfig: gcMaxLiveBatchesPerPlane must be non-zero");
}

} // namespace spk
