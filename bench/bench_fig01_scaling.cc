/**
 * @file
 * Figure 1: many-chip SSD performance stagnation.
 *
 * (a) read bandwidth vs number of flash dies for several transfer
 *     sizes -- bandwidth stops scaling;
 * (b) chip utilization drops and memory-level idleness grows as dies
 *     are added.
 *
 * The paper sweeps 2..32768 dies under a conventional controller; we
 * sweep 2..8192 dies (the stagnation shape is established well before
 * the top of the paper's range) under VAS.
 *
 * Sweep axes: transfer size (trace axis) x chip count (variant axis),
 * executed sharded through SweepRunner.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"

namespace
{

spk::SsdConfig
scaledConfig(std::uint32_t num_chips)
{
    using namespace spk;
    SsdConfig cfg = SsdConfig::withChips(num_chips);
    // Bound mapping-table memory at huge chip counts; the sweep
    // measures parallelism, not capacity.
    cfg.geometry.blocksPerPlane = num_chips >= 512 ? 4 : 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::VAS;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 1",
                       "bandwidth / utilization / idleness vs dies");

    SweepAxes axes;
    axes.traces = {"4", "16", "64", "128"}; // transfer KB
    axes.schedulers = {SchedulerKind::VAS};
    axes.seeds = {17};
    axes.variants = {"1", "4", "16", "64", "256", "1024", "4096"};
    axes.fidelities = {cli.fidelity};

    SweepRunner sweep(
        filterAxes(axes, cli.filter), [](const SweepPoint &p) {
            const auto size_kb = std::stoull(p.trace);
            const auto chips =
                static_cast<std::uint32_t>(std::stoul(p.variant));
            DeviceJob job;
            job.cfg = scaledConfig(chips);
            const std::uint64_t span = bench::spanFor(job.cfg, 0.5);
            const std::uint64_t bytes_budget = 24ull << 20;
            const std::uint64_t n_ios = std::max<std::uint64_t>(
                16, bytes_budget / (size_kb << 10));
            job.trace = fixedSizeStream(n_ios, size_kb << 10, 0.0,
                                        span, 2 * kMicrosecond,
                                        p.seed);
            return job;
        });
    bench::runSweep(sweep, cli);

    std::printf("%8s %8s | %12s %10s %10s\n", "dies", "xfer-KB",
                "read-BW KB/s", "util %", "idle %");

    for (const auto &size_label : sweep.axes().traces) {
        for (const auto &chip_label : sweep.axes().variants) {
            const SsdConfig cfg = scaledConfig(
                static_cast<std::uint32_t>(std::stoul(chip_label)));
            const auto &m = sweep.at({.trace = size_label,
                                      .scheduler = SchedulerKind::VAS,
                                      .variant = chip_label});
            std::printf("%8u %8llu | %12.0f %10.1f %10.1f\n",
                        cfg.geometry.numChips() *
                            cfg.geometry.diesPerChip,
                        static_cast<unsigned long long>(
                            std::stoull(size_label)),
                        m.bandwidthKBps, m.chipUtilizationPct,
                        m.interChipIdlenessPct);
        }
        std::printf("\n");
    }

    bench::printShapeNote(
        "bandwidth per curve saturates as dies grow while utilization "
        "falls and idleness rises (paper Fig. 1a/1b)");
    return 0;
}
