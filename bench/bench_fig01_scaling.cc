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
 */

#include <cstdio>
#include <string>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 1",
                       "bandwidth / utilization / idleness vs dies");

    SweepRunner sweep = bench::exhibitSweep(bench::fig01Grid(), cli);
    bench::runSweep(sweep, cli);

    std::printf("%8s %8s | %12s %10s %10s\n", "dies", "xfer-KB",
                "read-BW KB/s", "util %", "idle %");

    for (const auto &size_label : sweep.axes().traces) {
        for (const auto &chip_label : sweep.axes().variants) {
            const SsdConfig cfg = bench::fig01Device(
                SchedulerKind::VAS,
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
