/**
 * @file
 * Figure 15: chip utilization vs transfer size and device scale.
 *
 * Sweeps transfer sizes 4 KB .. 4 MB at 64 / 256 / 1024 flash chips
 * for VAS, SPK1, SPK2 and SPK3 (the paper's Fig. 15a-c): 132 cells,
 * the widest sharded fan-out.
 */

#include <cstdio>
#include <string>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 15", "chip utilization sweep");

    SweepRunner sweep = bench::exhibitSweep(bench::fig15Grid(), cli);
    bench::runSweep(sweep, cli);

    const auto &sizes = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;

    for (const auto &chip_label : sweep.axes().variants) {
        std::printf("\n(%lu flash chips)\n%8s",
                    std::stoul(chip_label), "xfer-KB");
        for (const auto kind : kinds)
            std::printf(" %8s", schedulerKindName(kind));
        std::printf("\n");

        double spk3_sum = 0.0;
        double vas_sum = 0.0;
        for (const auto &size_label : sizes) {
            std::printf("%8llu", static_cast<unsigned long long>(
                                     std::stoull(size_label)));
            for (const auto kind : kinds) {
                const auto &m =
                    sweep.at({.trace = size_label,
                              .scheduler = kind,
                              .variant = chip_label});
                std::printf(" %8.1f", m.flashLevelUtilizationPct);
                if (kind == SchedulerKind::SPK3)
                    spk3_sum += m.flashLevelUtilizationPct;
                if (kind == SchedulerKind::VAS)
                    vas_sum += m.flashLevelUtilizationPct;
            }
            std::printf("\n");
        }
        // Only meaningful when both ends of the comparison survived
        // the --filter.
        if (bench::hasScheduler(sweep, SchedulerKind::VAS) &&
            bench::hasScheduler(sweep, SchedulerKind::SPK3)) {
            std::printf("mean over sizes: VAS %.1f%%, SPK3 %.1f%%\n",
                        vas_sum / sizes.size(),
                        spk3_sum / sizes.size());
        }
    }

    bench::printShapeNote(
        "paper: SPK3 sustains 71/61/45% at 64/256/1024 chips vs VAS "
        "37/21/14%; SPK1 helps only at large transfers, SPK2 only at "
        "small ones");
    return 0;
}
