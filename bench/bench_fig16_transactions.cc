/**
 * @file
 * Figure 16: flash transaction reduction.
 *
 * Total flash transactions vs transfer size at 64 and 1024 chips for
 * VAS, SPK1, SPK2 and SPK3. FARO's over-commitment should roughly
 * halve the transaction count by coalescing.
 */

#include <cstdio>
#include <string>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 16", "flash transaction counts");

    SweepRunner sweep = bench::exhibitSweep(bench::fig16Grid(), cli);
    bench::runSweep(sweep, cli);

    const auto &sizes = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;
    const bool have_pair =
        bench::hasScheduler(sweep, SchedulerKind::VAS) &&
        bench::hasScheduler(sweep, SchedulerKind::SPK3);

    for (const auto &chip_label : sweep.axes().variants) {
        std::printf("\n(%lu flash chips)\n%8s",
                    std::stoul(chip_label), "xfer-KB");
        for (const auto kind : kinds)
            std::printf(" %10s", schedulerKindName(kind));
        std::printf("\n");

        double reduction_sum = 0.0;
        for (const auto &size_label : sizes) {
            std::printf("%8llu", static_cast<unsigned long long>(
                                     std::stoull(size_label)));
            const auto txns = [&](SchedulerKind kind) {
                return sweep
                    .at({.trace = size_label,
                         .scheduler = kind,
                         .variant = chip_label})
                    .transactions;
            };
            for (const auto kind : kinds) {
                std::printf(" %10llu",
                            static_cast<unsigned long long>(txns(kind)));
            }
            std::printf("\n");
            if (have_pair) {
                const auto vas_txns = txns(SchedulerKind::VAS);
                const auto spk3_txns = txns(SchedulerKind::SPK3);
                if (vas_txns > 0) {
                    reduction_sum +=
                        100.0 *
                        (1.0 - static_cast<double>(spk3_txns) /
                                   static_cast<double>(vas_txns));
                }
            }
        }
        if (have_pair) {
            std::printf(
                "mean SPK3 transaction reduction vs VAS: %.1f%%\n",
                reduction_sum / sizes.size());
        }
    }

    bench::printShapeNote(
        "paper: SPK3 cuts ~50.2% of transactions vs VAS; SPK2 alone "
        "barely reduces them (and less so at 1024 chips)");
    return 0;
}
