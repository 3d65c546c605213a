/**
 * @file
 * Figure 11: device-level idleness analysis.
 *
 * (a) inter-chip idleness -- chips idle while work is pending;
 * (b) intra-chip idleness -- die/plane capacity idle inside busy
 *     chips -- for all five schedulers across the sixteen workloads.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 11", "inter- and intra-chip idleness");

    SweepRunner sweep = bench::exhibitSweep(bench::fig11Grid(), cli);
    bench::runSweep(sweep, cli);

    const auto &names = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;
    const std::size_t nk = kinds.size();

    std::printf("%-8s |", "trace");
    for (const auto kind : kinds)
        std::printf(" %9s", schedulerKindName(kind));
    std::printf(" |");
    for (const auto kind : kinds)
        std::printf(" %9s", schedulerKindName(kind));
    std::printf("\n%-8s |%45s |%45s\n", "", "(a) inter-chip idle %",
                "(b) intra-chip idle %");

    std::vector<double> inter_sum(nk, 0.0);
    std::vector<double> intra_sum(nk, 0.0);
    for (const auto &name : names) {
        std::printf("%-8s |", name.c_str());
        for (std::size_t k = 0; k < nk; ++k) {
            const auto &m =
                sweep.at({.trace = name, .scheduler = kinds[k]});
            inter_sum[k] += m.interChipIdlenessPct;
            std::printf(" %9.1f", m.interChipIdlenessPct);
        }
        std::printf(" |");
        for (std::size_t k = 0; k < nk; ++k) {
            const auto &m =
                sweep.at({.trace = name, .scheduler = kinds[k]});
            intra_sum[k] += m.intraChipIdlenessPct;
            std::printf(" %9.1f", m.intraChipIdlenessPct);
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(names.size());
    std::printf("%-8s |", "mean");
    for (std::size_t k = 0; k < nk; ++k)
        std::printf(" %9.1f", inter_sum[k] / n);
    std::printf(" |");
    for (std::size_t k = 0; k < nk; ++k)
        std::printf(" %9.1f", intra_sum[k] / n);
    std::printf("\n");

    bench::printShapeNote(
        "paper: SPK2/SPK3 cut inter-chip idleness most (~46% vs VAS); "
        "SPK1 cuts intra-chip idleness most, SPK3 close behind");
    return 0;
}
