/**
 * @file
 * Figure 14: flash-level parallelism breakdown.
 *
 * Share of memory requests served at each FLP level (NON-PAL, PAL1 =
 * plane sharing, PAL2 = die interleaving, PAL3 = both) for PAS, SPK1,
 * SPK2 and SPK3 across the sixteen workloads.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench/exhibits.hh"

namespace
{

double
table(const spk::SweepRunner &sweep, spk::SchedulerKind kind)
{
    using namespace spk;
    std::printf("\n(%s)\n%-8s %9s %7s %7s %7s\n", schedulerKindName(kind),
                "trace", "NON-PAL", "PAL1", "PAL2", "PAL3");
    double sums[4] = {};
    const auto &names = sweep.axes().traces;
    for (const auto &name : names) {
        const auto &m = sweep.at({.trace = name, .scheduler = kind});
        std::printf("%-8s %9.1f %7.1f %7.1f %7.1f\n", name.c_str(),
                    m.flpPct[0], m.flpPct[1], m.flpPct[2], m.flpPct[3]);
        for (int i = 0; i < 4; ++i)
            sums[i] += m.flpPct[i];
    }
    const double n = static_cast<double>(names.size());
    std::printf("%-8s %9.1f %7.1f %7.1f %7.1f\n", "mean", sums[0] / n,
                sums[1] / n, sums[2] / n, sums[3] / n);
    return sums[3] / n;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 14", "FLP breakdown per scheduler");

    SweepRunner sweep = bench::exhibitSweep(bench::fig14Grid(), cli);
    bench::runSweep(sweep, cli);

    std::map<SchedulerKind, double> pal3;
    for (const auto kind : sweep.axes().schedulers)
        pal3[kind] = table(sweep, kind);

    if (pal3.size() == 4) {
        std::printf("\nPAL3 means: PAS %.1f%%, SPK1 %.1f%%, SPK2 %.1f%%, "
                    "SPK3 %.1f%%\n",
                    pal3[SchedulerKind::PAS], pal3[SchedulerKind::SPK1],
                    pal3[SchedulerKind::SPK2],
                    pal3[SchedulerKind::SPK3]);
    }
    bench::printShapeNote(
        "paper: PAS shows no PAL3; SPK1 maximizes FLP; SPK3 balances "
        "(lower than SPK1, far above PAS/SPK2)");
    return 0;
}
