/**
 * @file
 * Figure 13: execution time breakdown.
 *
 * Splits chip-time capacity into bus operation, bus contention,
 * memory (cell) operation and idle shares, for PAS (13a) and SPK3
 * (13b) across the sixteen workloads.
 */

#include <cstdio>
#include <string>

#include "bench/exhibits.hh"

namespace
{

void
table(const spk::SweepRunner &sweep, spk::SchedulerKind kind)
{
    using namespace spk;
    std::printf("\n(%s)\n%-8s %8s %12s %10s %8s\n",
                schedulerKindName(kind), "trace", "bus %", "contention %",
                "cell %", "idle %");
    double idle_sum = 0.0;
    const auto &names = sweep.axes().traces;
    for (const auto &name : names) {
        const auto &m = sweep.at({.trace = name, .scheduler = kind});
        idle_sum += m.execIdlePct;
        std::printf("%-8s %8.1f %12.1f %10.1f %8.1f\n", name.c_str(),
                    m.execBusPct, m.execContentionPct, m.execCellPct,
                    m.execIdlePct);
    }
    std::printf("%-8s %40.1f\n", "mean idle",
                idle_sum / static_cast<double>(names.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 13", "execution time breakdown");

    SweepRunner sweep = bench::exhibitSweep(bench::fig13Grid(), cli);
    bench::runSweep(sweep, cli);

    for (const auto kind : sweep.axes().schedulers)
        table(sweep, kind);
    bench::printShapeNote(
        "paper: SPK3 raises the memory-operation share and cuts system "
        "idle by ~40% vs PAS; bus contention grows slightly in "
        "read-heavy workloads");
    return 0;
}
