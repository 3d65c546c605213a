/**
 * @file
 * Figure 12: time-series latency analysis on msnfs1.
 *
 * Replays the first 3000 I/Os of msnfs1 and prints per-I/O
 * device-level latency for VAS vs PAS (12a) and VAS vs SPK3 (12b),
 * sampled every 50 completions to keep the table readable; the cells
 * capture their per-I/O results (captureIoResults).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/exhibits.hh"

namespace
{

std::vector<double>
latencySeriesMs(const std::vector<spk::IoResult> &results)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const auto &res : results)
        out.push_back(static_cast<double>(res.latency()) / 1e6); // ms
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 12", "latency time series, msnfs1");

    bench::Grid grid = bench::fig12Grid();
    grid.build = [build = std::move(grid.build)](const SweepPoint &p) {
        DeviceJob job = build(p);
        job.captureIoResults = true;
        return job;
    };
    SweepRunner sweep = bench::exhibitSweep(std::move(grid), cli);
    bench::runSweep(sweep, cli);

    if (cli.fidelity == Fidelity::Fast) {
        // The estimator produces no per-I/O completion series, so the
        // table and the mean-latency summary below would be all
        // zeros; stop after the aggregate sweep (and its CSV).
        std::printf("fast fidelity: per-I/O time series unavailable "
                    "(aggregate metrics are in the CSV)\n");
        return 0;
    }
    // --filter may narrow the scheduler axis; filtered-out columns
    // print as zeros instead of faulting the lookup.
    const auto series = [&sweep](SchedulerKind kind) {
        return bench::hasScheduler(sweep, kind)
                   ? latencySeriesMs(sweep.array().ioResults(sweep.indexOf(
                         {.trace = "msnfs1", .scheduler = kind})))
                   : std::vector<double>{};
    };
    const auto vas = series(SchedulerKind::VAS);
    const auto pas = series(SchedulerKind::PAS);
    const auto spk3 = series(SchedulerKind::SPK3);
    const std::size_t rows =
        std::max({vas.size(), pas.size(), spk3.size()});

    std::printf("%8s %12s %12s %12s\n", "io#", "VAS ms", "PAS ms",
                "SPK3 ms");
    for (std::size_t i = 0; i < rows; i += 50) {
        std::printf("%8zu %12.3f %12.3f %12.3f\n", i,
                    i < vas.size() ? vas[i] : 0.0,
                    i < pas.size() ? pas[i] : 0.0,
                    i < spk3.size() ? spk3[i] : 0.0);
    }

    auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (const double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const double mv = mean(vas);
    const double mp = mean(pas);
    const double ms = mean(spk3);
    std::printf("\nmean latency: VAS %.3f ms, PAS %.3f ms, SPK3 %.3f ms\n",
                mv, mp, ms);
    if (mv > 0.0 && mp > 0.0 && !spk3.empty()) {
        std::printf("SPK3 reduction: %.0f%% vs VAS, %.0f%% vs PAS\n",
                    100.0 * (1.0 - ms / mv), 100.0 * (1.0 - ms / mp));
    }
    bench::printShapeNote(
        "paper: PAS smoother/lower than VAS; SPK3 ~80% below VAS and "
        "~64% below PAS on this trace");
    return 0;
}
