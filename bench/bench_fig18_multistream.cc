/**
 * @file
 * Figure 18 (repo exhibit, beyond the paper): multi-stream fairness.
 *
 * A mixed-tenant fio job file (data/jobs/fig18_mixed.fio: a
 * latency-sensitive random reader, a deep sequential writer, two
 * background mixed workers) drives the multi-queue host front-end.
 * The sweep crosses the five schedulers with the three tag-space
 * arbitration policies and reports per-stream throughput and latency
 * plus a weight-normalized Jain fairness index per cell.
 *
 * Override the job file with SPK_FIO_JOB=/path/to/job.fio. With
 * --csv, per-cell metrics go to the given path and per-stream rows to
 * <path>.streams.csv.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/exhibits.hh"

namespace
{

/**
 * Jain's fairness index over weight-normalized service rates. Every
 * stream of a finished closed-loop run reports the same IOPS (same
 * I/O count over the same makespan), so the discriminating service
 * measure is the inverse of the mean latency: x_i = 1 / (lat_i *
 * w_i). An arbiter that hands out tag shares proportional to the
 * weights equalizes x and scores near 1.
 */
double
fairnessIndex(const std::vector<spk::StreamMetrics> &streams,
              const std::vector<spk::HostStreamConfig> &cfgs)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        if (streams[i].avgLatencyNs <= 0.0)
            continue;
        const double w =
            i < cfgs.size() && cfgs[i].weight > 0 ? cfgs[i].weight : 1.0;
        const double x = 1.0 / (streams[i].avgLatencyNs * w);
        sum += x;
        sum_sq += x * x;
        ++n;
    }
    if (n == 0 || sum_sq == 0.0)
        return 0.0;
    return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 18",
                       "multi-stream throughput / latency / fairness");

    SweepRunner sweep = bench::exhibitSweep(bench::fig18Grid(), cli);
    // Every cell replays the same streams.
    const std::vector<HostStreamConfig> &streams =
        sweep.array().jobs().front().streams;
    std::printf("job file: %s (%zu streams)\n",
                bench::fig18JobPath().c_str(), streams.size());
    bench::runSweep(sweep, cli, cli.csv,
                    [&sweep](const std::string &path) {
                        sweep.writeStreamCsvFile(path +
                                                 ".streams.csv");
                    });

    const auto &kinds = sweep.axes().schedulers;
    const auto &arbs = sweep.axes().arbiters;
    const std::string &trace = sweep.axes().traces.front();
    const auto cell = [&](SchedulerKind kind,
                          ArbiterKind arb) -> const MetricsSnapshot & {
        return sweep.at({.trace = trace, .scheduler = kind, .arbiter = arb});
    };

    for (const auto arb : arbs) {
        std::printf("\n(arbiter %s: per-stream IOPS / avg latency us "
                    "/ p99 us)\n",
                    arbiterKindName(arb));
        std::printf("%-10s %-10s", "stream", "metric");
        for (const auto kind : kinds)
            std::printf(" %10s", schedulerKindName(kind));
        std::printf("\n");
        const auto &first = cell(kinds.front(), arb);
        for (std::size_t s = 0; s < first.streams.size(); ++s) {
            std::printf("%-10s %-10s",
                        first.streams[s].name.c_str(), "iops");
            for (const auto kind : kinds) {
                const auto &m = cell(kind, arb);
                std::printf(" %10.0f", m.streams[s].iops);
            }
            std::printf("\n%-10s %-10s", "", "lat_us");
            for (const auto kind : kinds) {
                const auto &m = cell(kind, arb);
                std::printf(" %10.0f",
                            m.streams[s].avgLatencyNs / 1000.0);
            }
            std::printf("\n%-10s %-10s", "", "p99_us");
            for (const auto kind : kinds) {
                const auto &m = cell(kind, arb);
                std::printf(
                    " %10.0f",
                    static_cast<double>(m.streams[s].p99LatencyNs) /
                        1000.0);
            }
            std::printf("\n");
        }
    }

    std::printf("\n(total bandwidth KB/s and weight-normalized "
                "fairness)\n%-10s %-10s",
                "arbiter", "metric");
    for (const auto kind : kinds)
        std::printf(" %10s", schedulerKindName(kind));
    std::printf("\n");
    for (const auto arb : arbs) {
        std::printf("%-10s %-10s", arbiterKindName(arb), "bw");
        for (const auto kind : kinds) {
            const auto &m = cell(kind, arb);
            std::printf(" %10.0f", m.bandwidthKBps);
        }
        std::printf("\n%-10s %-10s", "", "fairness");
        for (const auto kind : kinds) {
            const auto &m = cell(kind, arb);
            std::printf(" %10.3f", fairnessIndex(m.streams, streams));
        }
        std::printf("\n");
    }

    bench::printShapeNote(
        "expected: WRR tracks the 1:4:2:2 weight shares (highest "
        "fairness), PRIO ignores weights for class order (lowest "
        "fairness, best oltp latency), RR sits between");
    return 0;
}
