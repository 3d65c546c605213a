/**
 * @file
 * Figure 10: system performance across the sixteen workloads and the
 * five schedulers.
 *
 * (a) bandwidth, (b) IOPS, (c) average device-level latency,
 * (d) queue stall time normalized to VAS.
 */

#include <cstdio>
#include <string>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 10", "bandwidth / IOPS / latency / stall");

    SweepRunner sweep = bench::exhibitSweep(bench::fig10Grid(), cli);
    bench::runSweep(sweep, cli);

    const auto &names = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;

    const auto print_metric =
        [&](const char *title, auto getter, const char *fmt) {
            std::printf("\n(%s)\n%-8s", title, "trace");
            for (const auto kind : kinds)
                std::printf(" %10s", schedulerKindName(kind));
            std::printf("\n");
            for (const auto &name : names) {
                std::printf("%-8s", name.c_str());
                for (const auto kind : kinds) {
                    std::printf(fmt, getter(sweep.at(
                                         {.trace = name, .scheduler = kind})));
                }
                std::printf("\n");
            }
        };

    print_metric(
        "a: bandwidth KB/s",
        [](const MetricsSnapshot &m) { return m.bandwidthKBps; },
        " %10.0f");
    print_metric(
        "b: IOPS", [](const MetricsSnapshot &m) { return m.iops; },
        " %10.0f");
    print_metric(
        "c: avg latency us",
        [](const MetricsSnapshot &m) { return m.avgLatencyNs / 1000.0; },
        " %10.0f");

    const bool have_vas = bench::hasScheduler(sweep, SchedulerKind::VAS);
    if (have_vas) {
        std::printf("\n(d: queue stall time, normalized to VAS)\n%-8s",
                    "trace");
        for (const auto kind : kinds)
            std::printf(" %10s", schedulerKindName(kind));
        std::printf("\n");
        for (const auto &name : names) {
            const double vas = static_cast<double>(
                sweep.at({.trace = name, .scheduler = SchedulerKind::VAS})
                    .queueStallTime);
            std::printf("%-8s", name.c_str());
            for (const auto kind : kinds) {
                const double stall = static_cast<double>(
                    sweep.at({.trace = name, .scheduler = kind})
                        .queueStallTime);
                std::printf(" %10.3f", vas > 0.0 ? stall / vas : 0.0);
            }
            std::printf("\n");
        }
    }

    // Aggregate shape check.
    const bool have_all =
        have_vas && bench::hasScheduler(sweep, SchedulerKind::PAS) &&
        bench::hasScheduler(sweep, SchedulerKind::SPK3);
    if (have_all && !names.empty()) {
        double bw_gain_vas = 0.0;
        double bw_gain_pas = 0.0;
        for (const auto &name : names) {
            const auto bw = [&](SchedulerKind kind) {
                return sweep.at({.trace = name, .scheduler = kind})
                    .bandwidthKBps;
            };
            bw_gain_vas += bw(SchedulerKind::SPK3) / bw(SchedulerKind::VAS);
            bw_gain_pas += bw(SchedulerKind::SPK3) / bw(SchedulerKind::PAS);
        }
        std::printf(
            "\nSPK3 mean bandwidth gain: %.2fx vs VAS, %.2fx vs PAS\n",
            bw_gain_vas / names.size(), bw_gain_pas / names.size());
    }
    bench::printShapeNote(
        "paper: SPK3 >= 2.2x VAS and >= 1.8x PAS bandwidth, 59-92% "
        "latency reduction vs VAS, ~86% less queue stall");
    return 0;
}
