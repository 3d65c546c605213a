/**
 * @file
 * Ablation studies of four Sprinkler design choices (not a paper
 * exhibit; supports the analysis sections):
 *
 *  1. FARO over-commitment window: 1 (no over-commit) .. 16.
 *  2. Flash-controller transaction decision window: 0 .. 10 us.
 *  3. Device-level queue depth: 8 .. 128.
 *  4. Page allocation policy (channel-stripe vs plane-first) per
 *     scheduler.
 *
 * Each study is one SweepRunner with the swept parameter on the
 * variant axis; --csv writes one file per study (suffixes .faro,
 * .decision, .depth, .alloc appended to the given path).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"

namespace
{

using namespace spk;

Trace
workload(const SsdConfig &cfg, std::uint64_t seed)
{
    SyntheticConfig wl;
    wl.numIos = 1500;
    wl.readFraction = 0.6;
    wl.readSizes = {{16384, 0.6}, {65536, 0.4}};
    wl.writeSizes = {{16384, 1.0}};
    wl.locality = 0.6;
    wl.spanBytes = bench::spanFor(cfg, 0.5);
    wl.meanInterarrival = 10 * kMicrosecond;
    wl.seed = seed;
    return generateSynthetic(wl);
}

std::string
suffixed(const std::string &csv, const char *suffix)
{
    return csv.empty() ? csv : csv + suffix;
}

void
faroWindowSweep(const bench::BenchCli &cli)
{
    SweepAxes axes;
    axes.schedulers = {SchedulerKind::SPK3};
    axes.seeds = {71};
    axes.fidelities = {cli.fidelity};
    axes.variants = {"1", "2", "4", "8", "12", "16"};

    // The trace depends on the config only through the geometry,
    // which no variant overrides: build it once.
    const TraceRef trace =
        workload(bench::evalConfig(SchedulerKind::SPK3), 71);
    SweepRunner sweep(filterAxes(axes, cli.filter),
                      [&trace](const SweepPoint &p) {
                          DeviceJob job;
                          job.cfg = bench::evalConfig(p.scheduler);
                          job.cfg.faroWindow = static_cast<std::uint32_t>(
                              std::stoul(p.variant));
                          job.trace = trace;
                          return job;
                      });
    bench::runSweep(sweep, cli, suffixed(cli.csv, ".faro"));

    std::printf("\n(1) FARO over-commitment window (SPK3, 64 chips)\n");
    std::printf("%8s %12s %12s %10s %12s\n", "window", "BW KB/s",
                "latency us", "txns", "intra-idle %");
    for (const auto &v : sweep.axes().variants) {
        const auto &m =
            sweep.at({.scheduler = SchedulerKind::SPK3, .variant = v});
        std::printf("%8lu %12.0f %12.0f %10llu %12.1f\n",
                    std::stoul(v), m.bandwidthKBps,
                    m.avgLatencyNs / 1000.0,
                    static_cast<unsigned long long>(m.transactions),
                    m.intraChipIdlenessPct);
    }
}

void
decisionWindowSweep(const bench::BenchCli &cli)
{
    SweepAxes axes;
    axes.schedulers = {SchedulerKind::SPK3};
    axes.seeds = {72};
    axes.fidelities = {cli.fidelity};
    axes.variants = {"0", "1", "3", "5", "10"}; // microseconds

    const TraceRef trace =
        workload(bench::evalConfig(SchedulerKind::SPK3), 72);
    SweepRunner sweep(
        filterAxes(axes, cli.filter), [&trace](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = bench::evalConfig(p.scheduler);
            job.cfg.decisionWindow =
                std::stoull(p.variant) * kMicrosecond;
            job.trace = trace;
            return job;
        });
    bench::runSweep(sweep, cli, suffixed(cli.csv, ".decision"));

    std::printf("\n(2) transaction decision window (SPK3, 64 chips)\n");
    std::printf("%12s %12s %12s %10s\n", "window us", "BW KB/s",
                "latency us", "txns");
    for (const auto &v : sweep.axes().variants) {
        const auto &m =
            sweep.at({.scheduler = SchedulerKind::SPK3, .variant = v});
        std::printf("%12.1f %12.0f %12.0f %10llu\n",
                    static_cast<double>(std::stoull(v)),
                    m.bandwidthKBps, m.avgLatencyNs / 1000.0,
                    static_cast<unsigned long long>(m.transactions));
    }
}

void
queueDepthSweep(const bench::BenchCli &cli)
{
    SweepAxes axes;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK3};
    axes.seeds = {73};
    axes.fidelities = {cli.fidelity};
    axes.variants = {"8", "16", "32", "64", "128"};

    const TraceRef trace =
        workload(bench::evalConfig(SchedulerKind::VAS), 73);
    SweepRunner sweep(filterAxes(axes, cli.filter),
                      [&trace](const SweepPoint &p) {
                          DeviceJob job;
                          job.cfg = bench::evalConfig(p.scheduler);
                          job.cfg.nvmhc.queueDepth =
                              static_cast<std::uint32_t>(
                                  std::stoul(p.variant));
                          job.trace = trace;
                          return job;
                      });
    bench::runSweep(sweep, cli, suffixed(cli.csv, ".depth"));

    const bool has_vas = bench::hasScheduler(sweep, SchedulerKind::VAS);
    const bool has_spk3 =
        bench::hasScheduler(sweep, SchedulerKind::SPK3);

    std::printf("\n(3) device-level queue depth (64 chips)\n");
    std::printf("%8s %12s %12s %12s\n", "depth", "VAS KB/s",
                "SPK3 KB/s", "SPK3/VAS");
    for (const auto &v : sweep.axes().variants) {
        const auto bw = [&](SchedulerKind kind) {
            return sweep.at({.scheduler = kind, .variant = v}).bandwidthKBps;
        };
        const double vas = has_vas ? bw(SchedulerKind::VAS) : 0.0;
        const double spk3 = has_spk3 ? bw(SchedulerKind::SPK3) : 0.0;
        std::printf("%8lu %12.0f %12.0f %12.2f\n", std::stoul(v), vas,
                    spk3, vas > 0.0 ? spk3 / vas : 0.0);
    }
}

void
allocationSweep(const bench::BenchCli &cli)
{
    SweepAxes axes;
    axes.schedulers = bench::allSchedulers();
    axes.seeds = {74};
    axes.fidelities = {cli.fidelity};
    axes.variants = {"channel-stripe", "plane-first"};

    const TraceRef trace =
        workload(bench::evalConfig(SchedulerKind::VAS), 74);
    SweepRunner sweep(
        filterAxes(axes, cli.filter), [&trace](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = bench::evalConfig(p.scheduler);
            job.cfg.ftl.allocation =
                p.variant == "plane-first"
                    ? AllocationPolicy::PlaneFirst
                    : AllocationPolicy::ChannelStripe;
            job.trace = trace;
            return job;
        });
    bench::runSweep(sweep, cli, suffixed(cli.csv, ".alloc"));

    std::printf("\n(4) page allocation policy x scheduler (64 chips)\n");
    // Column headers are the surviving variant labels, so --filter
    // never shows one policy's numbers under the other's name.
    std::printf("%-6s", "sched");
    for (const auto &v : sweep.axes().variants)
        std::printf(" %16s", v.c_str());
    std::printf("\n");
    for (const auto kind : sweep.axes().schedulers) {
        std::printf("%-6s", schedulerKindName(kind));
        for (const auto &v : sweep.axes().variants)
            std::printf(" %16.0f",
                        sweep.at({.scheduler = kind, .variant = v})
                            .bandwidthKBps);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Ablations", "design-choice sensitivity");
    faroWindowSweep(cli);
    decisionWindowSweep(cli);
    queueDepthSweep(cli);
    allocationSweep(cli);
    bench::printShapeNote(
        "expected: window=1 degenerates SPK3 toward SPK2; deeper queues "
        "widen the SPK3/VAS gap; plane-first allocation boosts "
        "coalescing-capable schedulers (PAS/SPK1/SPK3) by packing "
        "consecutive pages into one chip's planes, while VAS -- one "
        "outstanding request per chip -- collapses");
    return 0;
}
