/**
 * @file
 * Reliability exhibit: scheduling under NAND fault injection.
 *
 * Tail latency and throughput vs injected fault rate for VAS, PAS and
 * SPK3 on a mixed random workload. The fault axis value f becomes the
 * transient read-error rate; program and erase failures are injected
 * at f/10 (program/erase disturb is rarer than read noise). A second
 * table breaks the injected faults down by cause and recovery path:
 * read-retry ladder steps, uncorrectable pages, program remaps and
 * retired blocks.
 *
 * The variant axis compares die-level RAID protection levels:
 *   parity=off      no redundancy (the historical behavior)
 *   parity=on       die-parity striping + soft-decode ladder stage
 *   parity=rebuild  parity=on plus a mid-run die failure with online
 *                   rebuild — degraded reads reconstruct, the rebuild
 *                   restores redundancy
 *
 * Sweep axes: scheduler x fault rate x parity variant (single
 * workload, single seed).
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Reliability", "scheduling under fault injection");

    SweepAxes axes;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK3};
    axes.seeds = {71};
    axes.faults = {0.0, 1e-4, 1e-3, 1e-2, 5e-2};
    axes.variants = {"parity=off", "parity=on", "parity=rebuild"};
    axes.fidelities = {cli.fidelity};

    // Size the shared workload span for the smallest logical capacity
    // in the grid (parity reserves 1/D of every chip), so every
    // variant replays the identical trace.
    SsdConfig parity_base = bench::evalConfig(SchedulerKind::VAS);
    parity_base.parity.enabled = true;
    const std::uint64_t span = bench::spanFor(parity_base, 0.6);
    // Mixed random stream: enough writes to fill blocks and drive GC
    // (program/erase faults need programs and erase pulses to fire).
    const TraceRef trace =
        fixedSizeStream(3000, 8192, 0.5, span, 5 * kMicrosecond, 71);

    SweepRunner sweep(filterAxes(axes, cli.filter),
                      [&trace](const SweepPoint &p) {
                          DeviceJob job;
                          job.cfg = bench::evalConfig(p.scheduler);
                          job.cfg.fault.readTransientRate = p.fault;
                          job.cfg.fault.programFailRate = p.fault / 10;
                          job.cfg.fault.eraseFailRate = p.fault / 10;
                          if (p.variant != "parity=off") {
                              job.cfg.parity.enabled = true;
                              job.cfg.fault.softDecodeEnabled = true;
                          }
                          if (p.variant == "parity=rebuild") {
                              job.cfg.fault.dieFailTick =
                                  4 * kMillisecond;
                              job.cfg.fault.dieFailChip = 0;
                              job.cfg.fault.dieFailDie = 0;
                              job.cfg.parity.rebuildPageInterval =
                                  5 * kMicrosecond;
                          }
                          job.trace = trace;
                          return job;
                      });
    bench::runSweep(sweep, cli);

    // All lookups below use the *filtered* axes: a --filter can strip
    // any value (the CI smokes run one parity variant at a time), so
    // no cell may be addressed by a hardcoded axis value.
    const auto &kinds = sweep.axes().schedulers;
    const auto &faults = sweep.axes().faults;
    const auto &variants = sweep.axes().variants;
    const auto cell = [&sweep](SchedulerKind kind,
                               const std::string &variant,
                               double fault) -> const MetricsSnapshot & {
        return sweep.at(
            {.scheduler = kind, .variant = variant, .fault = fault});
    };

    for (const auto &variant : variants) {
        std::printf("\n(%s: p99 latency us / IOPS vs injected fault "
                    "rate)\n",
                    variant.c_str());
        std::printf("%10s", "fault");
        for (const auto kind : kinds)
            std::printf(" %10s-p99 %9s-iops", schedulerKindName(kind),
                        schedulerKindName(kind));
        std::printf("\n");
        for (const double f : faults) {
            std::printf("%10.0e", f);
            for (const auto kind : kinds) {
                const MetricsSnapshot &m = cell(kind, variant, f);
                std::printf(" %14.1f %14.0f",
                            static_cast<double>(m.p99LatencyNs) /
                                1000.0,
                            m.iops);
            }
            std::printf("\n");
        }
    }

    // Per-cause breakdown, one row per (scheduler, fault) cell of the
    // first surviving variant (parity=off in the full grid — the
    // unprotected failure profile).
    const std::string &cause_variant = variants.front();
    std::printf("\n(%s fault breakdown per cell)\n",
                cause_variant.c_str());
    std::printf("%6s %10s %9s %7s %7s %7s %7s %9s %8s\n", "sched",
                "fault", "retries", "uncorr", "remaps", "r-wear",
                "r-prog", "r-erase", "failedIO");
    for (const auto kind : kinds) {
        for (const double f : faults) {
            const MetricsSnapshot &m = cell(kind, cause_variant, f);
            std::printf("%6s %10.0e %9llu %7llu %7llu %7llu %7llu "
                        "%9llu %8llu\n",
                        schedulerKindName(kind), f,
                        static_cast<unsigned long long>(m.readRetries),
                        static_cast<unsigned long long>(
                            m.uncorrectableReads),
                        static_cast<unsigned long long>(
                            m.programRemaps),
                        static_cast<unsigned long long>(
                            m.blocksRetiredWear),
                        static_cast<unsigned long long>(
                            m.blocksRetiredProgram),
                        static_cast<unsigned long long>(
                            m.blocksRetiredErase),
                        static_cast<unsigned long long>(m.failedIos));
        }
    }

    // Protection economics: what the parity machinery did, and what
    // failures it absorbed, per (variant, fault) cell under the last
    // surviving scheduler (SPK3 in the full grid).
    const SchedulerKind econ_kind = kinds.back();
    std::printf("\n(%s parity/rebuild/soft-decode breakdown)\n",
                schedulerKindName(econ_kind));
    std::printf("%15s %10s %8s %7s %8s %8s %9s %8s %8s %6s\n",
                "variant", "fault", "parity", "rmw", "reconst",
                "rebuilt", "softdec", "sdfail", "failedIO", "degr");
    for (const auto &variant : variants) {
        for (const double f : faults) {
            const MetricsSnapshot &m = cell(econ_kind, variant, f);
            std::printf("%15s %10.0e %8llu %7llu %8llu %8llu %9llu "
                        "%8llu %8llu %6llu\n",
                        variant.c_str(), f,
                        static_cast<unsigned long long>(
                            m.parityUpdates),
                        static_cast<unsigned long long>(
                            m.parityRmwReads),
                        static_cast<unsigned long long>(
                            m.reconstructedReads),
                        static_cast<unsigned long long>(
                            m.rebuildPagesRebuilt),
                        static_cast<unsigned long long>(
                            m.softDecodeInvocations),
                        static_cast<unsigned long long>(
                            m.softDecodeFailures),
                        static_cast<unsigned long long>(m.failedIos),
                        static_cast<unsigned long long>(
                            m.degradedDies));
        }
    }

    // Retry-ladder occupancy for the highest surviving fault rate
    // (first scheduler, first variant): how deep the re-senses go.
    {
        const MetricsSnapshot &m =
            cell(kinds.front(), cause_variant, faults.back());
        std::printf("\n(%s %s @ %.0e retry-ladder occupancy)\n",
                    schedulerKindName(kinds.front()),
                    cause_variant.c_str(), faults.back());
        for (std::size_t step = 0; step < m.readRetriesByStep.size();
             ++step) {
            if (m.readRetriesByStep[step] == 0)
                continue;
            std::printf("  step %zu: %llu\n", step + 1,
                        static_cast<unsigned long long>(
                            m.readRetriesByStep[step]));
        }
    }

    bench::printShapeNote(
        "expected: counters rise monotonically with the injected rate; "
        "p99 degrades gracefully (retry ladder + soft decode), never "
        "panics; parity=on converts failed I/Os into reconstructed "
        "reads at a parity-update cost; parity=rebuild ends with zero "
        "degraded dies and zero failed I/Os from the dead die");
    return 0;
}
