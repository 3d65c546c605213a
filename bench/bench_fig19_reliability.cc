/**
 * @file
 * Reliability exhibit: scheduling under NAND fault injection.
 *
 * Tail latency and throughput vs injected fault rate for VAS, PAS and
 * SPK3 on a mixed random workload, under three die-level RAID
 * protection levels (fig19Grid in bench/exhibits.hh maps the fault
 * and variant axes onto the device). A second table breaks the
 * injected faults down by cause and recovery path: read-retry ladder
 * steps, uncorrectable pages, program remaps and retired blocks.
 */

#include <cstdio>
#include <string>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Reliability", "scheduling under fault injection");

    SweepRunner sweep = bench::exhibitSweep(bench::fig19Grid(), cli);
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
