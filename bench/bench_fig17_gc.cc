/**
 * @file
 * Figure 17: garbage collection and readdressing-callback impact.
 *
 * Bandwidth vs transfer size for VAS, PAS and SPK3 on pristine
 * devices and on 95%-full fragmented devices (suffix -GC), at 64 and
 * 256 chips. Write-heavy sweep so GC actually fires.
 *
 * Sweep axes: transfer size (trace axis) x scheduler x variant,
 * where the variant axis crosses chip count with GC preconditioning
 * ("64", "64-GC", "256", "256-GC").
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"

namespace
{

spk::SsdConfig
scaled(spk::SchedulerKind kind, std::uint32_t chips)
{
    using namespace spk;
    SsdConfig cfg = SsdConfig::withChips(chips);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    cfg.ftl.overprovision = 0.15;
    return cfg;
}

bool
isGcVariant(const std::string &variant)
{
    return variant.ends_with("-GC");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 17", "GC impact on bandwidth");

    SweepAxes axes;
    axes.traces = {"4", "16", "64", "256", "1024"}; // xfer KB
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK3};
    axes.seeds = {61};
    axes.variants = {"64", "64-GC", "256", "256-GC"};
    axes.fidelities = {cli.fidelity};

    SweepRunner sweep(
        filterAxes(axes, cli.filter), [](const SweepPoint &p) {
            const auto size_kb = std::stoull(p.trace);
            const auto chips =
                static_cast<std::uint32_t>(std::stoul(p.variant));
            DeviceJob job;
            job.cfg = scaled(p.scheduler, chips);
            job.preconditionGc = isGcVariant(p.variant);
            const std::uint64_t span = bench::spanFor(job.cfg, 0.6);
            const std::uint64_t budget = 8ull << 20;
            const std::uint64_t n_ios = std::max<std::uint64_t>(
                16, budget / (size_kb << 10));
            // Write-dominated random stream (the paper uses 1 MB
            // random writes to fragment; the sweep keeps writing).
            job.trace = fixedSizeStream(n_ios, size_kb << 10, 0.9,
                                        span, 5 * kMicrosecond,
                                        p.seed);
            return job;
        });
    bench::runSweep(sweep, cli);

    const auto &sizes = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;
    const auto &variants = sweep.axes().variants;

    // One table per chip count: group the surviving variants by their
    // numeric prefix, preserving axis order.
    std::vector<std::string> chip_groups;
    for (const auto &v : variants) {
        const std::string base = std::to_string(std::stoul(v));
        if (std::find(chip_groups.begin(), chip_groups.end(), base) ==
            chip_groups.end())
            chip_groups.push_back(base);
    }

    for (const auto &chips : chip_groups) {
        std::printf("\n(%lu flash chips, bandwidth KB/s)\n%8s",
                    std::stoul(chips), "xfer-KB");
        std::vector<std::string> cols; // variants of this group, in
                                       // pristine-then-GC order
        for (const std::string &v : {chips, chips + "-GC"}) {
            if (std::find(variants.begin(), variants.end(), v) !=
                variants.end())
                cols.push_back(v);
        }
        for (const auto kind : kinds) {
            for (const auto &v : cols) {
                std::printf(" %10s",
                            (std::string(schedulerKindName(kind)) +
                             (isGcVariant(v) ? "-GC" : ""))
                                .c_str());
            }
        }
        std::printf("\n");

        for (const auto &size_label : sizes) {
            std::printf("%8llu", static_cast<unsigned long long>(
                                     std::stoull(size_label)));
            for (const auto kind : kinds) {
                for (const auto &v : cols) {
                    std::printf(" %10.0f",
                                sweep.at({.trace = size_label,
                                          .scheduler = kind,
                                          .variant = v})
                                    .bandwidthKBps);
                }
            }
            std::printf("\n");
        }
    }

    bench::printShapeNote(
        "paper: GC degrades everyone; SPK3-GC loses 33-78% vs pristine "
        "SPK3 but stays above VAS-GC/PAS-GC thanks to the readdressing "
        "callback");
    return 0;
}
