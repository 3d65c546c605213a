/**
 * @file
 * Figure 17: garbage collection and readdressing-callback impact.
 *
 * Bandwidth vs transfer size for VAS, PAS and SPK3 on pristine
 * devices and on 95%-full fragmented devices (suffix -GC), at 64 and
 * 256 chips. Write-heavy sweep so GC actually fires.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/exhibits.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Figure 17", "GC impact on bandwidth");

    SweepRunner sweep = bench::exhibitSweep(bench::fig17Grid(), cli);
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
                             (bench::isGcVariant(v) ? "-GC" : ""))
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
