/**
 * @file
 * Every bench campaign, one program: `bench_exhibit NAME [options]`.
 * NAME is a paper exhibit (table1, fig01, fig06 or fig10 ... fig19;
 * fig18 and fig19 are the repo's own multi-stream and reliability
 * exhibits), one of four ablation studies of Sprinkler's design
 * choices (ablation-faro, ablation-decision, ablation-depth,
 * ablation-alloc), or calibration, the fast-mode estimator's error
 * campaign over the exhibits. --help lists them with their headers,
 * `bench_exhibit NAME --help` the options NAME takes
 * (bench/bench_cli.hh).
 *
 * Each is one row of exhibits(): its name, header, grid
 * (bench/exhibits.hh) and calibration sample of it, the report that
 * prints its tables from the finished sweep, and its paper-shape
 * note. main() runs every row the same way: parse the command line,
 * print the header, run the grid, print the report and the note.
 * table1 and calibration run no one grid, so they print their own
 * tables.
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/exhibits.hh"
#include "sim/estimator.hh"

namespace
{

using namespace spk;

/**
 * Calibration's sample of an exhibit's grid: the grid at fewer I/Os
 * per cell, and the axis values kept, which span the exhibit's
 * regimes (trace locality classes, transfer sizes, chip counts, GC
 * preconditioning).
 */
struct Sample
{
    bench::Grid (*grid)() = nullptr;
    bench::AxisSample keep = {};
};

/** One row: its name on the command line, its header, what it runs
 *  and what it prints. */
struct Exhibit
{
    const char *name;
    const char *title; //!< the header reads "=== title: what ==="
    const char *what;
    bench::Grid (*grid)() = nullptr;
    Sample sample = {}; //!< no grid: calibration leaves the row out
    void (*report)(const SweepRunner &sweep) = nullptr; //!< the tables
    const char *note = ""; //!< the paper-shape note after the tables
    /** The cells capture per-I/O results for the report; fast cells
     *  have none, so a notice stands in for its tables and note. */
    bool ioSeries = false;
    /** Prints, before the cells run, what they replay. */
    void (*preface)(const SweepRunner &sweep) = nullptr;
    bool streamCsv = false; //!< --csv PATH also writes PATH.streams.csv
    /** Stands in for grid and report where no one grid runs: prints
     *  the tables and returns the exit status. @p all is every row,
     *  whose samples calibration runs. */
    int (*table)(const bench::BenchCli &cli,
                 const std::vector<Exhibit> &all) = nullptr;
    std::vector<bench::CliOption> options = {}; //!< its own options
    std::vector<std::string> omit = {}; //!< shared ones it does not take
};

/**
 * Table 1: trace characteristics. Regenerates the sixteen workloads
 * and prints the same columns the paper tabulates, verifying that the
 * synthetic generators reproduce the reported statistics (direction
 * mix, mean sizes, randomness).
 * Of the shared options it takes only --filter (applied to the trace
 * names, as spk::filterAxes does) and --csv, which emits the summary
 * columns instead of device metrics.
 */
int
table1Traces(const bench::BenchCli &cli, const std::vector<Exhibit> &)
{
    SweepAxes axes;
    axes.traces.clear();
    for (const auto &info : paperTraces())
        axes.traces.push_back(info.name);

    std::printf("%-8s %10s %10s %8s %8s %9s %9s %8s\n", "trace",
                "readKB", "writeKB", "reads", "writes", "rand-r%",
                "rand-w%", "locality");

    std::ofstream csv;
    if (!cli.csv.empty()) {
        csv.open(cli.csv);
        if (!csv)
            fatal("cannot open CSV file " + cli.csv);
        csv << "trace,read_kb,write_kb,reads,writes,rand_read_pct,"
               "rand_write_pct,locality\n";
    }

    for (const auto &name : filterAxes(axes, cli.filter).traces) {
        const auto &info = paperTrace(name);
        const auto s =
            summarize(generatePaperTrace(name, 3000, 1ull << 30, 7));
        std::printf("%-8s %10llu %10llu %8llu %8llu %9.2f %9.2f %8s\n",
                    info.name,
                    static_cast<unsigned long long>(s.readBytes / 1024),
                    static_cast<unsigned long long>(s.writeBytes / 1024),
                    static_cast<unsigned long long>(s.readCount),
                    static_cast<unsigned long long>(s.writeCount),
                    s.readRandomness, s.writeRandomness, info.locality);
        if (csv.is_open()) {
            csv << info.name << ',' << s.readBytes / 1024 << ','
                << s.writeBytes / 1024 << ',' << s.readCount << ','
                << s.writeCount << ',' << s.readRandomness << ','
                << s.writeRandomness << ',' << info.locality << '\n';
        }
    }
    return 0;
}

/**
 * Figure 1: many-chip SSD performance stagnation.
 * (a) read bandwidth vs number of flash dies for several transfer
 *     sizes -- bandwidth stops scaling;
 * (b) chip utilization drops and memory-level idleness grows as dies
 *     are added.
 * The paper sweeps 2..32768 dies under a conventional controller; we
 * sweep 2..8192 dies (the stagnation shape is established well before
 * the top of the paper's range) under VAS.
 */
void
fig01Report(const SweepRunner &sweep)
{
    std::printf("%8s %8s | %12s %10s %10s\n", "dies", "xfer-KB",
                "read-BW KB/s", "util %", "idle %");

    for (const auto &size_label : sweep.axes().traces) {
        for (const auto &chip_label : sweep.axes().variants) {
            const SsdConfig cfg = bench::fig01Device(
                SchedulerKind::VAS,
                static_cast<std::uint32_t>(std::stoul(chip_label)));
            const auto &m = sweep.at({.trace = size_label,
                                      .scheduler = SchedulerKind::VAS,
                                      .variant = chip_label});
            std::printf("%8u %8llu | %12.0f %10.1f %10.1f\n",
                        cfg.geometry.numChips() *
                            cfg.geometry.diesPerChip,
                        static_cast<unsigned long long>(
                            std::stoull(size_label)),
                        m.bandwidthKBps, m.chipUtilizationPct,
                        m.interChipIdlenessPct);
        }
        std::printf("\n");
    }
}

/**
 * Figure 6: resource utilization and improvement potential.
 * Chip utilization under three scenarios per workload: the typical
 * controller (VAS), resource conflicts addressed (PAS), and both
 * challenges removed -- parallelism dependency relaxed plus high
 * transactional locality (SPK3 serves as the realized potential).
 */
void
fig06Report(const SweepRunner &sweep)
{
    // Column labels follow the surviving scheduler axis, so --filter
    // never prints a value under another scheduler's header. SPK3
    // realizes the paper's "potential" scenario.
    const auto &kinds = sweep.axes().schedulers;
    const auto column = [](SchedulerKind kind) {
        return kind == SchedulerKind::SPK3
                   ? std::pair<const char *, int>{"potential %", 12}
                   : std::pair<const char *, int>{
                         kind == SchedulerKind::VAS ? "VAS %"
                                                    : "PAS %",
                         10};
    };

    std::printf("%-8s", "trace");
    for (const auto kind : kinds) {
        const auto [label, width] = column(kind);
        std::printf(" %*s", width, label);
    }
    std::printf("\n");

    std::vector<double> sums(kinds.size(), 0.0);
    for (const auto &name : sweep.axes().traces) {
        std::printf("%-8s", name.c_str());
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const double util =
                sweep.at({.trace = name, .scheduler = kinds[k]})
                    .flashLevelUtilizationPct;
            sums[k] += util;
            std::printf(" %*.1f", column(kinds[k]).second, util);
        }
        std::printf("\n");
    }

    const double n = static_cast<double>(sweep.axes().traces.size());
    std::printf("%-8s", "mean");
    for (std::size_t k = 0; k < kinds.size(); ++k)
        std::printf(" %*.1f", column(kinds[k]).second, sums[k] / n);
    std::printf("\n");
}

/**
 * Figure 10: system performance across the sixteen workloads and the
 * five schedulers.
 * (a) bandwidth, (b) IOPS, (c) average device-level latency,
 * (d) queue stall time normalized to VAS.
 */
void
fig10Report(const SweepRunner &sweep)
{
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
}

/**
 * Figure 11: device-level idleness analysis.
 * (a) inter-chip idleness -- chips idle while work is pending;
 * (b) intra-chip idleness -- die/plane capacity idle inside busy
 *     chips -- for all five schedulers across the sixteen workloads.
 */
void
fig11Report(const SweepRunner &sweep)
{
    const auto &names = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;
    const std::size_t nk = kinds.size();

    std::printf("%-8s |", "trace");
    for (const auto kind : kinds)
        std::printf(" %9s", schedulerKindName(kind));
    std::printf(" |");
    for (const auto kind : kinds)
        std::printf(" %9s", schedulerKindName(kind));
    std::printf("\n%-8s |%45s |%45s\n", "", "(a) inter-chip idle %",
                "(b) intra-chip idle %");

    std::vector<double> inter_sum(nk, 0.0);
    std::vector<double> intra_sum(nk, 0.0);
    for (const auto &name : names) {
        std::printf("%-8s |", name.c_str());
        for (std::size_t k = 0; k < nk; ++k) {
            const auto &m =
                sweep.at({.trace = name, .scheduler = kinds[k]});
            inter_sum[k] += m.interChipIdlenessPct;
            std::printf(" %9.1f", m.interChipIdlenessPct);
        }
        std::printf(" |");
        for (std::size_t k = 0; k < nk; ++k) {
            const auto &m =
                sweep.at({.trace = name, .scheduler = kinds[k]});
            intra_sum[k] += m.intraChipIdlenessPct;
            std::printf(" %9.1f", m.intraChipIdlenessPct);
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(names.size());
    std::printf("%-8s |", "mean");
    for (std::size_t k = 0; k < nk; ++k)
        std::printf(" %9.1f", inter_sum[k] / n);
    std::printf(" |");
    for (std::size_t k = 0; k < nk; ++k)
        std::printf(" %9.1f", intra_sum[k] / n);
    std::printf("\n");
}

/**
 * Figure 12: time-series latency analysis on msnfs1.
 * Replays the first 3000 I/Os of msnfs1 and prints per-I/O
 * device-level latency for VAS vs PAS (12a) and VAS vs SPK3 (12b),
 * sampled every 50 completions to keep the table readable (its row
 * sets ioSeries, so the cells capture their per-I/O results).
 */
std::vector<double>
latencySeriesMs(const std::vector<spk::IoResult> &results)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const auto &res : results)
        out.push_back(static_cast<double>(res.latency()) / 1e6); // ms
    return out;
}

void
fig12Report(const SweepRunner &sweep)
{
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
}

/**
 * Figure 13: execution time breakdown.
 * Splits chip-time capacity into bus operation, bus contention,
 * memory (cell) operation and idle shares, for PAS (13a) and SPK3
 * (13b) across the sixteen workloads.
 */
void
fig13Report(const SweepRunner &sweep)
{
    const auto &names = sweep.axes().traces;
    for (const auto kind : sweep.axes().schedulers) {
        std::printf("\n(%s)\n%-8s %8s %12s %10s %8s\n",
                    schedulerKindName(kind), "trace", "bus %",
                    "contention %", "cell %", "idle %");
        double idle_sum = 0.0;
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
}

/**
 * Figure 14: flash-level parallelism breakdown.
 * Share of memory requests served at each FLP level (NON-PAL, PAL1 =
 * plane sharing, PAL2 = die interleaving, PAL3 = both) for PAS, SPK1,
 * SPK2 and SPK3 across the sixteen workloads.
 */
void
fig14Report(const SweepRunner &sweep)
{
    const auto &names = sweep.axes().traces;
    std::map<SchedulerKind, double> pal3;
    for (const auto kind : sweep.axes().schedulers) {
        std::printf("\n(%s)\n%-8s %9s %7s %7s %7s\n",
                    schedulerKindName(kind), "trace", "NON-PAL", "PAL1",
                    "PAL2", "PAL3");
        double sums[4] = {};
        for (const auto &name : names) {
            const auto &m = sweep.at({.trace = name, .scheduler = kind});
            std::printf("%-8s %9.1f %7.1f %7.1f %7.1f\n", name.c_str(),
                        m.flpPct[0], m.flpPct[1], m.flpPct[2],
                        m.flpPct[3]);
            for (int i = 0; i < 4; ++i)
                sums[i] += m.flpPct[i];
        }
        const double n = static_cast<double>(names.size());
        std::printf("%-8s %9.1f %7.1f %7.1f %7.1f\n", "mean",
                    sums[0] / n, sums[1] / n, sums[2] / n, sums[3] / n);
        pal3[kind] = sums[3] / n;
    }

    if (pal3.size() == 4) {
        std::printf("\nPAL3 means: PAS %.1f%%, SPK1 %.1f%%, SPK2 %.1f%%, "
                    "SPK3 %.1f%%\n",
                    pal3[SchedulerKind::PAS], pal3[SchedulerKind::SPK1],
                    pal3[SchedulerKind::SPK2],
                    pal3[SchedulerKind::SPK3]);
    }
}

/**
 * Figure 15: chip utilization vs transfer size and device scale.
 * Sweeps transfer sizes 4 KB .. 4 MB at 64 / 256 / 1024 flash chips
 * for VAS, SPK1, SPK2 and SPK3 (the paper's Fig. 15a-c): 132 cells,
 * the widest sharded fan-out.
 */
void
fig15Report(const SweepRunner &sweep)
{
    const auto &sizes = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;

    for (const auto &chip_label : sweep.axes().variants) {
        std::printf("\n(%lu flash chips)\n%8s",
                    std::stoul(chip_label), "xfer-KB");
        for (const auto kind : kinds)
            std::printf(" %8s", schedulerKindName(kind));
        std::printf("\n");

        double spk3_sum = 0.0;
        double vas_sum = 0.0;
        for (const auto &size_label : sizes) {
            std::printf("%8llu", static_cast<unsigned long long>(
                                     std::stoull(size_label)));
            for (const auto kind : kinds) {
                const auto &m =
                    sweep.at({.trace = size_label,
                              .scheduler = kind,
                              .variant = chip_label});
                std::printf(" %8.1f", m.flashLevelUtilizationPct);
                if (kind == SchedulerKind::SPK3)
                    spk3_sum += m.flashLevelUtilizationPct;
                if (kind == SchedulerKind::VAS)
                    vas_sum += m.flashLevelUtilizationPct;
            }
            std::printf("\n");
        }
        // Only meaningful when both ends of the comparison survived
        // the --filter.
        if (bench::hasScheduler(sweep, SchedulerKind::VAS) &&
            bench::hasScheduler(sweep, SchedulerKind::SPK3)) {
            std::printf("mean over sizes: VAS %.1f%%, SPK3 %.1f%%\n",
                        vas_sum / sizes.size(),
                        spk3_sum / sizes.size());
        }
    }
}

/**
 * Figure 16: flash transaction reduction.
 * Total flash transactions vs transfer size at 64 and 1024 chips for
 * VAS, SPK1, SPK2 and SPK3. FARO's over-commitment should roughly
 * halve the transaction count by coalescing.
 */
void
fig16Report(const SweepRunner &sweep)
{
    const auto &sizes = sweep.axes().traces;
    const auto &kinds = sweep.axes().schedulers;
    const bool have_pair =
        bench::hasScheduler(sweep, SchedulerKind::VAS) &&
        bench::hasScheduler(sweep, SchedulerKind::SPK3);

    for (const auto &chip_label : sweep.axes().variants) {
        std::printf("\n(%lu flash chips)\n%8s",
                    std::stoul(chip_label), "xfer-KB");
        for (const auto kind : kinds)
            std::printf(" %10s", schedulerKindName(kind));
        std::printf("\n");

        double reduction_sum = 0.0;
        for (const auto &size_label : sizes) {
            std::printf("%8llu", static_cast<unsigned long long>(
                                     std::stoull(size_label)));
            const auto txns = [&](SchedulerKind kind) {
                return sweep
                    .at({.trace = size_label,
                         .scheduler = kind,
                         .variant = chip_label})
                    .transactions;
            };
            for (const auto kind : kinds) {
                std::printf(" %10llu",
                            static_cast<unsigned long long>(txns(kind)));
            }
            std::printf("\n");
            if (have_pair) {
                const auto vas_txns = txns(SchedulerKind::VAS);
                const auto spk3_txns = txns(SchedulerKind::SPK3);
                if (vas_txns > 0) {
                    reduction_sum +=
                        100.0 *
                        (1.0 - static_cast<double>(spk3_txns) /
                                   static_cast<double>(vas_txns));
                }
            }
        }
        if (have_pair) {
            std::printf(
                "mean SPK3 transaction reduction vs VAS: %.1f%%\n",
                reduction_sum / sizes.size());
        }
    }
}

/**
 * Figure 17: garbage collection and readdressing-callback impact.
 * Bandwidth vs transfer size for VAS, PAS and SPK3 on pristine
 * devices and on 95%-full fragmented devices (suffix -GC), at 64 and
 * 256 chips. Write-heavy sweep so GC actually fires.
 */
void
fig17Report(const SweepRunner &sweep)
{
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
}

/**
 * Figure 18 (repo exhibit, beyond the paper): multi-stream fairness.
 * A mixed-tenant fio job file (data/jobs/fig18_mixed.fio: a
 * latency-sensitive random reader, a deep sequential writer, two
 * background mixed workers) drives the multi-queue host front-end.
 * The sweep crosses the five schedulers with the three tag-space
 * arbitration policies and reports per-stream throughput and latency
 * plus a weight-normalized Jain fairness index per cell. Override the
 * job file with SPK_FIO_JOB=/path/to/job.fio.
 */
void
fig18Preface(const SweepRunner &sweep)
{
    // Every cell replays the same streams.
    std::printf("job file: %s (%zu streams)\n",
                bench::fig18Job().name.c_str(),
                sweep.array().jobs().front().streams.size());
}

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

void
fig18Report(const SweepRunner &sweep)
{
    const std::vector<HostStreamConfig> &streams =
        sweep.array().jobs().front().streams;
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
}

/**
 * Reliability exhibit: scheduling under NAND fault injection.
 * Tail latency and throughput vs injected fault rate for VAS, PAS and
 * SPK3 on a mixed random workload, under three die-level RAID
 * protection levels (fig19Grid in bench/exhibits.hh maps the fault
 * and variant axes onto the device). A second table breaks the
 * injected faults down by cause and recovery path: read-retry ladder
 * steps, uncorrectable pages, program remaps and retired blocks.
 */
void
fig19Report(const SweepRunner &sweep)
{
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
}

// ------------------------------------------------ design-choice ablations
// Each study sweeps one Sprinkler setting on the variant axis of its
// grid (bench/exhibits.hh), on the 64-chip evaluation device.

/** FARO over-commitment window: 1 (no over-commit) .. 16, SPK3. */
void
faroWindowReport(const SweepRunner &sweep)
{
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

/** Flash-controller transaction decision window: 0 .. 10 us, SPK3. */
void
decisionWindowReport(const SweepRunner &sweep)
{
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

/** Device-level queue depth: 8 .. 128, VAS against SPK3. */
void
queueDepthReport(const SweepRunner &sweep)
{
    const bool has_vas = bench::hasScheduler(sweep, SchedulerKind::VAS);
    const bool has_spk3 =
        bench::hasScheduler(sweep, SchedulerKind::SPK3);
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

/** Page allocation policy (channel-stripe, plane-first) under every
 *  scheduler: bandwidth KB/s. */
void
allocationReport(const SweepRunner &sweep)
{
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

// ------------------------------------------------------------ calibration

constexpr std::size_t kNumMetrics = 4;

/** One (exact, fast) cell pair plus everything --fit needs to
 *  re-evaluate candidate constants against it (the job says the
 *  scheduler and whether the device was preconditioned). */
struct Anchor
{
    std::string exhibit;
    const DeviceJob *job = nullptr;
    const MetricsSnapshot *exact = nullptr;
    const MetricsSnapshot *fast = nullptr;
};

double
relErr(double est, double ref)
{
    if (ref == 0.0)
        return est == 0.0 ? 0.0 : 1.0;
    return std::abs(est - ref) / std::abs(ref);
}

std::array<double, kNumMetrics>
errsOf(const MetricsSnapshot &fast, const MetricsSnapshot &exact)
{
    return {relErr(fast.bandwidthKBps, exact.bandwidthKBps),
            relErr(fast.iops, exact.iops),
            relErr(fast.avgLatencyNs, exact.avgLatencyNs),
            relErr(static_cast<double>(fast.p99LatencyNs),
                   static_cast<double>(exact.p99LatencyNs))};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
        std::nth_element(v.begin(), v.begin() + mid - 1,
                         v.begin() + mid);
        m = (m + v[mid - 1]) / 2.0;
    }
    return m;
}

/** Per-exhibit and pooled error rows for one set of snapshots. The
 *  getter maps an anchor to the estimate under scrutiny (the fast
 *  cell of the dual run, or a candidate re-estimate under --fit). */
void
printErrorTable(
    const std::vector<Anchor> &anchors,
    const std::function<MetricsSnapshot(const Anchor &)> &estimate,
    const std::string &csv_path)
{
    std::printf("%-8s %6s %8s %8s %9s %8s %8s\n", "exhibit", "cells",
                "bw-med%", "bw-max%", "iops-med%", "lat-med%",
                "p99-med%");

    std::vector<std::string> order;
    std::map<std::string, std::vector<std::array<double, kNumMetrics>>>
        per_exhibit;
    for (const auto &a : anchors) {
        if (per_exhibit.find(a.exhibit) == per_exhibit.end())
            order.push_back(a.exhibit);
        per_exhibit[a.exhibit].push_back(
            errsOf(estimate(a), *a.exact));
    }

    std::FILE *csv = nullptr;
    if (!csv_path.empty()) {
        csv = std::fopen(csv_path.c_str(), "w");
        if (csv == nullptr)
            fatal("cannot open CSV file " + csv_path);
        std::fprintf(csv, "exhibit,cells,bw_med_pct,bw_max_pct,"
                          "iops_med_pct,lat_med_pct,p99_med_pct\n");
    }

    const auto emitRow =
        [&](const std::string &name,
            const std::vector<std::array<double, kNumMetrics>> &errs) {
            std::array<std::vector<double>, kNumMetrics> cols;
            for (const auto &e : errs)
                for (std::size_t m = 0; m < kNumMetrics; ++m)
                    cols[m].push_back(e[m]);
            // bw median, bw max, then the other medians, in percent.
            const double v[] = {
                100.0 * median(cols[0]),
                100.0 * *std::max_element(cols[0].begin(), cols[0].end()),
                100.0 * median(cols[1]), 100.0 * median(cols[2]),
                100.0 * median(cols[3])};
            std::printf("%-8s %6zu %8.1f %8.1f %9.1f %8.1f %8.1f\n",
                        name.c_str(), errs.size(), v[0], v[1], v[2], v[3],
                        v[4]);
            if (csv != nullptr)
                std::fprintf(csv, "%s,%zu,%.2f,%.2f,%.2f,%.2f,%.2f\n",
                             name.c_str(), errs.size(), v[0], v[1], v[2],
                             v[3], v[4]);
        };

    std::vector<std::array<double, kNumMetrics>> pooled;
    for (const auto &name : order) {
        const auto &errs = per_exhibit[name];
        emitRow(name, errs);
        pooled.insert(pooled.end(), errs.begin(), errs.end());
    }
    if (!pooled.empty())
        emitRow("pooled", pooled);
    if (csv != nullptr) {
        std::fclose(csv);
        std::printf("wrote error table to %s\n", csv_path.c_str());
    }
}

double
pooledBwMedian(
    const std::vector<Anchor> &anchors,
    const std::function<MetricsSnapshot(const Anchor &)> &estimate)
{
    std::vector<double> errs;
    errs.reserve(anchors.size());
    for (const auto &a : anchors)
        errs.push_back(errsOf(estimate(a), *a.exact)[0]);
    return median(std::move(errs));
}

/** Fit objective, targeting the acceptance criterion directly: the
 *  fraction of cells whose bandwidth error exceeds 10%, refined by
 *  the mean symmetric log error of bandwidth (so over- and
 *  under-prediction weigh the same) and a light p99 tiebreaker. */
double
fitScore(const std::vector<const Anchor *> &cells,
         const EstimatorConstants &k)
{
    const auto logErr = [](double fast, double exact) {
        if (exact <= 0.0 || fast <= 0.0)
            return fast == exact ? 0.0 : 2.0;
        return std::fabs(std::log(fast / exact));
    };
    double over = 0.0;
    double log_bw = 0.0;
    double log_p99 = 0.0;
    for (const Anchor *a : cells) {
        const MetricsSnapshot est = estimateDevice(*a->job, k);
        const auto e = errsOf(est, *a->exact);
        if (e[0] > 0.10)
            over += 1.0;
        log_bw += logErr(est.bandwidthKBps, a->exact->bandwidthKBps);
        log_p99 += logErr(
            static_cast<double>(est.p99LatencyNs),
            static_cast<double>(a->exact->p99LatencyNs));
    }
    const double n = static_cast<double>(cells.size());
    return over / n + 0.5 * log_bw / n + 0.125 * log_p99 / n;
}

EstimatorConstants
fitConstants(const std::vector<Anchor> &anchors)
{
    EstimatorConstants fitted = EstimatorConstants::calibrated();

    // Value grids for the coordinate descent, one per knob of the
    // concurrency law plus the bus and latency weights.
    static const std::vector<double> kPrefactors = {
        0.02, 0.035, 0.06, 0.1, 0.17, 0.3, 0.5,
        0.85, 1.4,   2.4,  4.0, 6.5};
    static const std::vector<double> kChipsExp = {0.7, 0.85, 1.0,
                                                  1.15};
    static const std::vector<double> kSizeExp = {
        0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0};
    static const std::vector<double> kBoosts = {1.0, 1.25, 1.5,
                                                1.75, 2.0, 2.5};
    static const std::vector<double> kMixPenalties = {0.0, 0.2, 0.4,
                                                      0.6};
    static const std::vector<double> kBuses = {0.3,  0.45, 0.6,
                                               0.75, 0.9,  1.0};
    static const std::vector<double> kWeights = {0.25, 0.5, 0.75,
                                                 1.0,  1.5, 2.0};

    std::vector<const Anchor *> all_cells;
    for (const auto &a : anchors)
        if (!a.job->preconditionGc)
            all_cells.push_back(&a);

    // The channel buses are shared hardware, so bus efficiency is one
    // global constant fit against every non-GC cell; it interacts
    // with the per-scheduler cell laws, so alternate the two fits.
    for (int pass = 0; pass < 2; ++pass) {
        if (!all_cells.empty()) {
            double best = -1.0;
            EstimatorConstants cand = fitted;
            for (const double value : kBuses) {
                cand.busEfficiency = value;
                const double score = fitScore(all_cells, cand);
                if (best < 0.0 || score < best) {
                    best = score;
                    fitted.busEfficiency = value;
                }
            }
            std::printf("fit bus : busEfficiency %.2f (score %.3f "
                        "over %zu cells)\n",
                        fitted.busEfficiency, best, all_cells.size());
        }

        for (std::size_t s = 0; s < fitted.chipConcurrency.size();
             ++s) {
            std::vector<const Anchor *> cells;
            for (const auto &a : anchors)
                if (static_cast<std::size_t>(a.job->cfg.scheduler) == s &&
                    !a.job->preconditionGc)
                    cells.push_back(&a);
            if (cells.empty())
                continue;

            // Exhaustive grid over the concurrency-law knobs: the
            // prefactor and the exponents trade off against each
            // other (a high-prefactor/flat-size law and a
            // low-prefactor/steep one fit disjoint regimes), so
            // coordinate descent gets stuck between the two valleys.
            EstimatorConstants cand = fitted;
            double best = fitScore(cells, cand);
            for (const double pre : kPrefactors)
                for (const double ce : kChipsExp)
                    for (const double se : kSizeExp)
                        for (const double boost : kBoosts)
                            for (const double mp : kMixPenalties) {
                                cand.chipConcurrency[s] = pre;
                                cand.chipsExponent[s] = ce;
                                cand.sizeExponent[s] = se;
                                cand.coverageBoost[s] = boost;
                                cand.mixPenalty[s] = mp;
                                const double score =
                                    fitScore(cells, cand);
                                if (score < best) {
                                    best = score;
                                    fitted.chipConcurrency[s] = pre;
                                    fitted.chipsExponent[s] = ce;
                                    fitted.sizeExponent[s] = se;
                                    fitted.coverageBoost[s] = boost;
                                    fitted.mixPenalty[s] = mp;
                                }
                            }
            cand = fitted;
            for (const double value : kWeights) {
                cand.queueWeight[s] = value;
                const double score = fitScore(cells, cand);
                if (score < best) {
                    best = score;
                    fitted.queueWeight[s] = value;
                }
            }
            std::printf("fit %-4s: pre %.3f chips^%.2f size^%.2f "
                        "boost %.2f mix^%.2f queueWeight %.2f "
                        "(score %.3f over %zu cells)\n",
                        schedulerKindName(
                            static_cast<SchedulerKind>(s)),
                        fitted.chipConcurrency[s],
                        fitted.chipsExponent[s],
                        fitted.sizeExponent[s],
                        fitted.coverageBoost[s], fitted.mixPenalty[s],
                        fitted.queueWeight[s], best, cells.size());
        }
    }

    std::vector<const Anchor *> gc_cells;
    for (const auto &a : anchors)
        if (a.job->preconditionGc)
            gc_cells.push_back(&a);
    if (!gc_cells.empty()) {
        double best = -1.0;
        EstimatorConstants cand = fitted;
        for (const double scale : {0.0, 0.01, 0.02, 0.035, 0.05,
                                   0.075, 0.1, 0.15, 0.2, 0.35, 0.5,
                                   0.75, 1.0, 1.5}) {
            cand.gcWriteAmpScale = scale;
            const double score = fitScore(gc_cells, cand);
            if (best < 0.0 || score < best) {
                best = score;
                fitted.gcWriteAmpScale = scale;
            }
        }
        std::printf("fit GC  : gcWriteAmpScale %.2f (score %.3f over "
                    "%zu cells)\n",
                    fitted.gcWriteAmpScale, best, gc_cells.size());
    }

    std::printf("\nready to paste into "
                "EstimatorConstants::calibrated():\n");
    const auto printArray = [](const char *name,
                               const std::array<double, 5> &v) {
        std::printf("        c.%s = {%.3f, %.3f, %.3f, %.3f, "
                    "%.3f};\n",
                    name, v[0], v[1], v[2], v[3], v[4]);
    };
    printArray("chipConcurrency", fitted.chipConcurrency);
    printArray("chipsExponent", fitted.chipsExponent);
    printArray("sizeExponent", fitted.sizeExponent);
    printArray("coverageBoost", fitted.coverageBoost);
    printArray("mixPenalty", fitted.mixPenalty);
    std::printf("        c.busEfficiency = %.2f;\n",
                fitted.busEfficiency);
    std::printf("        c.gcWriteAmpScale = %.2f;\n",
                fitted.gcWriteAmpScale);
    printArray("queueWeight", fitted.queueWeight);
    return fitted;
}

/** Set by calibration's --fit. */
bool fitRequested = false;

/** Set by calibration's --filter. */
std::string exhibitFilter;

/**
 * Calibration of the analytic fast-mode estimator. Runs the sample of
 * every row that has one (Sample: fig01, fig06, fig10-19, twelve in
 * total) with a two-fidelity axis, so each cell is evaluated once by
 * the event-accurate engine and once by sim/estimator.hh through the
 * exact same SweepRunner dispatch path. The per-metric relative
 * errors (bandwidth, IOPS, mean and p99 latency) are tabulated per
 * exhibit and pooled; the pooled bandwidth median is the headline
 * calibration number committed to bench/README.md. --csv writes the
 * error table, --filter keeps the exhibits whose name holds it
 * ("--filter fig15").
 *
 * --fit additionally grid-searches the per-scheduler estimator
 * constants (effective chip concurrency, bus efficiency, queueing
 * weight) against the exact anchor cells, then the GC
 * write-amplification scale against the fig17 -GC cells, prints a
 * ready-to-paste EstimatorConstants::calibrated() body and the error
 * table the fitted constants would produce.
 *
 * Exit status is 1 when the pooled bandwidth median error exceeds 75%
 * — a gross-breakage tripwire, far above the committed calibration
 * bound (bench/README.md); a tighter wholesale-rot guard lives in
 * tests/sim/estimator_test.cc.
 */
int
calibration(const bench::BenchCli &cli, const std::vector<Exhibit> &all)
{
    auto lower = [](std::string s) {
        for (char &c : s)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        return s;
    };
    const std::string needle = lower(exhibitFilter);

    std::vector<std::pair<const char *,
                          std::unique_ptr<SweepRunner>>>
        runs;
    for (const Exhibit &ex : all) {
        if (ex.sample.grid == nullptr ||
            lower(ex.name).find(needle) == std::string::npos)
            continue;
        bench::Grid grid =
            bench::sampleGrid(ex.name, ex.sample.grid(), ex.sample.keep);
        grid.axes.fidelities = {Fidelity::Exact, Fidelity::Fast};
        runs.emplace_back(ex.name, std::make_unique<SweepRunner>(
                                       std::move(grid.axes), grid.build));
    }
    if (runs.empty())
        fatal("--filter " + exhibitFilter + " matches no exhibit");

    std::size_t total = 0;
    for (const auto &[name, sweep] : runs)
        total += sweep->cellCount();
    std::printf("%zu exhibits, %zu cells (half exact, half fast)\n",
                runs.size(), total);

    for (auto &[name, sweep] : runs) {
        std::printf("running %s (%zu cells)...\n", name,
                    sweep->cellCount());
        std::fflush(stdout);
        // The error table, not the sweep, goes to --csv.
        bench::runSweep(*sweep, cli, "");
    }

    // Pair every fast cell with its exact twin. The fidelity axis is
    // innermost and ordered {Exact, Fast}, so the twins are adjacent
    // in expansion order.
    std::vector<Anchor> anchors;
    for (const auto &[name, sweep] : runs) {
        for (const auto &p : sweep->points()) {
            if (p.fidelity != Fidelity::Fast)
                continue;
            Anchor a;
            a.exhibit = name;
            a.job = &sweep->array().jobs()[p.index];
            a.exact = &sweep->array().results()[p.index - 1];
            a.fast = &sweep->array().results()[p.index];
            anchors.push_back(std::move(a));
        }
    }

    const auto dualRun = [](const Anchor &a) { return *a.fast; };
    std::printf("\nfast-vs-exact relative error (current "
                "constants)\n");
    printErrorTable(anchors, dualRun,
                    fitRequested ? std::string() : cli.csv);

    if (fitRequested) {
        std::printf("\nfitting estimator constants against %zu exact "
                    "anchor cells...\n",
                    anchors.size());
        const EstimatorConstants fitted = fitConstants(anchors);
        const auto refit = [&fitted](const Anchor &a) {
            return estimateDevice(*a.job, fitted);
        };
        std::printf("\nfast-vs-exact relative error (fitted "
                    "constants)\n");
        printErrorTable(anchors, refit, cli.csv);
        return 0;
    }

    // Gross-breakage tripwire only; the committed bound lives in
    // bench/README.md, the wholesale-rot guard in
    // tests/sim/estimator_test.cc.
    const double bw_med = pooledBwMedian(anchors, dualRun);
    if (bw_med > 0.75) {
        std::printf("FAIL: pooled bandwidth median error %.1f%% "
                    "exceeds the 75%% tripwire\n",
                    100.0 * bw_med);
        return 1;
    }
    return 0;
}

std::vector<Exhibit>
exhibits()
{
    using bench::bytesBudget;
    // Two samples are built ahead of the rows: inside the braced row
    // temporaries, GCC 12 at -O3 reports their vectors' destructors as
    // reading uninitialized memory (-Wmaybe-uninitialized).
    const bench::AxisSample fig18_keep{
        .schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK3},
        .arbiters = {ArbiterKind::RoundRobin,
                     ArbiterKind::WeightedRoundRobin}};
    const bench::AxisSample fig19_keep{.variants = {"parity=off"},
                                       .faults = {0.0}};
    return {
        {.name = "table1", .title = "Table 1",
         .what = "trace characteristics",
         .note = "direction mix, size means and randomness match Table 1 "
                 "columns; totals are scaled to 3000 I/Os per trace",
         .table = table1Traces,
         .omit = {"--threads", "--fidelity", "--cache"}},
        {.name = "fig01", .title = "Figure 1",
         .what = "bandwidth / utilization / idleness vs dies",
         .grid = [] { return bench::fig01Grid(); },
         .sample = {[] { return bench::fig01Grid(bytesBudget(6ull << 20)); },
                    {.traces = {"4", "64"}, .variants = {"16", "64", "256"}}},
         .report = fig01Report,
         .note = "bandwidth per curve saturates as dies grow while "
                 "utilization falls and idleness rises (paper Fig. 1a/1b)"},
        {.name = "fig06", .title = "Figure 6",
         .what = "flash-level utilization: VAS vs PAS vs potential",
         .grid = [] { return bench::fig06Grid(); },
         .sample = {[] { return bench::fig06Grid(600); },
                    {.traces = {"cfs0", "hm0", "msnfs1", "msnfs3", "proj0",
                                "proj3"}}},
         .report = fig06Report,
         .note = "paper: 17% (VAS), 24% (PAS), >40% potential; our means "
                 "should preserve VAS < PAS << potential with ~2-3x "
                 "headroom"},
        {.name = "fig10", .title = "Figure 10",
         .what = "bandwidth / IOPS / latency / stall",
         .grid = [] { return bench::fig10Grid(); },
         .sample = {[] { return bench::fig10Grid(600); },
                    {.traces = {"cfs1", "hm1", "msnfs0", "proj4"}}},
         .report = fig10Report,
         .note = "paper: SPK3 >= 2.2x VAS and >= 1.8x PAS bandwidth, "
                 "59-92% latency reduction vs VAS, ~86% less queue stall"},
        {.name = "fig11", .title = "Figure 11",
         .what = "inter- and intra-chip idleness",
         .grid = [] { return bench::fig11Grid(); },
         .sample = {[] { return bench::fig11Grid(600); },
                    {.traces = {"cfs3", "msnfs2", "proj1"}}},
         .report = fig11Report,
         .note = "paper: SPK2/SPK3 cut inter-chip idleness most (~46% vs "
                 "VAS); SPK1 cuts intra-chip idleness most, SPK3 close "
                 "behind"},
        {.name = "fig12", .title = "Figure 12",
         .what = "latency time series, msnfs1",
         .grid = [] { return bench::fig12Grid(); },
         .sample = {[] { return bench::fig12Grid(1000); }},
         .report = fig12Report,
         .note = "paper: PAS smoother/lower than VAS; SPK3 ~80% below VAS "
                 "and ~64% below PAS on this trace",
         .ioSeries = true},
        {.name = "fig13", .title = "Figure 13",
         .what = "execution time breakdown",
         .grid = [] { return bench::fig13Grid(); },
         .sample = {[] { return bench::fig13Grid(600); },
                    {.traces = {"cfs2", "hm0", "proj2"}}},
         .report = fig13Report,
         .note = "paper: SPK3 raises the memory-operation share and cuts "
                 "system idle by ~40% vs PAS; bus contention grows "
                 "slightly in read-heavy workloads"},
        {.name = "fig14", .title = "Figure 14",
         .what = "FLP breakdown per scheduler",
         .grid = [] { return bench::fig14Grid(); },
         .sample = {[] { return bench::fig14Grid(600); },
                    {.traces = {"cfs4", "msnfs1"}}},
         .report = fig14Report,
         .note = "paper: PAS shows no PAL3; SPK1 maximizes FLP; SPK3 "
                 "balances (lower than SPK1, far above PAS/SPK2)"},
        {.name = "fig15", .title = "Figure 15",
         .what = "chip utilization sweep",
         .grid = [] { return bench::fig15Grid(); },
         .sample = {[] { return bench::fig15Grid(bytesBudget(2ull << 20)); },
                    {.traces = {"4", "64", "1024"}, .variants = {"64", "256"}}},
         .report = fig15Report,
         .note = "paper: SPK3 sustains 71/61/45% at 64/256/1024 chips vs "
                 "VAS 37/21/14%; SPK1 helps only at large transfers, SPK2 "
                 "only at small ones"},
        {.name = "fig16", .title = "Figure 16",
         .what = "flash transaction counts",
         .grid = [] { return bench::fig16Grid(); },
         .sample = {[] { return bench::fig16Grid(bytesBudget(2ull << 20)); },
                    {.traces = {"4", "64", "1024"}, .variants = {"64"}}},
         .report = fig16Report,
         .note = "paper: SPK3 cuts ~50.2% of transactions vs VAS; SPK2 "
                 "alone barely reduces them (and less so at 1024 chips)"},
        {.name = "fig17", .title = "Figure 17",
         .what = "GC impact on bandwidth",
         .grid = [] { return bench::fig17Grid(); },
         .sample = {[] { return bench::fig17Grid(bytesBudget(2ull << 20)); },
                    {.traces = {"4", "64"}, .variants = {"64", "64-GC"}}},
         .report = fig17Report,
         .note = "paper: GC degrades everyone; SPK3-GC loses 33-78% vs "
                 "pristine SPK3 but stays above VAS-GC/PAS-GC thanks to "
                 "the readdressing callback"},
        // The estimator reads neither the arbiter nor a stream's
        // iodepth or weight, nor any fault or parity setting, so fig18
        // and fig19 take no --fidelity; calibration still samples both.
        {.name = "fig18", .title = "Figure 18",
         .what = "multi-stream throughput / latency / fairness",
         .grid = bench::fig18Grid,
         .sample = {bench::fig18Grid, fig18_keep},
         .report = fig18Report,
         .note = "expected: WRR tracks the 1:4:2:2 weight shares (highest "
                 "fairness), PRIO ignores weights for class order (lowest "
                 "fairness, best oltp latency), RR sits between",
         .preface = fig18Preface, .streamCsv = true,
         .omit = {"--fidelity"}},
        // Its sample keeps the fault-free, unprotected cells: fault
        // injection is out of the estimator's scope.
        {.name = "fig19", .title = "Reliability",
         .what = "scheduling under fault injection",
         .grid = [] { return bench::fig19Grid(); },
         .sample = {[] { return bench::fig19Grid(1200); }, fig19_keep},
         .report = fig19Report,
         .note = "expected: counters rise monotonically with the injected "
                 "rate; p99 degrades gracefully (retry ladder + soft "
                 "decode), never panics; parity=on converts failed I/Os "
                 "into reconstructed reads at a parity-update cost; "
                 "parity=rebuild ends with zero degraded dies and zero "
                 "failed I/Os from the dead die",
         .omit = {"--fidelity"}},
        {.name = "ablation-faro", .title = "Ablation",
         .what = "FARO over-commitment window (SPK3, 64 chips)",
         .grid = bench::faroWindowGrid, .report = faroWindowReport,
         .note = "expected: window=1 degenerates SPK3 toward SPK2"},
        {.name = "ablation-decision", .title = "Ablation",
         .what = "transaction decision window (SPK3, 64 chips)",
         .grid = bench::decisionWindowGrid, .report = decisionWindowReport},
        {.name = "ablation-depth", .title = "Ablation",
         .what = "device-level queue depth (64 chips)",
         .grid = bench::queueDepthGrid, .report = queueDepthReport,
         .note = "expected: deeper queues widen the SPK3/VAS gap"},
        {.name = "ablation-alloc", .title = "Ablation",
         .what = "page allocation policy x scheduler (64 chips)",
         .grid = bench::allocationGrid, .report = allocationReport,
         .note = "expected: plane-first allocation boosts "
                 "coalescing-capable schedulers (PAS/SPK1/SPK3) by packing "
                 "consecutive pages into one chip's planes, while VAS -- "
                 "one outstanding request per chip -- collapses"},
        {.name = "calibration", .title = "Calibration",
         .what = "fast-mode estimator vs exact engine",
         .table = calibration,
         .options = {{.flag = "--fit",
                      .help = "grid-search the estimator constants "
                              "against the exact cells and print them",
                      .target = &fitRequested},
                     {.flag = "--filter",
                      .value = "SUBSTR",
                      .help = "keep the exhibits whose name contains "
                              "SUBSTR (case-insensitive)",
                      .target = &exhibitFilter}},
         // Every cell runs at both fidelities, and the filter picks
         // exhibits, not axis values.
         .omit = {"--filter", "--fidelity"}},
    };
}

/** The usage line and every row's name and header. */
void
printUsage(std::FILE *out, const char *prog, const std::vector<Exhibit> &all)
{
    std::fprintf(out, "usage: %s NAME [options]\nruns NAME, one of:\n",
                 prog);
    for (const Exhibit &ex : all)
        std::fprintf(out, "  %-18s%s: %s\n", ex.name, ex.title, ex.what);
    std::fprintf(out, "`%s NAME --help` lists NAME's options\n", prog);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Exhibit> all = exhibits();
    const std::string name = argc > 1 ? argv[1] : "";
    if (name == "--help" || name == "-h") {
        printUsage(stdout, argv[0], all);
        return 0;
    }
    const auto ex = std::find_if(all.begin(), all.end(), [&name](auto &e) {
        return name == e.name;
    });
    if (ex == all.end()) {
        const std::string why = name.empty()
                                    ? "no exhibit name given"
                                    : "unknown exhibit '" + name + "'";
        std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
        printUsage(stderr, argv[0], all);
        return 2;
    }

    // Parse the options after the name, under "PROG NAME" in messages.
    std::string prog = std::string(argv[0]) + " " + name;
    argv[1] = prog.data();
    const bench::BenchCli cli =
        bench::parseCli(argc - 1, argv + 1, ex->options, ex->omit);
    bench::printHeader(ex->title, ex->what);
    if (ex->table != nullptr) {
        const int status = ex->table(cli, all);
        bench::printShapeNote(ex->note);
        return status;
    }

    bench::Grid grid = ex->grid();
    if (ex->ioSeries) {
        grid.build = [build = std::move(grid.build)](const SweepPoint &p) {
            DeviceJob job = build(p);
            job.captureIoResults = true;
            return job;
        };
    }
    SweepRunner sweep = bench::exhibitSweep(std::move(grid), cli);
    if (ex->preface != nullptr)
        ex->preface(sweep);
    bench::runSweep(sweep, cli, cli.csv, [&](const std::string &path) {
        if (ex->streamCsv)
            sweep.writeStreamCsvFile(path + ".streams.csv");
    });

    if (ex->ioSeries && cli.fidelity == Fidelity::Fast) {
        // The tables would be all zeros: stop after the aggregate
        // sweep (and its CSV).
        std::printf("fast fidelity: per-I/O time series unavailable "
                    "(aggregate metrics are in the CSV)\n");
        return 0;
    }
    ex->report(sweep);
    bench::printShapeNote(ex->note);
    return 0;
}
