/**
 * @file
 * Calibration harness for the analytic fast-mode estimator.
 *
 * Re-runs a sample of every simulation-bearing exhibit's grid
 * (bench/exhibits.hh: fig01, fig06, fig10-17, fig18, fig19 — twelve
 * in total) at fewer I/Os per cell, with a
 * two-fidelity axis, so each cell is evaluated once by the
 * event-accurate engine and once by sim/estimator.hh through the
 * exact same SweepRunner dispatch path. The per-metric relative
 * errors (bandwidth, IOPS, mean and p99 latency) are tabulated per
 * exhibit and pooled; the pooled bandwidth median is the headline
 * calibration number committed to bench/README.md.
 *
 * --fit additionally grid-searches the per-scheduler estimator
 * constants (effective chip concurrency, bus efficiency, queueing
 * weight) against the exact anchor cells, then the GC
 * write-amplification scale against the fig17 -GC cells, prints a
 * ready-to-paste EstimatorConstants::calibrated() body and the error
 * table the fitted constants would produce.
 *
 * Every sampled axis value is checked to lie on its exhibit's axis.
 * --filter restricts by exhibit name ("--filter fig15").
 *
 * Exit status is 1 when the pooled bandwidth median error exceeds 75%
 * — a gross-breakage tripwire, far above the committed calibration
 * bound (bench/README.md); a tighter wholesale-rot guard lives in
 * tests/sim/estimator_test.cc.
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/exhibits.hh"
#include "sim/estimator.hh"

namespace
{

using namespace spk;

constexpr std::size_t kNumMetrics = 4;
const char *const kMetricNames[kNumMetrics] = {"bw", "iops", "lat",
                                               "p99"};

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

/**
 * One exhibit's sample: its grid at fewer I/Os per cell, and the axis
 * values kept, which span its regimes (trace locality classes,
 * transfer sizes, chip counts, GC preconditioning). Figure 19 keeps
 * its fault-free, unprotected cells: fault injection is out of the
 * estimator's scope (bench/README.md, "When not to trust fast mode").
 */
struct Exhibit
{
    const char *name;
    std::function<bench::Grid()> grid;
    bench::AxisSample sample;
};

std::vector<Exhibit>
exhibits()
{
    using bench::bytesBudget;
    return {
        {"fig01", [] { return bench::fig01Grid(bytesBudget(6ull << 20)); },
         {.traces = {"4", "64"}, .variants = {"16", "64", "256"}}},
        {"fig06", [] { return bench::fig06Grid(600); },
         {.traces = {"cfs0", "hm0", "msnfs1", "msnfs3", "proj0",
                     "proj3"}}},
        {"fig10", [] { return bench::fig10Grid(600); },
         {.traces = {"cfs1", "hm1", "msnfs0", "proj4"}}},
        {"fig11", [] { return bench::fig11Grid(600); },
         {.traces = {"cfs3", "msnfs2", "proj1"}}},
        {"fig12", [] { return bench::fig12Grid(1000); }, {}},
        {"fig13", [] { return bench::fig13Grid(600); },
         {.traces = {"cfs2", "hm0", "proj2"}}},
        {"fig14", [] { return bench::fig14Grid(600); },
         {.traces = {"cfs4", "msnfs1"}}},
        {"fig15", [] { return bench::fig15Grid(bytesBudget(2ull << 20)); },
         {.traces = {"4", "64", "1024"}, .variants = {"64", "256"}}},
        {"fig16", [] { return bench::fig16Grid(bytesBudget(2ull << 20)); },
         {.traces = {"4", "64", "1024"}, .variants = {"64"}}},
        {"fig17", [] { return bench::fig17Grid(bytesBudget(2ull << 20)); },
         {.traces = {"4", "64"}, .variants = {"64", "64-GC"}}},
        {"fig18", [] { return bench::fig18Grid(); },
         {.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                         SchedulerKind::SPK3},
          .arbiters = {ArbiterKind::RoundRobin,
                       ArbiterKind::WeightedRoundRobin}}},
        {"fig19", [] { return bench::fig19Grid(1200); },
         {.variants = {"parity=off"}, .faults = {0.0}}},
    };
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

} // namespace

int
main(int argc, char **argv)
{
    bool fit = false;
    // Every cell runs at both fidelities, so --fidelity is not taken.
    const bench::BenchCli cli = bench::parseCli(
        argc, argv,
        {{.flag = "--fit",
          .help = "grid-search the estimator constants against the "
                  "exact cells and print them",
          .target = &fit}},
        {"--fidelity"});
    bench::printHeader("Calibration",
                       "fast-mode estimator vs exact engine");

    auto lower = [](std::string s) {
        for (char &c : s)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        return s;
    };
    const std::string needle = lower(cli.filter);

    std::vector<std::pair<const char *,
                          std::unique_ptr<SweepRunner>>>
        runs;
    for (const Exhibit &ex : exhibits()) {
        if (lower(ex.name).find(needle) == std::string::npos)
            continue;
        bench::Grid grid = bench::sampleGrid(ex.name, ex.grid(), ex.sample);
        grid.axes.fidelities = {Fidelity::Exact, Fidelity::Fast};
        runs.emplace_back(ex.name, std::make_unique<SweepRunner>(
                                       std::move(grid.axes), grid.build));
    }
    if (runs.empty())
        fatal("--filter " + cli.filter + " matches no exhibit");

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
    if (std::getenv("SPK_CALIB_CELLS") != nullptr) {
        // Per-cell inspection dump for estimator development.
        for (const auto &a : anchors) {
            const DeviceJob &j = *a.job;
            const TraceMix mix =
                summarizeMix(j.trace, j.cfg.geometry.pageSizeBytes);
            std::printf(
                "cell %-6s %-4s chips=%-4u wf=%.2f pages/io=%.1f "
                "bw %.0f/%.0f lat %.0f/%.0f p99 %llu/%llu util "
                "%.1f/%.1f\n",
                a.exhibit.c_str(), schedulerKindName(j.cfg.scheduler),
                j.cfg.geometry.numChips(), mix.writePageFraction(),
                mix.records == 0
                    ? 0.0
                    : static_cast<double>(mix.readPages +
                                          mix.writePages) /
                          static_cast<double>(mix.records),
                a.fast->bandwidthKBps, a.exact->bandwidthKBps,
                a.fast->avgLatencyNs / 1000.0,
                a.exact->avgLatencyNs / 1000.0,
                static_cast<unsigned long long>(
                    a.fast->p99LatencyNs / 1000),
                static_cast<unsigned long long>(
                    a.exact->p99LatencyNs / 1000),
                a.fast->flashLevelUtilizationPct,
                a.exact->flashLevelUtilizationPct);
        }
    }
    std::printf("\nfast-vs-exact relative error (current "
                "constants)\n");
    printErrorTable(anchors, dualRun, fit ? std::string() : cli.csv);

    if (fit) {
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
