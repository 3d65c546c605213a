/**
 * @file
 * The grid of every exhibit that simulates devices (Figures 1, 6 and
 * 10-19) and of the four design-choice ablations, declared once: its
 * axes and the job each cell runs. bench_exhibit runs a grid whole
 * (exhibitSweep); its calibration row runs a sample of each exhibit
 * (sampleGrid) at both fidelities.
 *
 * A grid function's one parameter is its I/O rule, how many I/Os a
 * cell replays, and it defaults to the exhibit's own: a count for the
 * trace grids, a function of chip count and transfer size for the
 * transfer-size grids. Nothing else about a cell differs between an
 * exhibit and its calibration sample.
 */

#ifndef SPK_BENCH_EXHIBITS_HH
#define SPK_BENCH_EXHIBITS_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"
#include "sim/logging.hh"
#include "workload/fio_job.hh"
#include "workload/trace_store.hh"

namespace spk
{
namespace bench
{

/** An exhibit's axes and the builder of each cell's job. */
struct Grid
{
    SweepAxes axes;
    SweepRunner::JobBuilder build;
};

/** @p grid as its exhibit runs it: every cell at the command line's
 *  fidelity, the axes narrowed by its --filter. */
inline SweepRunner
exhibitSweep(Grid grid, const BenchCli &cli)
{
    grid.axes.fidelities = {cli.fidelity};
    return SweepRunner(filterAxes(std::move(grid.axes), cli.filter),
                       grid.build);
}

/** The axis values a sample keeps; an empty list keeps the axis. */
struct AxisSample
{
    std::vector<std::string> traces = {};
    std::vector<SchedulerKind> schedulers = {};
    std::vector<std::string> variants = {};
    std::vector<ArbiterKind> arbiters = {};
    std::vector<double> faults = {};
};

/**
 * @p grid with each axis narrowed to @p sample's values, in the
 * sample's order. fatal() on a value the axis does not hold, naming
 * @p exhibit, the value and the axis, so a sample never holds a cell
 * its exhibit lacks.
 */
inline Grid
sampleGrid(const std::string &exhibit, Grid grid, const AxisSample &sample)
{
    const auto narrow = [&exhibit](const char *axis, auto &values,
                                   const auto &keep, auto label) {
        for (const auto &v : keep) {
            if (std::find(values.begin(), values.end(), v) == values.end())
                fatal(exhibit + ": " + label(v) + " is not on the " +
                      axis + " axis");
        }
        if (!keep.empty())
            values = keep;
    };
    const auto same = [](const std::string &s) { return s; };
    SweepAxes &axes = grid.axes;
    narrow("trace", axes.traces, sample.traces, same);
    narrow("scheduler", axes.schedulers, sample.schedulers,
           [](SchedulerKind k) { return std::string(schedulerKindName(k)); });
    narrow("variant", axes.variants, sample.variants, same);
    narrow("arbiter", axes.arbiters, sample.arbiters,
           [](ArbiterKind k) { return std::string(arbiterKindName(k)); });
    narrow("fault", axes.faults, sample.faults, [](double f) {
        std::ostringstream os;
        os << f;
        return os.str();
    });
    return grid;
}

// ---------------------------------------------- transfer-size grids

/** How many I/Os of @p bytes each a cell on @p chips chips replays. */
using TransferIos =
    std::function<std::uint64_t(std::uint32_t chips, std::uint64_t bytes)>;

/** The I/O rule replaying @p budget bytes, and at least @p min_ios
 *  I/Os, per cell. */
inline TransferIos
bytesBudget(std::uint64_t budget, std::uint64_t min_ios = 16)
{
    return [=](std::uint32_t, std::uint64_t bytes) {
        return std::max(min_ios, budget / bytes);
    };
}

/** What a transfer-size exhibit fixes about its random stream. */
struct TransferStream
{
    SsdConfig (*device)(SchedulerKind kind, std::uint32_t chips);
    double spanFraction;  //!< of the device's logical capacity
    double writeFraction;
    Tick interarrival;    //!< 0: back to back
};

/** True for a variant whose device is preconditioned for garbage
 *  collection ("64-GC"). */
inline bool
isGcVariant(const std::string &variant)
{
    return variant.ends_with("-GC");
}

/**
 * A transfer-size grid over @p axes: a cell's trace label is its
 * transfer size in KB and its variant's leading number the chip
 * count (see isGcVariant). Each cell replays @p ios(chips, bytes)
 * I/Os of @p stream.
 */
inline Grid
transferGrid(SweepAxes axes, TransferStream stream, TransferIos ios)
{
    return {std::move(axes), [stream, ios = std::move(ios)](
                                 const SweepPoint &p) {
                const std::uint64_t bytes = std::stoull(p.trace) << 10;
                const auto chips =
                    static_cast<std::uint32_t>(std::stoul(p.variant));
                DeviceJob job;
                job.cfg = stream.device(p.scheduler, chips);
                job.preconditionGc = isGcVariant(p.variant);
                job.trace = fixedSizeStream(
                    ios(chips, bytes), bytes, stream.writeFraction,
                    spanFor(job.cfg, stream.spanFraction),
                    stream.interarrival, p.seed);
                return job;
            }};
}

/** Figure 1's device, with fewer blocks at 512 chips and up. */
inline SsdConfig
fig01Device(SchedulerKind kind, std::uint32_t chips)
{
    return scaledConfig(kind, chips, chips >= 512 ? 4 : 16);
}

/** Figure 1: sequential reads under VAS, transfer size x chip count. */
inline Grid
fig01Grid(TransferIos ios = bytesBudget(24ull << 20))
{
    SweepAxes axes;
    axes.traces = {"4", "16", "64", "128"}; // transfer KB
    axes.schedulers = {SchedulerKind::VAS};
    axes.seeds = {17};
    axes.variants = {"1", "4", "16", "64", "256", "1024", "4096"}; // chips
    return transferGrid(std::move(axes),
                        {fig01Device, 0.5, 0.0, 2 * kMicrosecond},
                        std::move(ios));
}

/** The device of Figures 15 and 16, with fewer blocks at 512 chips
 *  and up. */
inline SsdConfig
sizeSweepDevice(SchedulerKind kind, std::uint32_t chips)
{
    return scaledConfig(kind, chips, chips >= 512 ? 6 : 24);
}

/** Figure 15's I/O rule: a saturating burst, enough bytes to keep
 *  every chip fed (16 MB per 64 chips, at most 192 MB). */
inline std::uint64_t
fig15Ios(std::uint32_t chips, std::uint64_t bytes)
{
    const std::uint64_t budget = std::min<std::uint64_t>(
        192ull << 20, (16ull << 20) * (chips / 64));
    return std::max<std::uint64_t>(48, budget / bytes);
}

/** Figure 15: utilization over transfer size x chip count, the burst
 *  delivered back to back. */
inline Grid
fig15Grid(TransferIos ios = fig15Ios)
{
    SweepAxes axes;
    axes.traces = {"4",   "8",   "16",   "32",   "64",  "128",
                   "256", "512", "1024", "2048", "4096"}; // transfer KB
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK1,
                       SchedulerKind::SPK2, SchedulerKind::SPK3};
    axes.seeds = {53};
    axes.variants = {"64", "256", "1024"}; // chips
    return transferGrid(std::move(axes), {sizeSweepDevice, 0.5, 0.6, 0},
                        std::move(ios));
}

/** Figure 16: transaction counts over transfer size x chip count,
 *  paced arrivals. */
inline Grid
fig16Grid(TransferIos ios = bytesBudget(16ull << 20, 24))
{
    SweepAxes axes;
    axes.traces = {"4", "16", "64", "256", "1024", "4096"}; // transfer KB
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK1,
                       SchedulerKind::SPK2, SchedulerKind::SPK3};
    axes.seeds = {59};
    axes.variants = {"64", "1024"}; // chips
    return transferGrid(std::move(axes),
                        {sizeSweepDevice, 0.5, 0.6, 2 * kMicrosecond},
                        std::move(ios));
}

/** Figure 17's device: 16 blocks per plane, 15% overprovisioned. */
inline SsdConfig
fig17Device(SchedulerKind kind, std::uint32_t chips)
{
    SsdConfig cfg = scaledConfig(kind, chips, 16);
    cfg.ftl.overprovision = 0.15;
    return cfg;
}

/** Figure 17: a write-dominated random stream on pristine and
 *  GC-preconditioned devices (the paper fragments with 1 MB random
 *  writes; the sweep keeps writing). */
inline Grid
fig17Grid(TransferIos ios = bytesBudget(8ull << 20))
{
    SweepAxes axes;
    axes.traces = {"4", "16", "64", "256", "1024"}; // transfer KB
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK3};
    axes.seeds = {61};
    axes.variants = {"64", "64-GC", "256", "256-GC"};
    return transferGrid(std::move(axes),
                        {fig17Device, 0.6, 0.9, 5 * kMicrosecond},
                        std::move(ios));
}

// ------------------------------------------------ Table 1 trace grids

/** I/Os per trace in the Table 1 trace exhibits. */
constexpr std::uint64_t kPaperTraceIos = 1200;

/**
 * The sixteen Table 1 traces, @p ios I/Os each, crossed with
 * @p schedulers on the evaluation geometry at @p seed. A trace is
 * generated when the first cell replaying it is built, and shared by
 * the rest (the span, and so the trace, does not depend on the
 * scheduler), so a trace --filter drops is never generated.
 */
inline Grid
paperTraceGrid(std::vector<SchedulerKind> schedulers, std::uint64_t seed,
               std::uint64_t ios)
{
    SweepAxes axes;
    axes.traces.clear();
    for (const auto &info : paperTraces())
        axes.traces.push_back(info.name);
    axes.schedulers = std::move(schedulers);
    axes.seeds = {seed};
    const std::uint64_t span = spanFor(evalConfig(SchedulerKind::VAS));
    auto store = std::make_shared<TraceStore>();
    return {std::move(axes), [store, span, ios](const SweepPoint &p) {
                DeviceJob job;
                job.cfg = evalConfig(p.scheduler);
                job.trace = store->intern(p.trace, [&] {
                    return generatePaperTrace(p.trace, ios, span, p.seed);
                });
                return job;
            }};
}

inline Grid
fig06Grid(std::uint64_t ios = kPaperTraceIos)
{
    return paperTraceGrid({SchedulerKind::VAS, SchedulerKind::PAS,
                           SchedulerKind::SPK3},
                          29, ios);
}

inline Grid
fig10Grid(std::uint64_t ios = kPaperTraceIos)
{
    return paperTraceGrid(allSchedulers(), 31, ios);
}

inline Grid
fig11Grid(std::uint64_t ios = kPaperTraceIos)
{
    return paperTraceGrid(allSchedulers(), 37, ios);
}

/** Figure 12: msnfs1 alone, long enough for a latency time series. */
inline Grid
fig12Grid(std::uint64_t ios = 3000)
{
    Grid grid = paperTraceGrid(
        {SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK3}, 41,
        ios);
    grid.axes.traces = {"msnfs1"};
    return grid;
}

inline Grid
fig13Grid(std::uint64_t ios = kPaperTraceIos)
{
    return paperTraceGrid({SchedulerKind::PAS, SchedulerKind::SPK3}, 43,
                          ios);
}

inline Grid
fig14Grid(std::uint64_t ios = kPaperTraceIos)
{
    return paperTraceGrid({SchedulerKind::PAS, SchedulerKind::SPK1,
                           SchedulerKind::SPK2, SchedulerKind::SPK3},
                          47, ios);
}

// ------------------------------------------------ Figures 18 and 19

/** A job file: where it is read from, and how output names it. */
struct JobFile
{
    std::string path;
    std::string name;
};

/** Figure 18's fio job file: SPK_FIO_JOB as given, else
 *  data/jobs/fig18_mixed.fio, named relative to the checkout. */
inline JobFile
fig18Job()
{
    if (const char *path = std::getenv("SPK_FIO_JOB"))
        return {path, path};
    return {SPK_DATA_DIR "/jobs/fig18_mixed.fio",
            "data/jobs/fig18_mixed.fio"};
}

/** Figure 18: the fio job's streams under every scheduler and
 *  tag-space arbiter. The job file sets the I/O counts. */
inline Grid
fig18Grid()
{
    SweepAxes axes;
    axes.traces = {"fig18_mixed"};
    axes.schedulers = allSchedulers();
    axes.seeds = {31};
    axes.arbiters = {ArbiterKind::RoundRobin,
                     ArbiterKind::WeightedRoundRobin,
                     ArbiterKind::StrictPriority};
    return {std::move(axes),
            [streams = parseFioJobFile(fig18Job().path)](
                const SweepPoint &p) {
                DeviceJob job;
                job.cfg = evalConfig(p.scheduler);
                job.cfg.nvmhc.arbiter = p.arbiter;
                job.streams = streams;
                return job;
            }};
}

/**
 * Figure 19: one mixed random stream of @p ios 8 KB I/Os under fault
 * injection. The fault axis value f is the transient read-error rate;
 * program and erase failures are injected at f/10 (program/erase
 * disturb is rarer than read noise). The variant axis is the
 * die-level RAID protection level:
 *   parity=off      no redundancy
 *   parity=on       die-parity striping + soft-decode ladder stage
 *   parity=rebuild  parity=on plus a mid-run die failure with online
 *                   rebuild: degraded reads reconstruct, the rebuild
 *                   restores redundancy
 */
inline Grid
fig19Grid(std::uint64_t ios = 3000)
{
    constexpr std::uint64_t kSeed = 71;
    SweepAxes axes;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK3};
    axes.seeds = {kSeed};
    axes.faults = {0.0, 1e-4, 1e-3, 1e-2, 5e-2};
    axes.variants = {"parity=off", "parity=on", "parity=rebuild"};

    // Size the shared workload span for the smallest logical capacity
    // in the grid (parity reserves 1/D of every chip), so every
    // variant replays the identical trace.
    SsdConfig parity_base = evalConfig(SchedulerKind::VAS);
    parity_base.parity.enabled = true;
    // Enough writes to fill blocks and drive GC: program and erase
    // faults need programs and erase pulses to fire.
    const TraceRef trace =
        fixedSizeStream(ios, 8192, 0.5, spanFor(parity_base, 0.6),
                        5 * kMicrosecond, kSeed);

    return {std::move(axes), [trace](const SweepPoint &p) {
                DeviceJob job;
                job.cfg = evalConfig(p.scheduler);
                job.cfg.fault.readTransientRate = p.fault;
                job.cfg.fault.programFailRate = p.fault / 10;
                job.cfg.fault.eraseFailRate = p.fault / 10;
                if (p.variant != "parity=off") {
                    job.cfg.parity.enabled = true;
                    job.cfg.fault.softDecodeEnabled = true;
                }
                if (p.variant == "parity=rebuild") {
                    job.cfg.fault.dieFailTick = 4 * kMillisecond;
                    job.cfg.fault.dieFailChip = 0;
                    job.cfg.fault.dieFailDie = 0;
                    job.cfg.parity.rebuildPageInterval = 5 * kMicrosecond;
                }
                job.trace = trace;
                return job;
            }};
}

// ------------------------------------------------ design-choice ablations

/**
 * An ablation grid: @p kinds on the evaluation device, one variant
 * per value of the swept setting, which @p apply writes into a cell's
 * config. Every cell replays one trace at @p seed: 1500 I/Os, 60%
 * reads of 16 or 64 KB, 16 KB writes, over half the logical capacity.
 * The trace depends on the config only through the geometry, which no
 * variant overrides, so it is generated once.
 */
inline Grid
ablationGrid(std::vector<SchedulerKind> kinds, std::uint64_t seed,
             std::vector<std::string> values,
             void (*apply)(SsdConfig &cfg, const std::string &value))
{
    SweepAxes axes;
    axes.schedulers = std::move(kinds);
    axes.seeds = {seed};
    axes.variants = std::move(values);

    SyntheticConfig wl;
    wl.numIos = 1500;
    wl.readFraction = 0.6;
    wl.readSizes = {{16384, 0.6}, {65536, 0.4}};
    wl.writeSizes = {{16384, 1.0}};
    wl.locality = 0.6;
    wl.spanBytes = spanFor(evalConfig(SchedulerKind::VAS), 0.5);
    wl.meanInterarrival = 10 * kMicrosecond;
    wl.seed = seed;
    return {std::move(axes),
            [trace = TraceRef(generateSynthetic(wl)),
             apply](const SweepPoint &p) {
                DeviceJob job;
                job.cfg = evalConfig(p.scheduler);
                apply(job.cfg, p.variant);
                job.trace = trace;
                return job;
            }};
}

/** FARO over-commitment window: 1 (no over-commit) .. 16, SPK3. */
inline Grid
faroWindowGrid()
{
    return ablationGrid({SchedulerKind::SPK3}, 71,
                        {"1", "2", "4", "8", "12", "16"},
                        [](SsdConfig &cfg, const std::string &v) {
                            cfg.faroWindow =
                                static_cast<std::uint32_t>(std::stoul(v));
                        });
}

/** Flash-controller transaction decision window: 0 .. 10 us, SPK3. */
inline Grid
decisionWindowGrid()
{
    return ablationGrid({SchedulerKind::SPK3}, 72,
                        {"0", "1", "3", "5", "10"}, // microseconds
                        [](SsdConfig &cfg, const std::string &v) {
                            cfg.decisionWindow =
                                std::stoull(v) * kMicrosecond;
                        });
}

/** Device-level queue depth: 8 .. 128, VAS and SPK3. */
inline Grid
queueDepthGrid()
{
    return ablationGrid({SchedulerKind::VAS, SchedulerKind::SPK3}, 73,
                        {"8", "16", "32", "64", "128"},
                        [](SsdConfig &cfg, const std::string &v) {
                            cfg.nvmhc.queueDepth =
                                static_cast<std::uint32_t>(std::stoul(v));
                        });
}

/** Page allocation policy under every scheduler. */
inline Grid
allocationGrid()
{
    return ablationGrid(allSchedulers(), 74,
                        {"channel-stripe", "plane-first"},
                        [](SsdConfig &cfg, const std::string &v) {
                            cfg.ftl.allocation =
                                v == "plane-first"
                                    ? AllocationPolicy::PlaneFirst
                                    : AllocationPolicy::ChannelStripe;
                        });
}

} // namespace bench
} // namespace spk

#endif // SPK_BENCH_EXHIBITS_HH
