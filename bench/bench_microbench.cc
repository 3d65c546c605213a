/**
 * @file
 * Simulator micro-benchmarks: hot paths of the event kernel, address
 * arithmetic, and a full small-device run. These track the cost of
 * simulating, not the simulated performance.
 *
 * Self-contained harness (no external benchmark dependency): each
 * benchmark reports wall-clock throughput and the number of heap
 * allocations inside its measurement window (the counting operator
 * new of sim/alloc_counter.hh), prints a table, and emits machine-readable
 * BENCH_microbench.json so successive PRs can track the perf
 * trajectory.
 */

#include "bench/bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/alloc_counter.hh"
#include "sim/device_array.hh"
#include "sim/estimator.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace spk;

struct Result
{
    std::string name;
    std::string unit;   //!< what "rate" counts per second
    double rate = 0.0;
    std::uint64_t items = 0;
    double seconds = 0.0;
    std::uint64_t allocs = 0; //!< heap allocations in the window
    /** Per-level calendar-queue traffic in the window: events that
     *  entered the coarse second wheel and events that entered the
     *  far-future overflow heap (third level). An event can count in
     *  both when it drains heap -> wheel as the window advances. */
    std::uint64_t wheel2Transits = 0;
    std::uint64_t heapTransits = 0;
    std::uint64_t wheel2Peak = 0; //!< wheel population high-water
    std::uint64_t heapPeak = 0;   //!< heap population high-water
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Snapshot of the per-level counters at a window boundary. */
struct LevelWindow
{
    std::uint64_t wheel2Transits0 = 0;
    std::uint64_t heapTransits0 = 0;

    explicit LevelWindow(EventQueue &q)
        : wheel2Transits0(q.wheel2Transits()),
          heapTransits0(q.heapTransits())
    {
        // Measured-window start: peak trackers restart from the
        // current populations so warmup (or replay-time arrival
        // parking) is excluded.
        q.resetLevelPeaks();
    }

    void
    finish(const EventQueue &q, Result &r) const
    {
        r.wheel2Transits = q.wheel2Transits() - wheel2Transits0;
        r.heapTransits = q.heapTransits() - heapTransits0;
        r.wheel2Peak = q.wheel2Peak();
        r.heapPeak = q.heapPeak();
    }
};

/**
 * Event-loop microbenchmark, fill/drain shape: schedule a batch of
 * capture-light events, dispatch them all, repeat. This is the
 * canonical event-kernel cost probe tracked across PRs.
 */
Result
benchEventLoopBatch()
{
    constexpr int kBatch = 1000;
    constexpr int kReps = 4000;
    std::uint64_t fired = 0;

    const auto run_once = [&](EventQueue &q) {
        for (int i = 0; i < kBatch; ++i)
            q.scheduleAfter(static_cast<Tick>(i % 97),
                            [&fired] { ++fired; });
        q.run();
    };

    // Warm-up pass grows the pool and heap vector to high water.
    EventQueue q;
    run_once(q);

    AllocWindow window;
    const LevelWindow levels(q);
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
        run_once(q);
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();

    Result r;
    r.name = "event_loop_batch";
    r.unit = "events/sec";
    r.items = static_cast<std::uint64_t>(kBatch) * kReps;
    r.seconds = sec;
    r.rate = static_cast<double>(r.items) / sec;
    r.allocs = allocs;
    levels.finish(q, r);
    return r;
}

/**
 * Event-loop microbenchmark, steady-state shape: many
 * self-rescheduling chains, mimicking the composition/transaction
 * event traffic of a busy device. Zero allocations expected.
 */
Result
benchEventLoopSteadyState()
{
    constexpr std::uint64_t kTotal = 4'000'000;
    EventQueue q;
    std::uint64_t count = 0;

    struct Chain
    {
        EventQueue *q;
        std::uint64_t *count;
        int i;
        void
        operator()() const
        {
            if (++*count < kTotal)
                q->scheduleAfter(1 + (i % 7), *this);
        }
    };
    for (int i = 0; i < 256; ++i)
        q.schedule(i % 13, Chain{&q, &count, i});
    q.run(20'000); // warm up pool + heap storage

    AllocWindow window;
    const LevelWindow levels(q);
    const auto t0 = Clock::now();
    q.run();
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();

    Result r;
    r.name = "event_loop_steady_state";
    r.unit = "events/sec";
    r.items = count;
    r.seconds = sec;
    r.rate = static_cast<double>(count) / sec;
    r.allocs = allocs;
    levels.finish(q, r);
    return r;
}

/**
 * Paced-drain shape: the same self-rescheduling chains driven through
 * runUntil() in fixed time slices, the way the host front-end paces a
 * device between arrival deadlines. Guards the fused peek+dispatch
 * path in runUntil (one occupancy scan per event, not two).
 */
Result
benchEventLoopRunUntil()
{
    constexpr std::uint64_t kTotal = 2'000'000;
    constexpr Tick kSlice = 64;
    EventQueue q;
    std::uint64_t count = 0;

    struct Chain
    {
        EventQueue *q;
        std::uint64_t *count;
        int i;
        void
        operator()() const
        {
            if (++*count < kTotal)
                q->scheduleAfter(1 + (i % 7), *this);
        }
    };
    for (int i = 0; i < 256; ++i)
        q.schedule(i % 13, Chain{&q, &count, i});
    while (!q.empty() && count < 20'000) // warm up pool storage
        q.runUntil(q.now() + kSlice);
    const std::uint64_t count0 = count;

    AllocWindow window;
    const LevelWindow levels(q);
    const auto t0 = Clock::now();
    while (!q.empty())
        q.runUntil(q.now() + kSlice);
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();

    Result r;
    r.name = "event_loop_run_until";
    r.unit = "events/sec";
    r.items = count - count0;
    r.seconds = sec;
    r.rate = static_cast<double>(r.items) / sec;
    r.allocs = allocs;
    levels.finish(q, r);
    return r;
}

Result
benchGeometryDecompose()
{
    FlashGeometry geo;
    geo.numChannels = 16;
    geo.chipsPerChannel = 16;
    Rng rng(1);
    std::vector<Ppn> ppns;
    for (int i = 0; i < 1024; ++i)
        ppns.push_back(rng.nextBelow(geo.totalPages()));

    constexpr int kReps = 20'000;
    std::uint64_t acc = 0;
    AllocWindow window;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
        for (const auto ppn : ppns)
            acc += geo.decompose(ppn).die;
    }
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();
    if (acc == 0xdeadbeef) // defeat dead-code elimination
        std::printf("impossible\n");

    Result r;
    r.name = "geometry_decompose";
    r.unit = "decomposes/sec";
    r.items = static_cast<std::uint64_t>(kReps) * ppns.size();
    r.seconds = sec;
    r.rate = static_cast<double>(r.items) / sec;
    r.allocs = allocs;
    return r;
}

/** Full small-device run; rate counts dispatched simulator events. */
Result
benchFullDeviceRun(SchedulerKind kind)
{
    SyntheticConfig wl;
    wl.numIos = 400;
    wl.spanBytes = 8ull << 20;
    wl.seed = 3;
    const Trace trace = generateSynthetic(wl);

    constexpr int kReps = 5;
    std::uint64_t events = 0;
    std::uint64_t wheel2Transits = 0;
    std::uint64_t heapTransits = 0;
    std::size_t wheel2Peak = 0;
    std::size_t heapPeak = 0;
    AllocWindow window;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
        SsdConfig cfg;
        cfg.geometry.numChannels = 4;
        cfg.geometry.chipsPerChannel = 4;
        cfg.geometry.blocksPerPlane = 16;
        cfg.geometry.pagesPerBlock = 32;
        cfg.scheduler = kind;
        Ssd ssd(cfg);
        ssd.replay(trace);
        // replay() parks the whole arrival backlog in the calendar
        // queue upfront — identical for every scheduler (it was the
        // smoking-gun identical peak across the old per-variant
        // rows). Restart the peak trackers here so the peaks measure
        // this variant's in-flight population during the run.
        ssd.events().resetLevelPeaks();
        ssd.run();
        events += ssd.events().dispatched();
        wheel2Transits += ssd.events().wheel2Transits();
        heapTransits += ssd.events().heapTransits();
        wheel2Peak = std::max(wheel2Peak, ssd.events().wheel2Peak());
        heapPeak = std::max(heapPeak, ssd.events().heapPeak());
    }
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();

    Result r;
    r.name = std::string("full_device_run_") + schedulerKindName(kind);
    r.unit = "sim-events/sec";
    r.items = events;
    r.seconds = sec;
    r.rate = static_cast<double>(events) / sec;
    r.allocs = allocs;
    r.wheel2Transits = wheel2Transits;
    r.heapTransits = heapTransits;
    r.wheel2Peak = wheel2Peak;
    r.heapPeak = heapPeak;
    return r;
}

/**
 * GC-heavy steady state: the Figure 17 stress shape (preconditioned
 * device, write-dominated random stream) measured after a warmup run
 * has established every high-water mark. Guards the request-arena GC
 * path: the measurement window must stay at exactly zero heap
 * allocations (the perf gate hard-fails otherwise), and the per-level
 * counters quantify how much of the cell-latency event traffic each
 * calendar-queue level absorbs (the ROADMAP second-wheel measurement:
 * with the wheel in place, heap transits should be arrivals only).
 */
Result
benchGcHeavySteadyState()
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;
    cfg.ftl.overprovision = 0.15;

    Ssd ssd(cfg);
    ssd.preconditionForGc(); // 95% full, 30% churned
    const auto span = static_cast<std::uint64_t>(
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes) * 0.6);

    // Warmup with the exact probe stream (shifted in time): identical
    // backlog and GC-pressure shape means warmup establishes the
    // high-water marks the measured run needs. Two passes: the live
    // GC-batch backlog peaks a little higher on a re-fragmented
    // device than on the freshly preconditioned one.
    for (int seg = 0; seg < 2; ++seg) {
        Trace warmup = fixedSizeStream(2000, 16384, 0.9, span,
                                       5 * kMicrosecond, 62);
        const Tick base = ssd.events().now();
        for (auto &rec : warmup)
            rec.arrival += base;
        ssd.replay(warmup);
        ssd.run();
    }

    Trace probe =
        fixedSizeStream(2000, 16384, 0.9, span, 5 * kMicrosecond, 62);
    const Tick start = ssd.events().now();
    for (auto &rec : probe)
        rec.arrival += start;
    ssd.replay(probe);

    const std::uint64_t events0 = ssd.events().dispatched();
    const LevelWindow levels(ssd.events()); // exclude warmup peaks
    AllocWindow window;
    const auto t0 = Clock::now();
    ssd.run();
    const double sec = secondsSince(t0);
    // Read the window before Result's strings allocate.
    const std::uint64_t allocs = window.count();

    Result r;
    r.name = "gc_heavy_steady_state";
    r.unit = "sim-events/sec";
    r.items = ssd.events().dispatched() - events0;
    r.seconds = sec;
    r.rate = static_cast<double>(r.items) / sec;
    r.allocs = allocs;
    levels.finish(ssd.events(), r);
    return r;
}

/**
 * A preconditioned campaign in miniature: the Figure 17 GC grid shape
 * through DeviceArray::run(1), as the exhibit benches drive it.
 * gc_heavy_steady_state's 8-chip device x {VAS, SPK3} x {plain,
 * protected (parity and faults)} x two transfer sizes makes eight
 * cells that share two preconditioned images, so the row prices a
 * campaign's preconditioning as well as its simulation. Rate counts
 * cells per second; allocations are pinned by the perf-gate ratchet.
 */
Result
benchGcCampaign()
{
    std::vector<DeviceJob> jobs;
    for (const std::uint64_t kb : {16u, 128u}) {
        SsdConfig base = SsdConfig::withChips(8);
        base.geometry.blocksPerPlane = 16;
        base.geometry.pagesPerBlock = 32;
        base.ftl.overprovision = 0.15;
        const std::uint64_t span = base.geometry.totalPages() *
                                   base.geometry.pageSizeBytes / 2;
        const TraceRef trace = fixedSizeStream(
            (1ull << 20) / (kb << 10) * 2, kb << 10, 0.9, span,
            5 * kMicrosecond, 71);
        for (const bool prot : {false, true}) {
            for (const SchedulerKind kind :
                 {SchedulerKind::VAS, SchedulerKind::SPK3}) {
                DeviceJob job;
                job.cfg = base;
                job.cfg.scheduler = kind;
                if (prot) {
                    job.cfg.parity.enabled = true;
                    job.cfg.fault.softDecodeEnabled = true;
                    job.cfg.fault.readTransientRate = 1e-3;
                    job.cfg.fault.programFailRate = 1e-4;
                    job.cfg.fault.eraseFailRate = 1e-4;
                }
                job.preconditionGc = true;
                job.trace = trace;
                jobs.push_back(std::move(job));
            }
        }
    }

    constexpr int kReps = 5;
    AllocWindow window;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
        DeviceArray array(jobs);
        array.run(1);
    }
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();

    Result r;
    r.name = "gc_campaign";
    r.unit = "cells/sec";
    r.items = kReps * jobs.size();
    r.seconds = sec;
    r.rate = static_cast<double>(r.items) / sec;
    r.allocs = allocs;
    return r;
}

/**
 * Fast-fidelity estimator throughput: the analytic model evaluated
 * on an evaluation-size device (64 chips) against a mixed synthetic
 * trace. Rate counts estimated sweep cells per second -- the number
 * that sets the scale of a fast-mode capacity-planning campaign
 * (compare against the full_device_run rows for the exact engine's
 * cost). Allocations are pinned by the perf-gate ratchet.
 */
Result
benchFastModeCells()
{
    SyntheticConfig wl;
    wl.numIos = 2000;
    wl.spanBytes = 64ull << 20;
    wl.seed = 7;
    const TraceRef trace = generateSynthetic(wl);

    DeviceJob job;
    job.cfg = SsdConfig::withChips(64);
    job.cfg.scheduler = SchedulerKind::SPK3;
    job.trace = trace;

    constexpr int kReps = 100;
    double acc = 0.0;
    AllocWindow window;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
        acc += estimateDevice(job).bandwidthKBps;
    const double sec = secondsSince(t0);
    const std::uint64_t allocs = window.count();
    if (acc < 0.0) // defeat dead-code elimination
        std::printf("impossible\n");

    Result r;
    r.name = "fast_mode_cells_per_sec";
    r.unit = "cells/sec";
    r.items = kReps;
    r.seconds = sec;
    r.rate = static_cast<double>(kReps) / sec;
    r.allocs = allocs;
    return r;
}

void
writeJson(const std::vector<Result> &results, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"unit\": \"%s\", "
                     "\"rate\": %.6g, \"items\": %llu, "
                     "\"seconds\": %.6g, \"allocs\": %llu, "
                     "\"wheel2_transits\": %llu, "
                     "\"heap_transits\": %llu, "
                     "\"wheel2_peak\": %llu, "
                     "\"heap_peak\": %llu}%s\n",
                     r.name.c_str(), r.unit.c_str(), r.rate,
                     static_cast<unsigned long long>(r.items), r.seconds,
                     static_cast<unsigned long long>(r.allocs),
                     static_cast<unsigned long long>(r.wheel2Transits),
                     static_cast<unsigned long long>(r.heapTransits),
                     static_cast<unsigned long long>(r.wheel2Peak),
                     static_cast<unsigned long long>(r.heapPeak),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main()
{
    std::vector<Result> results;
    results.push_back(benchEventLoopBatch());
    results.push_back(benchEventLoopSteadyState());
    results.push_back(benchEventLoopRunUntil());
    results.push_back(benchGeometryDecompose());
    results.push_back(benchFullDeviceRun(SchedulerKind::VAS));
    results.push_back(benchFullDeviceRun(SchedulerKind::PAS));
    results.push_back(benchFullDeviceRun(SchedulerKind::SPK1));
    results.push_back(benchFullDeviceRun(SchedulerKind::SPK3));
    results.push_back(benchGcHeavySteadyState());
    results.push_back(benchGcCampaign());
    results.push_back(benchFastModeCells());

    std::printf("%-28s %14s %18s %10s %9s %9s %8s %8s\n", "benchmark",
                "rate", "unit", "allocs", "w2-trans", "heap-trans",
                "w2-peak", "heap-pk");
    for (const auto &r : results) {
        std::printf("%-28s %14.4g %18s %10llu %9llu %9llu %8llu %8llu\n",
                    r.name.c_str(), r.rate, r.unit.c_str(),
                    static_cast<unsigned long long>(r.allocs),
                    static_cast<unsigned long long>(r.wheel2Transits),
                    static_cast<unsigned long long>(r.heapTransits),
                    static_cast<unsigned long long>(r.wheel2Peak),
                    static_cast<unsigned long long>(r.heapPeak));
    }

    writeJson(results, "BENCH_microbench.json");
    std::printf("\nwrote BENCH_microbench.json\n");
    return 0;
}
