/**
 * @file
 * spk_bench, the simulator's host-time benchmark. benchmark/README.md
 * describes the workloads and metrics; benchmark/run.py is the command
 * that builds and runs it.
 *
 * One invocation runs one workload. Set-up builds the workload's
 * DeviceJob list from --seed (trace generation, TraceRef interning and
 * job building); it is repeated and reported as a median. The
 * measured phase runs the list through DeviceArray::run(), the engine
 * behind every exhibit, with tracing off, pass after pass until
 * --seconds of host time are measured; the throughput is the median
 * pass's. Every pass must reproduce the first pass's snapshots bit for
 * bit, and every cell must keep the invariants of cellBroken().
 *
 * With --traced it runs one untraced pass and then the identical job
 * list on one thread, timing each call it makes into a layer's public
 * API in the order DeviceArray::runOne makes them and reading the
 * layers' counters right after. Every traced snapshot must be
 * bit-identical to the untraced one. The spans are written to
 * <out>/<workload>.trace.json as Chrome trace-event JSON.
 *
 * The only stdout output is one JSON object on one line.
 */

#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/cell_cache.hh"
#include "sim/device_array.hh"
#include "sim/estimator.hh"
#include "ssd/ssd.hh"
#include "workload/paper_traces.hh"
#include "workload/synthetic.hh"
#include "workload/trace_store.hh"

namespace
{

using namespace spk;
using Clock = std::chrono::steady_clock;

/** Set-up takes from 50 us to 0.2 s depending on the workload. It is
 *  repeated until both bounds are met, and setup_s is the median of the
 *  second half of the repeats: in the first, caches, the allocator and
 *  the core warm up (the first 0.2 s of a process ran up to 30%
 *  slower). */
constexpr std::size_t kSetupMinRepeats = 10;
constexpr double kSetupMinSeconds = 1.0;

constexpr std::size_t kNoCell = SIZE_MAX;

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
    SchedulerKind::SPK2, SchedulerKind::SPK3};

/** Every hardware thread, as the exhibit benches run their campaigns by
 *  default (bench_cli.hh's defaultThreads()), capped at 4 so results
 *  from bigger hosts stay comparable. */
unsigned
poolThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

/**
 * Re-execute this program with address-space randomization off, once.
 * With it on, set-up times varied more from one process to the next
 * (IQR over median 36% on bulk_io over 12 interleaved processes,
 * against 10% with it off). Where the personality cannot be changed,
 * the run goes on randomized.
 */
void
fixAddressSpaceLayout(char **argv)
{
    const int persona = personality(0xffffffff);
    if (persona == -1 || (persona & ADDR_NO_RANDOMIZE) != 0)
        return;
    personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE);
    const int now = personality(0xffffffff);
    char self[4096];
    const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
    if (now != -1 && (now & ADDR_NO_RANDOMIZE) != 0 && len > 0) {
        self[len] = '\0';
        execv(self, argv); // returns only on failure
    }
}

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One timed call into a layer: a Chrome trace-event complete ("X")
 *  span. */
struct Span
{
    const char *layer;
    const char *name;
    double startS; //!< since the tracer was created
    double durS;
    std::size_t cell; //!< kNoCell outside the per-cell loop
};

/** In-memory span recorder, written out once at the end. */
class Tracer
{
  public:
    /** Run @p fn as span @p name of @p layer; returns its seconds. */
    template <class Fn>
    double
    timed(const char *layer, const char *name, std::size_t cell, Fn &&fn)
    {
        const auto start = Clock::now();
        fn();
        return record(layer, name, cell, start);
    }

    /** Close a span opened at @p start; returns its seconds. */
    double
    record(const char *layer, const char *name, std::size_t cell,
           Clock::time_point start)
    {
        const auto end = Clock::now();
        spans_.push_back({layer, name, secondsBetween(origin_, start),
                          secondsBetween(start, end), cell});
        return spans_.back().durS;
    }

    /** Summed seconds of every span called @p name. */
    double
    total(const char *name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_) {
            if (std::strcmp(s.name, name) == 0)
                sum += s.durS;
        }
        return sum;
    }

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool
    write(const std::string &path,
          const std::vector<DeviceJob> &jobs) const
    {
        std::ofstream os(path);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[160];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                          i == 0 ? "" : ",", s.name, s.layer,
                          s.startS * 1e6, s.durS * 1e6);
            os << buf;
            if (s.cell != kNoCell) {
                const DeviceJob &job = jobs[s.cell];
                os << ",\"args\":{\"cell\":" << s.cell
                   << ",\"scheduler\":\""
                   << schedulerKindName(job.cfg.scheduler)
                   << "\",\"fidelity\":\"" << fidelityName(job.fidelity)
                   << "\",\"chips\":" << job.cfg.geometry.numChips()
                   << '}';
            }
            os << '}';
        }
        os << "\n]}\n";
        return static_cast<bool>(os.flush());
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Run @p fn, as a set-up span when tracing. */
template <class Fn>
void
setupCall(Tracer *tracer, const char *layer, const char *name, Fn &&fn)
{
    if (tracer)
        tracer->timed(layer, name, kNoCell, fn);
    else
        fn();
}

// ------------------------------------------------------------ workloads

/** Evaluation geometry of the Table 1 exhibits (Figures 6, 10-14). */
SsdConfig
evalConfig(SchedulerKind kind, std::uint32_t chips)
{
    SsdConfig cfg = SsdConfig::withChips(chips);
    cfg.geometry.blocksPerPlane = 24;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    return cfg;
}

/** Geometry of the Figure 17 GC sweep. */
SsdConfig
gcConfig(SchedulerKind kind, std::uint32_t chips)
{
    SsdConfig cfg = SsdConfig::withChips(chips);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.ftl.overprovision = 0.15;
    cfg.scheduler = kind;
    return cfg;
}

/** @p fraction of @p cfg's unprotected logical capacity, in bytes. */
std::uint64_t
spanFor(const SsdConfig &cfg, double fraction)
{
    const double logical =
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes);
    return static_cast<std::uint64_t>(logical * fraction);
}

/** A Table 1 grid: @p names x @p seeds seeds from @p seed x @p chips
 *  x every scheduler, each trace @p ios I/Os over half the logical
 *  space of the smallest device. */
std::vector<DeviceJob>
tableOneJobs(const std::vector<std::string> &names, std::uint64_t seed,
             std::uint64_t seeds, std::uint64_t ios,
             const std::vector<std::uint32_t> &chips, Fidelity fidelity,
             Tracer *tracer)
{
    const std::uint64_t span =
        spanFor(evalConfig(SchedulerKind::VAS, chips.front()), 0.5);
    TraceStore store;
    std::vector<DeviceJob> jobs;
    for (std::uint64_t s = seed; s < seed + seeds; ++s) {
        for (const std::string &name : names) {
            const TraceRef trace =
                store.intern(name + "/" + std::to_string(s), [&] {
                    Trace t;
                    setupCall(tracer, "workload", "generatePaperTrace",
                              [&] {
                                  t = generatePaperTrace(name, ios, span,
                                                         s);
                              });
                    return t;
                });
            for (const std::uint32_t c : chips) {
                for (const SchedulerKind kind : kAllSchedulers) {
                    DeviceJob job;
                    job.cfg = evalConfig(kind, c);
                    job.trace = trace;
                    job.fidelity = fidelity;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    return jobs;
}

std::vector<std::string>
tableOneNames(bool with_msnfs3)
{
    std::vector<std::string> names;
    for (const auto &info : paperTraces()) {
        if (with_msnfs3 || std::strcmp(info.name, "msnfs3") != 0)
            names.emplace_back(info.name);
    }
    return names;
}

/** Fig. 10 campaign, mixed reads and writes on 64 chips. msnfs3 is
 *  bulk_io's: its ~230-page I/Os would dominate the host time. */
std::vector<DeviceJob>
buildPaperMix(std::uint64_t seed, bool smoke, Tracer *tracer)
{
    std::vector<std::string> names = tableOneNames(false);
    if (smoke)
        names.resize(2);
    return tableOneJobs(names, seed, 1, smoke ? 60 : 1200, {64},
                        Fidelity::Exact, tracer);
}

/** msnfs3 alone: long per-I/O page lists make scheduler next() scans
 *  the dominant host cost. A PAS cell's time grows faster than its
 *  I/O count and varies up to 2.7x between seeds, so the pass is many
 *  short cells over 16 seeds rather than a few long ones. */
std::vector<DeviceJob>
buildBulkIo(std::uint64_t seed, bool smoke, Tracer *tracer)
{
    return tableOneJobs({"msnfs3"}, seed, smoke ? 1 : 16, smoke ? 10 : 40,
                        {64}, Fidelity::Exact, tracer);
}

/** Fig. 17 write stream on preconditioned devices, half of the cells
 *  with parity, soft decode and fault injection. PAS is left out. */
std::vector<DeviceJob>
buildGcWrite(std::uint64_t seed, bool smoke, Tracer *tracer)
{
    // 8 MB is the fig17 budget; 32 MB trips a GC admission panic with
    // parity on (README, "Known defect").
    const std::uint64_t budget = (smoke ? 1ull : 8ull) << 20;
    const std::vector<std::uint64_t> sizes_kb =
        smoke ? std::vector<std::uint64_t>{64, 1024}
              : std::vector<std::uint64_t>{4, 16, 64, 256, 1024};
    const std::vector<std::uint32_t> chips =
        smoke ? std::vector<std::uint32_t>{64}
              : std::vector<std::uint32_t>{64, 256};
    TraceStore store;
    std::vector<DeviceJob> jobs;
    for (const std::uint32_t c : chips) {
        const std::uint64_t span =
            spanFor(gcConfig(SchedulerKind::VAS, c), 0.6);
        for (const std::uint64_t kb : sizes_kb) {
            const std::uint64_t ios =
                std::max<std::uint64_t>(16, budget / (kb << 10));
            const TraceRef trace = store.intern(
                std::to_string(kb) + "K/" + std::to_string(c), [&] {
                    Trace t;
                    setupCall(tracer, "workload", "fixedSizeStream",
                              [&] {
                                  t = fixedSizeStream(
                                      ios, kb << 10, 0.9, span,
                                      5 * kMicrosecond, seed);
                              });
                    return t;
                });
            for (const bool prot : {false, true}) {
                for (const SchedulerKind kind :
                     {SchedulerKind::VAS, SchedulerKind::SPK3}) {
                    DeviceJob job;
                    job.cfg = gcConfig(kind, c);
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
    }
    return jobs;
}

/** Capacity planning: fast-fidelity cells from 8 to 1024 chips. */
std::vector<DeviceJob>
buildPlanSweep(std::uint64_t seed, bool smoke, Tracer *tracer)
{
    std::vector<std::string> names = tableOneNames(true);
    if (smoke)
        names.resize(4);
    const std::vector<std::uint32_t> chips =
        smoke ? std::vector<std::uint32_t>{8, 64}
              : std::vector<std::uint32_t>{8, 16, 32, 64, 128, 256, 512,
                                           1024};
    return tableOneJobs(names, seed, smoke ? 1 : 2, smoke ? 2000 : 50000,
                        chips, Fidelity::Fast, tracer);
}

struct Workload
{
    const char *name;
    /**
     * Run the measured phase on poolThreads() rather than one thread.
     * An exact cell costs the same host time alone as beside three
     * others (README, "Threads"), and one thread halves the run-to-run
     * spread on a shared host, so the exact workloads run on one.
     * plan_sweep is there to load DeviceArray's pool, so it runs on as
     * many threads as the exhibit benches.
     */
    bool pool;
    std::vector<DeviceJob> (*build)(std::uint64_t seed, bool smoke,
                                    Tracer *tracer);
};

constexpr Workload kWorkloads[] = {
    {"paper_mix", false, buildPaperMix},
    {"bulk_io", false, buildBulkIo},
    {"gc_write", false, buildGcWrite},
    {"plan_sweep", true, buildPlanSweep},
};

// ------------------------------------------------------------- checks

/** True when cell @p m of @p job breaks a benchmark invariant. */
bool
cellBroken(const DeviceJob &job, const MetricsSnapshot &m)
{
    if (m.iosCompleted != job.trace.size())
        return true;
    if (job.fidelity == Fidelity::Fast)
        return !(std::isfinite(m.bandwidthKBps) && m.bandwidthKBps > 0.0);
    // The NVMHC counts whole pages, so compare at page granularity.
    const std::uint32_t page = job.cfg.geometry.pageSizeBytes;
    const TraceMix mix = summarizeMix(job.trace, page);
    return m.failedIos != 0 ||
           m.bytesRead + m.bytesWritten !=
               (mix.readPages + mix.writePages) * page;
}

/** FNV-1a over CellCache::serialize of every cell, in cell order. */
std::uint64_t
simDigest(const std::vector<MetricsSnapshot> &results)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const MetricsSnapshot &m : results) {
        for (const char c : CellCache::serialize(m)) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Fast mode is compared only where exact has no faults or parity,
 *  which the estimator does not model. */
bool
fastComparable(const DeviceJob &job)
{
    return job.fidelity == Fidelity::Exact && !job.cfg.fault.enabled() &&
           !job.cfg.parity.enabled;
}

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
relErr(double fast, double exact)
{
    return exact != 0.0 ? std::fabs(fast - exact) / std::fabs(exact)
                        : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------- phases

/** Result of the measured phase. Snapshots and sweep statistics are
 *  the first pass's: the pass a traced run re-runs. */
struct Measured
{
    std::vector<MetricsSnapshot> results;
    std::vector<double> cellSeconds;
    double overheadS = 0.0;    //!< wall minus cell seconds per worker
    double imbalancePct = 0.0; //!< busiest worker against the mean
    double wallS = 0.0;              //!< every pass
    std::vector<double> passIosPerS; //!< I/Os per wall second, per pass
    bool deterministic = true;       //!< every pass reproduced the first
};

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (const double x : v)
        total += x;
    return total;
}

Measured
measure(const std::vector<DeviceJob> &jobs, unsigned threads,
        double min_seconds)
{
    Measured m;
    std::uint64_t first_digest = 0;
    do {
        DeviceArray array(jobs);
        array.run(threads);
        m.wallS += array.runWallSeconds();
        std::uint64_t ios = 0;
        for (const MetricsSnapshot &r : array.results())
            ios += r.iosCompleted;
        m.passIosPerS.push_back(static_cast<double>(ios) /
                                array.runWallSeconds());
        if (m.passIosPerS.size() == 1) {
            m.results = array.results();
            first_digest = simDigest(m.results);
            m.cellSeconds = array.cellSeconds();
            const auto &busy = array.threadBusySeconds();
            m.overheadS = array.runWallSeconds() -
                          sum(m.cellSeconds) /
                              static_cast<double>(busy.size());
            const double max_busy =
                *std::max_element(busy.begin(), busy.end());
            const double mean_busy =
                sum(busy) / static_cast<double>(busy.size());
            m.imbalancePct =
                mean_busy > 0.0 ? (max_busy / mean_busy - 1.0) * 100.0
                                : 0.0;
        } else if (simDigest(array.results()) != first_digest) {
            m.deterministic = false;
        }
    } while (m.wallS < min_seconds);
    return m;
}

/** Fast mode against exact on the identical jobs (percent medians). */
struct FastCheck
{
    std::size_t cells = 0;
    double bwErrPct = 0.0;
    double latErrPct = 0.0;
};

FastCheck
fastCheck(const std::vector<DeviceJob> &jobs,
          const std::vector<MetricsSnapshot> &exact, Tracer *tracer)
{
    const auto start = Clock::now();
    std::vector<double> bw;
    std::vector<double> lat;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!fastComparable(jobs[i]))
            continue;
        MetricsSnapshot fast;
        const auto estimate = [&] { fast = estimateDevice(jobs[i]); };
        if (tracer)
            tracer->timed("estimator", "estimateDevice", i, estimate);
        else
            estimate();
        bw.push_back(relErr(fast.bandwidthKBps, exact[i].bandwidthKBps));
        lat.push_back(relErr(fast.avgLatencyNs, exact[i].avgLatencyNs));
    }
    if (tracer)
        tracer->record("estimator", "fast_check", kNoCell, start);
    return {bw.size(), 100.0 * quantile(bw, 0.5),
            100.0 * quantile(lat, 0.5)};
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Per-layer metrics of a traced run, and whether it reproduced the
 *  measured snapshots bit for bit. */
struct Traced
{
    std::vector<Metric> metrics;
    bool identical = true;
};

/**
 * Re-run @p jobs on one thread with a span around every layer call,
 * in DeviceArray::runOne's order, and check each snapshot against
 * @p measured. Set-up and fast-check spans are already in @p tracer.
 * @p serial_cells_s is the cell seconds of an untraced one-thread
 * pass, the reference of trace.overhead_pct.
 */
Traced
traceCells(const std::vector<DeviceJob> &jobs, const Measured &measured,
           double serial_cells_s, const FastCheck &fast, Tracer &tracer)
{
    Traced out;
    constexpr std::size_t kScheds = std::size(kAllSchedulers);
    double run_s[kScheds] = {};
    std::uint64_t run_events[kScheds] = {};
    std::uint64_t events = 0, wheel2 = 0, heap = 0, ios = 0;
    std::uint64_t composed = 0, stale = 0;
    Tick stall = 0, contention = 0, bus_held = 0;
    std::uint64_t host_pages = 0, migrated = 0, deferrals = 0;
    std::uint64_t estimates = fast.cells;
    std::vector<MetricsSnapshot> exact;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const DeviceJob &job = jobs[i];
        const auto cell_start = Clock::now();
        MetricsSnapshot snap;
        if (job.fidelity == Fidelity::Fast) {
            tracer.timed("estimator", "estimateDevice", i,
                         [&] { snap = estimateDevice(job); });
            ++estimates;
        } else {
            std::optional<Ssd> ssd;
            tracer.timed("ssd", "Ssd::Ssd", i,
                         [&] { ssd.emplace(job.cfg); });
            if (job.preconditionGc) {
                tracer.timed("ftl", "Ssd::preconditionForGc", i,
                             [&] { ssd->preconditionForGc(); });
            }
            const FtlStats ftl0 = ssd->ftl().stats();
            tracer.timed("ssd", "Ssd::replay", i,
                         [&] { ssd->replay(job.trace); });
            const std::uint64_t ev0 = ssd->events().dispatched();
            const double run = tracer.timed("engine", "Ssd::run", i,
                                            [&] { ssd->run(); });
            tracer.timed("ssd", "Ssd::metrics", i,
                         [&] { snap = ssd->metrics(); });

            const std::uint64_t ev = ssd->events().dispatched() - ev0;
            const auto k = static_cast<std::size_t>(job.cfg.scheduler);
            run_s[k] += run;
            run_events[k] += ev;
            events += ev;
            wheel2 += ssd->events().wheel2Transits();
            heap += ssd->events().heapTransits();
            ios += snap.iosCompleted;
            const NvmhcStats &ns = ssd->nvmhc().stats();
            composed += ns.requestsComposed;
            stale += ns.staleRetries;
            stall += ns.queueStallTime;
            // Run-phase FTL work only: preconditioning's writes and
            // mapping-only collections are set-up, not simulated GC.
            const FtlStats &fs = ssd->ftl().stats();
            host_pages += fs.hostWrites - ftl0.hostWrites;
            migrated += fs.pagesMigrated - ftl0.pagesMigrated;
            deferrals += fs.gcDeferrals - ftl0.gcDeferrals;
            for (const auto &ch : ssd->channels()) {
                contention += ch->stats().contentionTime;
                bus_held += ch->stats().busHeldTime;
            }
            exact.push_back(snap);
        }
        tracer.record("sweep", "cell", i, cell_start);
        if (CellCache::serialize(snap) !=
            CellCache::serialize(measured.results[i]))
            out.identical = false;
    }

    const MetricsSnapshot agg = DeviceArray::aggregate(exact);
    const auto ratio = [](double num, double den) {
        return den != 0.0 ? num / den : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double generate_s = tracer.total("generatePaperTrace") +
                              tracer.total("fixedSizeStream");
    const double estimate_s = tracer.total("estimateDevice");
    const double run_total = tracer.total("Ssd::run");

    std::vector<Metric> &m = out.metrics;
    m.push_back({"workload.generate_s", generate_s, "s"});
    m.push_back({"sweep.jobs_s", tracer.total("setup") - generate_s, "s"});
    m.push_back({"sweep.overhead_s", measured.overheadS, "s"});
    m.push_back({"sweep.imbalance_pct", measured.imbalancePct, "%"});
    m.push_back({"sweep.cell_ms_p50",
                 1e3 * quantile(measured.cellSeconds, 0.50), "ms"});
    m.push_back({"sweep.cell_ms_p95",
                 1e3 * quantile(measured.cellSeconds, 0.95), "ms"});
    m.push_back({"ssd.construct_s", tracer.total("Ssd::Ssd"), "s"});
    m.push_back({"ssd.replay_s", tracer.total("Ssd::replay"), "s"});
    m.push_back({"ssd.metrics_s", tracer.total("Ssd::metrics"), "s"});
    m.push_back({"ftl.precondition_s",
                 tracer.total("Ssd::preconditionForGc"), "s"});
    m.push_back({"ftl.pages_migrated", d(migrated), "count"});
    m.push_back({"ftl.write_amp",
                 ratio(d(host_pages + migrated), d(host_pages)), "ratio"});
    m.push_back({"ftl.gc_deferrals", d(deferrals), "count"});
    m.push_back({"engine.run_s", run_total, "s"});
    m.push_back({"engine.ns_per_event", ratio(run_total * 1e9, d(events)),
                 "ns"});
    for (std::size_t k = 0; k < kScheds; ++k) {
        const std::string kind = schedulerKindName(kAllSchedulers[k]);
        m.push_back({"engine.run_s." + kind, run_s[k], "s"});
        m.push_back({"engine.ns_per_event." + kind,
                     ratio(run_s[k] * 1e9, d(run_events[k])), "ns"});
    }
    m.push_back({"sim.events", d(events), "count"});
    m.push_back({"sim.events_per_io", ratio(d(events), d(ios)), "ratio"});
    m.push_back({"sim.wheel2_transits", d(wheel2), "count"});
    m.push_back({"sim.heap_transits", d(heap), "count"});
    m.push_back({"sched.requests_composed", d(composed), "count"});
    m.push_back({"sched.stale_retries", d(stale), "count"});
    m.push_back({"sched.queue_stall_ms", d(stall) / 1e6, "sim_ms"});
    m.push_back({"controller.transactions", d(agg.transactions), "count"});
    m.push_back({"controller.requests_per_txn",
                 ratio(d(agg.requestsServed), d(agg.transactions)),
                 "ratio"});
    m.push_back({"controller.read_retries", d(agg.readRetries), "count"});
    m.push_back({"controller.channel_contention_pct",
                 100.0 * ratio(d(contention), d(contention + bus_held)),
                 "%"});
    m.push_back({"flash.chip_util_pct", agg.chipUtilizationPct, "%"});
    m.push_back({"flash.flp_pal3_pct", agg.flpPct[3], "%"});
    m.push_back({"ssd.parity_updates", d(agg.parityUpdates), "count"});
    m.push_back({"ssd.reconstructed_reads", d(agg.reconstructedReads),
                 "count"});
    m.push_back({"ssd.soft_decode_invocations",
                 d(agg.softDecodeInvocations), "count"});
    m.push_back({"estimator.estimate_s", estimate_s, "s"});
    m.push_back({"estimator.us_per_cell",
                 ratio(estimate_s * 1e6, d(estimates)), "us"});
    m.push_back({"estimator.bw_err_pct", fast.bwErrPct, "%"});
    m.push_back({"estimator.lat_err_pct", fast.latErrPct, "%"});
    m.push_back({"trace.overhead_pct",
                 100.0 * ratio(tracer.total("cell") - serial_cells_s,
                               serial_cells_s),
                 "%"});
    return out;
}

// ------------------------------------------------------------- output

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // run.py rejects it
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "spk_bench: %s\nusage: spk_bench --workload NAME "
                 "[--seed N] [--seconds S] [--traced] [--smoke] "
                 "[--out DIR]\n",
                 msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    fixAddressSpaceLayout(argv);
    std::string workload_name;
    std::uint64_t seed = 1;
    double min_seconds = 10.0;
    bool traced = false;
    bool smoke = false;
    std::string out_dir = "out";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            workload_name = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            const std::string v = value();
            char *end = nullptr;
            min_seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(min_seconds >= 0.0))
                usage("--seconds takes a non-negative number");
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out") {
            out_dir = value();
        } else {
            usage("unknown argument " + arg);
        }
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads) {
        if (workload_name == w.name)
            wl = &w;
    }
    if (!wl)
        usage("unknown workload '" + workload_name + "'");

    std::vector<DeviceJob> jobs;
    std::optional<Tracer> tracer;
    std::vector<double> setup_s;
    if (traced) {
        tracer.emplace();
        const auto start = Clock::now();
        jobs = wl->build(seed, smoke, &*tracer);
        tracer->record("sweep", "setup", kNoCell, start);
    } else {
        const double min_setup_s = smoke ? 0.0 : kSetupMinSeconds;
        const auto first = Clock::now();
        while (setup_s.size() < kSetupMinRepeats ||
               secondsBetween(first, Clock::now()) < min_setup_s) {
            jobs = {}; // drop the last list first: peak memory holds one
            const auto start = Clock::now();
            jobs = wl->build(seed, smoke, nullptr);
            setup_s.push_back(secondsBetween(start, Clock::now()));
        }
    }

    // The spans of a traced run cover one pass, so it measures one.
    const unsigned threads = wl->pool ? poolThreads() : 1;
    const Measured measured =
        measure(jobs, threads, traced ? 0.0 : min_seconds);

    std::size_t broken = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        broken += cellBroken(jobs[i], measured.results[i]) ? 1 : 0;

    const FastCheck fast =
        fastCheck(jobs, measured.results, tracer ? &*tracer : nullptr);

    std::vector<Metric> metrics;
    bool identical = true;
    std::string trace_file;
    if (traced) {
        // The traced pass runs warm on one thread; so does its
        // reference.
        const Measured serial = measure(jobs, 1, 0.0);
        Traced t = traceCells(jobs, measured, sum(serial.cellSeconds),
                              fast, *tracer);
        identical = t.identical &&
                    simDigest(serial.results) == simDigest(measured.results);
        metrics = std::move(t.metrics);
        trace_file = out_dir + "/" + wl->name + ".trace.json";
        if (!tracer->write(trace_file, jobs)) {
            std::fprintf(stderr, "spk_bench: cannot write %s\n",
                         trace_file.c_str());
            return 1;
        }
    } else {
        metrics.push_back(
            {"sim_ios_per_s", quantile(measured.passIosPerS, 0.5), "io/s"});
        const std::vector<double> warm(
            setup_s.begin() + static_cast<std::ptrdiff_t>(setup_s.size() / 2),
            setup_s.end());
        metrics.push_back({"setup_s", quantile(warm, 0.5), "s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    }

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      simDigest(measured.results)));
    const bool correct =
        broken == 0 && measured.deterministic && identical;

    std::ostringstream os;
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << jobs.size() << ",\"failed\":" << broken
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? "," : "") << '"' << metrics[i].name
           << "\":{\"value\":" << jsonNumber(metrics[i].value)
           << ",\"unit\":\"" << metrics[i].unit << "\"}";
    }
    os << "},\"info\":{\"workload\":\"" << wl->name
       << "\",\"seed\":" << seed
       << ",\"smoke\":" << (smoke ? "true" : "false")
       << ",\"threads\":" << threads << ",\"cells\":" << jobs.size()
       << ",\"setup_repeats\":" << setup_s.size()
       << ",\"passes\":" << measured.passIosPerS.size()
       << ",\"pass_ios_per_s\":[";
    for (std::size_t i = 0; i < measured.passIosPerS.size(); ++i)
        os << (i ? "," : "") << jsonNumber(measured.passIosPerS[i]);
    os << "],\"measured_s\":" << jsonNumber(measured.wallS)
       << ",\"sim_digest\":\"" << digest << '"' << ",\"deterministic\":"
       << (measured.deterministic ? "true" : "false")
       << ",\"cell_error_pct\":"
       << jsonNumber(100.0 * static_cast<double>(broken) /
                     static_cast<double>(
                         std::max<std::size_t>(jobs.size(), 1)))
       << ",\"fast_cells\":" << fast.cells
       << ",\"fast_bw_err_pct\":" << jsonNumber(fast.bwErrPct)
       << ",\"fast_lat_err_pct\":" << jsonNumber(fast.latErrPct);
    if (traced) {
        os << ",\"snapshots_identical\":"
           << (identical ? "true" : "false") << ",\"trace_file\":\""
           << trace_file << '"';
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
