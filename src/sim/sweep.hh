/**
 * @file
 * Declarative sweep campaigns over the sharded device driver.
 *
 * Every paper exhibit is a cross product of a few axes — workloads,
 * schedulers, RNG seeds and a free "variant" axis (chip count,
 * transfer size, GC preconditioning, config overrides) — evaluated
 * cell by cell on an independent device. SweepRunner expands such a
 * grid into DeviceJobs once, executes them through DeviceArray's
 * thread pool, and indexes the results back by axis value so table
 * and CSV emission stays a straight lookup. Results are bit-identical
 * for any thread count (see DeviceArray).
 */

#ifndef SPK_SIM_SWEEP_HH
#define SPK_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/device_array.hh"

namespace spk
{

/**
 * The axes of a sweep. Labels are free-form strings; an axis left at
 * its one-element default contributes nothing to the cross product.
 * Cell expansion order is fixed: trace (outermost), scheduler, seed,
 * variant, arbiter, fault, fidelity (innermost).
 */
struct SweepAxes
{
    std::vector<std::string> traces{""};
    std::vector<SchedulerKind> schedulers{SchedulerKind::SPK3};
    std::vector<std::uint64_t> seeds{1};
    std::vector<std::string> variants{""};
    /** Tag-space arbitration policy (multi-stream exhibits). */
    std::vector<ArbiterKind> arbiters{ArbiterKind::RoundRobin};
    /** Injected fault intensity (reliability exhibits); how a value
     *  maps onto FaultConfig rates is the job builder's business. */
    std::vector<double> faults{0.0};
    /** Engine fidelity per cell: event-accurate vs the analytic
     *  estimator. Stamped onto the built DeviceJob after the job
     *  builder runs, so builders stay fidelity-agnostic. */
    std::vector<Fidelity> fidelities{Fidelity::Exact};

    std::size_t
    cellCount() const
    {
        return traces.size() * schedulers.size() * seeds.size() *
               variants.size() * arbiters.size() * faults.size() *
               fidelities.size();
    }
};

/**
 * Restrict axes to values matching @p needle (case-insensitive
 * substring), the `--filter` behavior of the bench CLI.
 *
 * Each labelled axis (traces, scheduler names, variants) is filtered
 * independently, and only when at least one of its values matches —
 * an axis with no match is left untouched rather than emptied. So
 * `--filter msnfs` keeps the msnfs traces across all schedulers and
 * `--filter spk3` keeps all traces under SPK3 alone. The grid stays
 * rectangular either way.
 */
SweepAxes filterAxes(SweepAxes axes, const std::string &needle);

/** One cell of the expanded grid. */
struct SweepPoint
{
    std::string trace;
    SchedulerKind scheduler = SchedulerKind::SPK3;
    std::uint64_t seed = 0;
    std::string variant;
    ArbiterKind arbiter = ArbiterKind::RoundRobin;
    double fault = 0.0;
    Fidelity fidelity = Fidelity::Exact;
    std::size_t index = 0; //!< flat cell index (expansion order)
};

/**
 * Expands a SweepAxes grid into DeviceJobs and runs them sharded.
 *
 * Typical use:
 * @code
 *   SweepAxes axes;
 *   axes.traces = {"fin1", "msnfs1"};
 *   axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK3};
 *   SweepRunner sweep(filterAxes(axes, cli.filter),
 *                     [&](const SweepPoint &p) {
 *                         DeviceJob job;
 *                         job.cfg = bench::evalConfig(p.scheduler);
 *                         job.trace = tracesByName.at(p.trace);
 *                         return job;
 *                     });
 *   sweep.run(cli.threads);
 *   const auto &m = sweep.at("fin1", SchedulerKind::SPK3);
 * @endcode
 */
class SweepRunner
{
  public:
    /** Builds the DeviceJob for one cell. Called once per cell at
     *  construction time, in expansion order — build shared inputs
     *  (traces, base configs) once outside and copy them in. */
    using JobBuilder = std::function<DeviceJob(const SweepPoint &)>;

    /** Optional observation/control for long campaigns. */
    struct Progress
    {
        /** Serialized per-cell completion callback; @p done counts
         *  cells finished so far in this run. */
        std::function<void(std::size_t done, std::size_t total,
                           const SweepPoint &)>
            onCellDone;
        /** Cooperative stop; in-flight cells finish (their results
         *  stay valid), unclaimed cells are skipped. */
        const std::atomic<bool> *stop = nullptr;

        /** Cell claim order (wall-clock only; results are indexed by
         *  cell). Null runs DeviceArray's default costGuidedOrder(). */
        CellOrderPolicy order;

        /** Persistent cell cache consulted before each simulation
         *  (sim/cell_cache.hh). Not owned; null disables caching. */
        CellCache *cache = nullptr;
    };

    SweepRunner(SweepAxes axes, const JobBuilder &build);

    const SweepAxes &axes() const { return axes_; }
    const std::vector<SweepPoint> &points() const { return points_; }
    std::size_t cellCount() const { return points_.size(); }

    /**
     * Execute every cell. Thread count affects wall-clock only; the
     * per-cell snapshots are bit-identical at any value.
     */
    const std::vector<MetricsSnapshot> &
    run(unsigned threads, const Progress &progress);

    const std::vector<MetricsSnapshot> &
    run(unsigned threads)
    {
        return run(threads, Progress{});
    }

    /** Flat per-cell snapshots, in expansion order. */
    const std::vector<MetricsSnapshot> &results() const
    {
        return array_.results();
    }

    /** Look one cell up by axis values; fatal() on an unknown label
     *  (a typo'd trace name is a usage error, not a soft miss). The
     *  seed, variant and arbiter arguments may be left at their
     *  defaults when that axis holds a single value. */
    const MetricsSnapshot &
    at(const std::string &trace, SchedulerKind scheduler,
       std::uint64_t seed = 0, const std::string &variant = "",
       ArbiterKind arbiter = ArbiterKind::RoundRobin,
       double fault = 0.0,
       Fidelity fidelity = Fidelity::Exact) const;

    /** Per-I/O series for cells whose job set captureIoResults. */
    const std::vector<IoResult> &
    ioResultsAt(const std::string &trace, SchedulerKind scheduler,
                std::uint64_t seed = 0,
                const std::string &variant = "",
                ArbiterKind arbiter = ArbiterKind::RoundRobin,
                double fault = 0.0,
                Fidelity fidelity = Fidelity::Exact) const;

    /** The expanded job of one cell (e.g. to summarize its trace). */
    const DeviceJob &
    jobAt(const std::string &trace, SchedulerKind scheduler,
          std::uint64_t seed = 0, const std::string &variant = "",
          ArbiterKind arbiter = ArbiterKind::RoundRobin,
          double fault = 0.0,
          Fidelity fidelity = Fidelity::Exact) const;

    /** True once the cell ran to completion in the last run(). */
    bool
    cellCompleted(const std::string &trace, SchedulerKind scheduler,
                  std::uint64_t seed = 0,
                  const std::string &variant = "",
                  ArbiterKind arbiter = ArbiterKind::RoundRobin,
                  double fault = 0.0,
                  Fidelity fidelity = Fidelity::Exact) const;

    /** Cells finished during the last run(). */
    std::size_t completedCount() const
    {
        return array_.completedCount();
    }

    /** Per-cell wall seconds of the last run(), expansion order
     *  (simulation + cache bookkeeping; hits read as lookup time). */
    const std::vector<double> &cellSeconds() const
    {
        return array_.cellSeconds();
    }

    /** Per-worker busy seconds of the last run(); the max/min spread
     *  is the thread imbalance the bench footer reports. */
    const std::vector<double> &threadBusySeconds() const
    {
        return array_.threadBusySeconds();
    }

    /** End-to-end wall seconds of the last run(). */
    double runWallSeconds() const { return array_.runWallSeconds(); }

    /** Fleet-level merge of every completed cell snapshot
     *  (uncompleted cells of a cancelled run are excluded, so the
     *  merge never dilutes percentages with zero placeholders). */
    MetricsSnapshot aggregate() const;

    /**
     * Emit one CSV row per cell: the seven axis columns, a completed
     * flag, then the columns of MetricsSnapshot::forEachField in
     * table order (every field except the scheduler name, which the
     * axes carry, and the stream slices, which writeStreamCsv
     * emits), then `cell_seconds` (the cell's wall time).
     * cell_seconds is deliberately the LAST column: it is the one
     * nondeterministic field, so byte-exact CSV comparisons (the
     * warm-cache CI smoke) strip it by dropping the final column
     * instead of parsing the header. Cancelled (incomplete) cells
     * emit zeros with completed=0.
     */
    void writeCsv(std::ostream &os) const;

    /** writeCsv to @p path; fatal() if the file cannot be opened. */
    void writeCsvFile(const std::string &path) const;

    /**
     * Emit one CSV row per (cell, stream): the axis columns, then the
     * columns of StreamMetrics::forEachField in table order (the
     * stream name first). Cells without streams (single
     * implicit-stream jobs) emit nothing.
     */
    void writeStreamCsv(std::ostream &os) const;

    /** writeStreamCsv to @p path; fatal() if it cannot be opened. */
    void writeStreamCsvFile(const std::string &path) const;

  private:
    std::size_t indexOf(const std::string &trace,
                        SchedulerKind scheduler, std::uint64_t seed,
                        const std::string &variant,
                        ArbiterKind arbiter, double fault,
                        Fidelity fidelity) const;

    SweepAxes axes_;
    std::vector<SweepPoint> points_;
    DeviceArray array_;
};

} // namespace spk

#endif // SPK_SIM_SWEEP_HH
