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
 * Each labelled axis (traces, scheduler names, variants, arbiter
 * names, fidelities) is filtered independently, and only when at
 * least one of its values matches — an axis with no match is left
 * untouched rather than emptied. So `--filter msnfs` keeps the msnfs
 * traces across all schedulers and `--filter spk3` keeps all traces
 * under SPK3 alone. The grid stays rectangular either way.
 */
SweepAxes filterAxes(SweepAxes axes, const std::string &needle);

/** One cell of the expanded grid, and the key SweepRunner::at looks
 *  a cell up by (designated initializers name only the axes that
 *  matter: `sweep.at({.trace = "fin1", .scheduler = kind})`). Every
 *  member has an initializer, so GCC's -Wmissing-field-initializers
 *  accepts the fields such a lookup leaves out. */
struct SweepPoint
{
    std::string trace = "";
    SchedulerKind scheduler = SchedulerKind::SPK3;
    std::uint64_t seed = 0;
    std::string variant = "";
    ArbiterKind arbiter = ArbiterKind::RoundRobin;
    double fault = 0.0;
    Fidelity fidelity = Fidelity::Exact;
    std::size_t index = 0; //!< flat cell index (expansion order)
};

/**
 * Expands a SweepAxes grid into DeviceJobs and runs them sharded.
 * It adds to DeviceArray only the axes: expansion, lookup by
 * SweepPoint and the CSVs. Everything else a run leaves behind
 * (per-cell results, completion flags, timings, per-I/O series) is
 * read from array().
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
 *   const auto &m =
 *       sweep.at({.trace = "fin1", .scheduler = SchedulerKind::SPK3});
 * @endcode
 */
class SweepRunner
{
  public:
    /** Builds the DeviceJob for one cell. Called once per cell at
     *  construction time, in expansion order — build shared inputs
     *  (traces, base configs) once outside and copy them in. */
    using JobBuilder = std::function<DeviceJob(const SweepPoint &)>;

    SweepRunner(SweepAxes axes, const JobBuilder &build);

    const SweepAxes &axes() const { return axes_; }
    const std::vector<SweepPoint> &points() const { return points_; }
    std::size_t cellCount() const { return points_.size(); }

    /** The cells' jobs and, after run(), their results, completion
     *  flags and timings, indexed like points(). */
    const DeviceArray &array() const { return array_; }

    /**
     * Execute every cell. Thread count affects wall-clock only; the
     * per-cell snapshots are bit-identical at any value.
     */
    const std::vector<MetricsSnapshot> &
    run(unsigned threads, const DeviceArrayHooks &hooks = {});

    /**
     * Flat index of the cell at @p point's axis values (its `index`
     * field is ignored). Trace and scheduler must be on their axes.
     * The other fields may stay at their defaults (seed 0, variant
     * "", arbiter RoundRobin, fault 0, fidelity Exact) to address an
     * axis that holds a single value. fatal() on any other value not
     * on its axis, naming the axis: a typo'd label is a usage error,
     * not a soft miss.
     */
    std::size_t indexOf(const SweepPoint &point) const;

    /** The snapshot of the cell at @p point (see indexOf); fatal()
     *  before run(). */
    const MetricsSnapshot &at(const SweepPoint &point) const;

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
    SweepAxes axes_;
    std::vector<SweepPoint> points_;
    DeviceArray array_;
};

} // namespace spk

#endif // SPK_SIM_SWEEP_HH
