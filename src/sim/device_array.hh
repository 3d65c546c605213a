/**
 * @file
 * Sharded multi-device simulation driver.
 *
 * The event kernel is per-device deterministic and shares no mutable
 * state between Ssd instances, so a sweep over N (config, workload)
 * combinations is embarrassingly parallel: each device gets its own
 * EventQueue, RNG seed and workload stream, and a fixed pool of
 * worker threads claims devices from an atomic cursor. Per-device
 * results are bit-identical to running the same jobs sequentially,
 * regardless of thread count or claim order.
 */

#ifndef SPK_SIM_DEVICE_ARRAY_HH
#define SPK_SIM_DEVICE_ARRAY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ssd/config.hh"
#include "ssd/metrics.hh"
#include "ssd/ssd.hh"
#include "workload/trace.hh"
#include "workload/trace_store.hh"

namespace spk
{

class CellCache;

/**
 * Simulation fidelity of one device job.
 *
 * Exact runs the event-accurate engine; Fast skips the event loop and
 * evaluates the closed-form/fluid estimator (sim/estimator.hh) on the
 * same inputs. Fast cells are ~100-1000x cheaper and calibrated
 * against Exact (see bench_exhibit calibration), but approximate:
 * headline throughput tracks within the documented tolerance,
 * reliability counters stay zero and no per-I/O series is produced.
 */
enum class Fidelity : std::uint8_t
{
    Exact,
    Fast,
};

const char *fidelityName(Fidelity fidelity);

/** Parse "exact"/"fast" (case-insensitive); false on anything else. */
bool parseFidelity(const std::string &name, Fidelity &out);

/** One independent simulation: device config plus its workload. */
struct DeviceJob
{
    SsdConfig cfg;

    /** Shared immutable workload handle: sweeps hold one parsed copy
     *  per unique trace, not per cell (see workload/trace_store.hh). */
    TraceRef trace;

    /**
     * Multi-queue workload: when non-empty, the device replays these
     * host streams through Ssd::replayStreams, and `trace` must be
     * empty (runOne fatals on an ambiguous job rather than silently
     * dropping the trace). Per-stream results land in
     * MetricsSnapshot::streams.
     */
    std::vector<HostStreamConfig> streams;

    /**
     * Fill + fragment the device before replay. An exact cell does not
     * precondition on its own when another cell of the same run()
     * needs the same device: each distinct preconditioned image is
     * built once per run() and restored into the other cells (see
     * DeviceArray).
     */
    bool preconditionGc = false;
    /** Keep the per-I/O completion series (time-series exhibits).
     *  Off by default: a long sweep does not need N full IoResult
     *  vectors resident at once. Ignored by Fast cells (the
     *  estimator has no per-I/O series). */
    bool captureIoResults = false;

    /** Engine selection for this cell (see Fidelity). */
    Fidelity fidelity = Fidelity::Exact;
};

/**
 * Cell-order policy: maps the job list to the order in which workers
 * claim cells. Must return a permutation of [0, jobs.size()) — run()
 * validates and fatal()s otherwise. Results are always indexed by
 * cell, so the policy affects wall-clock time only, never results.
 *
 * run() then pulls together the cells that share a preconditioned
 * image (see DeviceArray): each group's cells move to the slot of the
 * group's first member, keeping the policy's order among themselves,
 * and every other cell keeps the policy's order. A job list with no
 * shared image is claimed exactly in the policy's order.
 */
using CellOrderPolicy = std::function<std::vector<std::size_t>(
    const std::vector<DeviceJob> &)>;

/**
 * Longest-job-first: predict each cell's cost with the analytic
 * estimator (trace length, fidelity, preconditioning, fault rate —
 * see estimateJobCost) and dispatch expensive cells first, so a
 * heterogeneous grid does not strand one long exact cell on the tail
 * of a multi-thread run. Deterministic: ties break on cell index.
 */
CellOrderPolicy costGuidedOrder();

/** Optional per-run observation and control hooks. */
struct DeviceArrayHooks
{
    /**
     * Called once per device, right after its snapshot is stored.
     * Invoked under an internal mutex (callbacks never overlap), from
     * whichever worker finished the device — completion order is not
     * deterministic across runs, only the results are.
     */
    std::function<void(std::size_t index, const MetricsSnapshot &)>
        onDeviceDone;

    /**
     * Cooperative cancellation: set to true (from the callback or any
     * other thread) and workers stop claiming new devices. Devices
     * already in flight run to completion, so every result for which
     * completed(i) is true is valid and final.
     */
    const std::atomic<bool> *stop = nullptr;

    /** Cell claim order; null runs the default costGuidedOrder(). */
    CellOrderPolicy order;

    /**
     * Persistent content-addressed result cache (sim/cell_cache.hh).
     * When set, each cell is looked up before simulating and stored
     * after; hits skip the simulation entirely and are bit-identical
     * by the cache's round-trip contract. Cells that capture per-I/O
     * series bypass the cache (it stores snapshots, not series).
     * Not owned; must outlive run().
     */
    CellCache *cache = nullptr;
};

/**
 * Runs a batch of independent device simulations across threads.
 *
 * Shared preconditioning: the exact cells of one run() that
 * precondition devices whose configs differ only in scheduler (the
 * key is CellCache::keyOf with the workload emptied and the scheduler
 * fixed, so every other config field splits images) share one
 * preconditioned image. The first of them to run preconditions its
 * own device and captures the image (Ssd::image()); the others
 * restore it into a fresh device instead of preconditioning. A
 * group's cells are claimed back to back, and the image is freed once
 * its last cell has restored it (or been served from the cache), so a
 * run holds at most one live image per worker, one at a time at one
 * worker; run() drops any that a cancel leaves behind. Results are
 * bit-identical to preconditioning every cell.
 *
 * Typical use:
 * @code
 *   std::vector<DeviceJob> jobs = ...;   // one per seed/scheduler
 *   DeviceArray array(std::move(jobs));
 *   array.run(8);                        // 8 worker threads
 *   MetricsSnapshot fleet = DeviceArray::aggregate(array.results());
 * @endcode
 */
class DeviceArray
{
  public:
    /** An empty job list is allowed: run() completes immediately with
     *  no results (a fully filtered-out sweep is not an error). */
    explicit DeviceArray(std::vector<DeviceJob> jobs);

    DeviceArray(const DeviceArray &) = delete;
    DeviceArray &operator=(const DeviceArray &) = delete;

    /**
     * Simulate every job and collect its metrics.
     *
     * @param threads worker threads; 1 runs inline on the caller
     *        (clamped to the job count). Thread count affects only
     *        wall-clock time, never results.
     * @param hooks optional progress callback + stop flag.
     * @return per-job snapshots, indexed like the jobs vector.
     */
    const std::vector<MetricsSnapshot> &
    run(unsigned threads, const DeviceArrayHooks &hooks = {});

    /** Per-job snapshots from the last run() (empty before it). */
    const std::vector<MetricsSnapshot> &results() const
    {
        return results_;
    }

    /** True once job @p index finished in the last run(). After an
     *  uncancelled run this holds for every index. Safe to poll from
     *  another thread while run() is in flight: the flag is an
     *  acquire-load over the worker's release-store, so observing
     *  true guarantees the corresponding results()/ioResults() entry
     *  is fully written. */
    bool completed(std::size_t index) const
    {
        return completed_[index].load(std::memory_order_acquire) != 0;
    }

    /** Devices finished during the last run(). */
    std::size_t completedCount() const;

    /** Per-I/O completion series of job @p index; empty unless the
     *  job set captureIoResults and completed. */
    const std::vector<IoResult> &ioResults(std::size_t index) const
    {
        return ioResults_[index];
    }

    const std::vector<DeviceJob> &jobs() const { return jobs_; }

    /**
     * Wall-clock seconds job @p index took in the last run() —
     * simulation plus cache bookkeeping (a cache hit reads as the
     * lookup time, near zero). Indexed like the jobs vector; 0.0 for
     * cells a cancelled run never started.
     */
    const std::vector<double> &cellSeconds() const
    {
        return cellSeconds_;
    }

    /** Per-worker busy seconds (sum of its cells' wall time) from the
     *  last run(); one entry per worker thread. The max/min spread is
     *  the thread-imbalance the cost-guided order exists to shrink. */
    const std::vector<double> &threadBusySeconds() const
    {
        return threadBusySeconds_;
    }

    /** Wall-clock seconds the last run() took end to end. */
    double runWallSeconds() const { return runWallSeconds_; }

    /**
     * Merge per-device snapshots into one fleet-level report, each
     * field by the Merge rule of its MetricsSnapshot::forEachField
     * entry: counters, bandwidth and IOPS sum (the devices run
     * concurrently), makespan and max latency take the maximum, and
     * the rest are weighted means. Latency percentiles cannot be
     * merged exactly from snapshots, so they are I/O-weighted means —
     * a fleet summary, not an exact pooled percentile.
     */
    static MetricsSnapshot
    aggregate(const std::vector<MetricsSnapshot> &devices);

  private:
    /** A group's shared preconditioned image (device_array.cc). */
    struct ImageGroup;

    /** Run (or cache-serve) one cell; returns its wall seconds.
     *  @p group is the cell's image group, or null when the cell
     *  shares no image. */
    double runOne(std::size_t index, CellCache *cache, ImageGroup *group);

    std::vector<DeviceJob> jobs_;
    std::vector<MetricsSnapshot> results_;
    std::vector<std::vector<IoResult>> ioResults_;
    std::vector<double> cellSeconds_;
    std::vector<double> threadBusySeconds_;
    double runWallSeconds_ = 0.0;
    /** Per-job done flags; atomic so completed()/completedCount()
     *  may be polled concurrently with a run (array form because
     *  std::atomic is not movable inside a vector). */
    std::unique_ptr<std::atomic<std::uint8_t>[]> completed_;
};

} // namespace spk

#endif // SPK_SIM_DEVICE_ARRAY_HH
