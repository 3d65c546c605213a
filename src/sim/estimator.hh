/**
 * @file
 * Analytic fast-mode device estimator.
 *
 * estimateDevice() consumes the same DeviceJob as the event-accurate
 * engine (geometry, SsdConfig, trace or host-stream mix, scheduler
 * kind) and produces a MetricsSnapshot-shaped result without running
 * the event loop. The model is a coarse-timestep fluid approximation:
 *
 *  - Three shared resources are tracked as work backlogs drained at
 *    constant capacity between arrivals: the channel buses (capacity
 *    numChannels, weighted by a per-scheduler dispatch efficiency),
 *    the flash cells (a per-scheduler concurrency law in device
 *    width and transfer size, clamped by the queue-depth-limited
 *    outstanding-work coverage — the resource-contention analysis of
 *    the paper reduced to closed form), and request composition
 *    (serialized at the NVMHC).
 *  - Program cost follows the MLC fast/slow page interleave: the
 *    expected pages-per-plane footprint decides how many writes pay
 *    the slow-page latency, so short bursts on wide devices price at
 *    the fast-page cost like the exact engine does.
 *  - Steady-state GC pressure: once the write footprint exhausts the
 *    free-page budget (overprovisioning, preconditioning), every
 *    host-written page is surcharged with write-amplified migration
 *    reads/programs and amortized erases.
 *  - Per-record latency = queueing delay (backlog ahead through the
 *    bottleneck resource) + service floor (intrinsic page latencies
 *    plus the record's own work through the bottleneck). Mean, p50,
 *    p95, p99 and max come from the same sorted-quantile formula the
 *    exact engine uses, applied to the estimated per-record series.
 *
 * The per-scheduler constants are calibrated against exact anchor
 * runs by `bench_exhibit calibration --fit`; the committed defaults
 * and the full fast-vs-exact error table live in bench/README.md.
 * Fast cells do not model fault injection or parity (those counters
 * stay zero) and produce no per-I/O series.
 */

#ifndef SPK_SIM_ESTIMATOR_HH
#define SPK_SIM_ESTIMATOR_HH

#include <array>

#include "sim/device_array.hh"

namespace spk
{

/**
 * Calibrated constants of the fast-mode model. Array entries are
 * indexed by SchedulerKind order (VAS, PAS, SPK1, SPK2, SPK3).
 */
struct EstimatorConstants
{
    /**
     * Cell-service concurrency prefactor: under backlog a scheduler
     * keeps roughly
     *
     *   chipConcurrency * chips^chipsExponent * pagesPerIo^sizeExponent
     *
     * planes in service at once (clamped to the physical plane count
     * and to the outstanding-work coverage set by the host queue
     * depth). The power-law form captures the two observed dispatch
     * regimes: head-of-line schedulers (VAS) collide on busy chips so
     * their concurrency grows sub-linearly with device width, while
     * Sprinkler's out-of-order sprinkling tracks it almost linearly;
     * larger transfers stripe consecutive pages over distinct chips
     * and lift every scheduler.
     */
    std::array<double, 5> chipConcurrency{};

    /** Device-width exponent of the concurrency law (see above). */
    std::array<double, 5> chipsExponent{};

    /** Transfer-size exponent of the concurrency law (see above). */
    std::array<double, 5> sizeExponent{};

    /**
     * Multiplier on the per-class outstanding-pages coverage ceiling.
     * The NVMHC recycles a tag once the I/O is composed and
     * dispatched, so while programs run in the flash the queue slot
     * already holds the next I/O — out-of-order schedulers keep
     * noticeably more write pages in service than a strict
     * queue-depth share suggests.
     */
    std::array<double, 5> coverageBoost{};

    /**
     * Exponent coupling the write-class concurrency to the write
     * share of the trace: cap_w *= (writePages/totalPages)^mixPenalty.
     * In-order page composition stalls the whole pipeline on the
     * slow program at its head, so a scheduler like VAS loses most of
     * its write concurrency when rare large writes hide between
     * reads; out-of-order sprinkling fits mixPenalty ~= 0.
     */
    std::array<double, 5> mixPenalty{};

    /**
     * Fraction of aggregate channel-bus bandwidth kept busy under
     * backlog (stalls between transfers, command gaps). The channel
     * hardware is shared by every scheduler, so this is a single
     * device constant — scheduler differences belong to the cell
     * concurrency law above.
     */
    double busEfficiency = 0.85;

    /** Scale on the overprovisioning-derived write-amplification
     *  term: WA = 1 + scale * u / (1 - u) at live fraction u. */
    double gcWriteAmpScale = 1.0;

    /** Weight on the queueing-delay (backlog-ahead) latency term. */
    std::array<double, 5> queueWeight{};

    /** Constants fit from the exact anchor runs (see
     *  bench_exhibit calibration --fit and bench/README.md). */
    static const EstimatorConstants &calibrated();
};

/** Estimate @p job's metrics with the committed calibration. */
MetricsSnapshot estimateDevice(const DeviceJob &job);

/**
 * Predicted relative wall-clock cost of simulating @p job — the
 * sort key of DeviceArray's cost-guided cell order. Unitless: only
 * the ordering matters. Scales with total trace records across the
 * job's workload (trace or streams), is slashed for Fast cells (the
 * estimator skips the event loop), surcharged for GC preconditioning
 * (a full device fill before replay) and scaled up with the fault
 * rates (retry ladders and soft decodes add events per I/O).
 */
double estimateJobCost(const DeviceJob &job);

/** Same, with explicit constants (the calibration harness). */
MetricsSnapshot estimateDevice(const DeviceJob &job,
                               const EstimatorConstants &constants);

} // namespace spk

#endif // SPK_SIM_ESTIMATOR_HH
