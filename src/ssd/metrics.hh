/**
 * @file
 * Device-level metric snapshot.
 *
 * Collects every quantity the paper's evaluation reports: bandwidth
 * and IOPS (Fig. 10a/b), device-level latency (10c), queue stall time
 * (10d), inter-/intra-chip idleness (Fig. 11), execution-time
 * breakdown (Fig. 13), FLP breakdown (Fig. 14), chip utilization
 * (Fig. 15) and flash transaction counts (Fig. 16).
 */

#ifndef SPK_SSD_METRICS_HH
#define SPK_SSD_METRICS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "flash/fault_model.hh"
#include "sim/types.hh"

namespace spk
{

/** How DeviceArray::aggregate merges a field across devices (or a
 *  stream's slices across devices). */
enum class Merge : std::uint8_t
{
    Label,      //!< the common value, or "mixed" if the devices differ
    Key,        //!< the name that matches stream slices across devices
    Sum,
    Max,
    PerIo,      //!< mean weighted by iosCompleted
    PerSpan,    //!< mean weighted by makespan
    PerRequest, //!< mean weighted by requestsServed
    ReadMix,    //!< mean weighted by iosCompleted x read byte share
    WriteMix,   //!< mean weighted by iosCompleted x write byte share
    ByName,     //!< stream slices matched by name, in order of first
                //!< appearance, each merged by its own table
};

/**
 * Per-stream slice of a run's metrics (multi-queue host front-end).
 * Empty for single implicit-stream runs; one entry per configured
 * HostStreamConfig otherwise.
 */
struct StreamMetrics
{
    std::string name;

    std::uint64_t iosSubmitted = 0;
    std::uint64_t iosCompleted = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    Tick queueStallTime = 0;

    double bandwidthKBps = 0.0;
    double iops = 0.0;
    double avgLatencyNs = 0.0;
    Tick p99LatencyNs = 0;
    Tick maxLatencyNs = 0;

    /** The field table; see MetricsSnapshot::forEachField. */
    template <typename Visit>
    static constexpr void forEachField(Visit &&visit)
    {
        using S = StreamMetrics;
        using enum Merge;
        visit(&S::name, "stream", Key);
        visit(&S::iosSubmitted, "ios_submitted", Sum);
        visit(&S::iosCompleted, "ios", Sum);
        visit(&S::bytesRead, "bytes_read", Sum);
        visit(&S::bytesWritten, "bytes_written", Sum);
        visit(&S::queueStallTime, "queue_stall_ns", Sum);
        visit(&S::bandwidthKBps, "bandwidth_kbps", Sum);
        visit(&S::iops, "iops", Sum);
        visit(&S::avgLatencyNs, "avg_latency_ns", PerIo);
        visit(&S::p99LatencyNs, "p99_ns", PerIo);
        visit(&S::maxLatencyNs, "max_ns", Max);
    }

    bool operator==(const StreamMetrics &) const = default;
};

/** Everything measured over one run. */
struct MetricsSnapshot
{
    std::string scheduler;

    Tick makespan = 0;
    Tick deviceActiveTime = 0;

    std::uint64_t iosCompleted = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    double bandwidthKBps = 0.0;
    double iops = 0.0;
    double avgLatencyNs = 0.0;
    Tick p50LatencyNs = 0;
    Tick p95LatencyNs = 0;
    Tick p99LatencyNs = 0;
    Tick maxLatencyNs = 0;
    double avgReadLatencyNs = 0.0;
    double avgWriteLatencyNs = 0.0;
    Tick queueStallTime = 0;

    /** Mean over chips of R/B-busy-time / makespan, percent. */
    double chipUtilizationPct = 0.0;

    /**
     * Flash-level utilization: plane-active time over total
     * plane-time capacity, percent (Figure 15's y-axis). A chip
     * serving single-plane transactions is R/B-busy but uses 1/8 of
     * its flash internals.
     */
    double flashLevelUtilizationPct = 0.0;

    /** Chips idle while the device had outstanding work, percent. */
    double interChipIdlenessPct = 0.0;

    /** Die/plane capacity idle inside busy chips, percent. */
    double intraChipIdlenessPct = 0.0;

    /** Memory-request share served at each FLP level, percent.
     *  Order: NON-PAL, PAL1, PAL2, PAL3. */
    std::array<double, 4> flpPct{};

    std::uint64_t transactions = 0;
    std::uint64_t requestsServed = 0;

    /** Execution-time breakdown, percent of chip-time capacity. */
    double execBusPct = 0.0;
    double execContentionPct = 0.0;
    double execCellPct = 0.0;
    double execIdlePct = 0.0;

    std::uint64_t staleRetries = 0;
    std::uint64_t gcBatches = 0;
    std::uint64_t pagesMigrated = 0;

    // --- Reliability counters (fault injection; all zero when the
    // --- fault model is inert).

    /** Read-retry re-issues, total and per ladder step (bin k counts
     *  retries entering step k+1). */
    std::uint64_t readRetries = 0;
    std::array<std::uint64_t, kMaxRetrySteps> readRetriesByStep{};

    /** Pages lost to an exhausted retry ladder or a dead die. */
    std::uint64_t uncorrectableReads = 0;

    /** Program operations that failed on flash (host and GC). */
    std::uint64_t programFailures = 0;

    /** Pages re-homed to a fresh frontier page after a program fail. */
    std::uint64_t programRemaps = 0;

    /** Erase pulses that failed and retired their block. */
    std::uint64_t eraseFailures = 0;

    /** Blocks retired as Bad, by cause. */
    std::uint64_t blocksRetiredWear = 0;
    std::uint64_t blocksRetiredProgram = 0;
    std::uint64_t blocksRetiredErase = 0;

    /** Host I/Os that completed with at least one failed page. */
    std::uint64_t failedIos = 0;

    /** Dies taken offline by the configured die failure. */
    std::uint64_t degradedDies = 0;

    // --- Die-level parity, rebuild and soft-decode counters (all
    // --- zero when parity and soft decode are off).

    /** Parity-page programs (stripe closes and RMW updates). */
    std::uint64_t parityUpdates = 0;

    /** Stripes closed with every data member written. */
    std::uint64_t parityFullStripeCloses = 0;

    /** Stripes closed by flush-window expiry or a die failure. */
    std::uint64_t parityPartialCloses = 0;

    /** Parity read-modify-write read legs (late stripe members). */
    std::uint64_t parityRmwReads = 0;

    /** Failed host reads served via stripe reconstruction. */
    std::uint64_t reconstructedReads = 0;

    /** Survivor reads issued by degraded-read reconstruction. */
    std::uint64_t reconstructionReads = 0;

    /** Valid dead-die pages found when the rebuild started. An upper
     *  bound on rebuildPagesRebuilt: host overwrites and re-homed
     *  in-flight programs can evacuate pages before the cursor
     *  arrives. */
    std::uint64_t rebuildPagesTotal = 0;

    /** Pages the rebuild re-materialized onto spare capacity. */
    std::uint64_t rebuildPagesRebuilt = 0;

    /** Soft-decode (LDPC) invocations after ladder exhaustion. */
    std::uint64_t softDecodeInvocations = 0;

    /** Soft decodes that still could not correct the page. */
    std::uint64_t softDecodeFailures = 0;

    /** Time the shared soft decoder spent decoding. */
    Tick softDecodeBusyTime = 0;

    /** Time reads waited for the busy soft decoder. */
    Tick softDecodeStallTime = 0;

    /** GC migration reads that came back uncorrectable. */
    std::uint64_t gcReadFailures = 0;

    /** Per-stream slices (multi-queue runs; empty otherwise). */
    std::vector<StreamMetrics> streams;

    /**
     * The field table: calls visit(member pointer, CSV columns, merge
     * rule) once per member, in declaration order. It is the one list
     * of fields: the cell-cache payload (in this order), the sweep
     * CSV columns and DeviceArray::aggregate are derived from it, and
     * a member missing here fails the static_assert below.
     *
     * Columns: "" is none. An array either lists one column per
     * element, comma-separated, or names a prefix numbered 1..N. In
     * the cache payload a sequence (array or vector) leads with its
     * length unless its columns are listed: a numbered array's length
     * is a tunable constant.
     */
    template <typename Visit>
    static constexpr void forEachField(Visit &&visit)
    {
        using M = MetricsSnapshot;
        using enum Merge;
        visit(&M::scheduler, "", Label); // the sweep axes carry the scheduler
        visit(&M::makespan, "makespan_ns", Max);
        visit(&M::deviceActiveTime, "device_active_ns", Sum);
        visit(&M::iosCompleted, "ios", Sum);
        visit(&M::bytesRead, "bytes_read", Sum);
        visit(&M::bytesWritten, "bytes_written", Sum);
        visit(&M::bandwidthKBps, "bandwidth_kbps", Sum);
        visit(&M::iops, "iops", Sum);
        visit(&M::avgLatencyNs, "avg_latency_ns", PerIo);
        visit(&M::p50LatencyNs, "p50_ns", PerIo);
        visit(&M::p95LatencyNs, "p95_ns", PerIo);
        visit(&M::p99LatencyNs, "p99_ns", PerIo);
        visit(&M::maxLatencyNs, "max_ns", Max);
        visit(&M::avgReadLatencyNs, "avg_read_ns", ReadMix);
        visit(&M::avgWriteLatencyNs, "avg_write_ns", WriteMix);
        visit(&M::queueStallTime, "queue_stall_ns", Sum);
        visit(&M::chipUtilizationPct, "chip_util_pct", PerSpan);
        visit(&M::flashLevelUtilizationPct, "flash_util_pct", PerSpan);
        visit(&M::interChipIdlenessPct, "inter_idle_pct", PerSpan);
        visit(&M::intraChipIdlenessPct, "intra_idle_pct", PerSpan);
        visit(&M::flpPct, "flp_non,flp_pal1,flp_pal2,flp_pal3", PerRequest);
        visit(&M::transactions, "transactions", Sum);
        visit(&M::requestsServed, "requests", Sum);
        visit(&M::execBusPct, "exec_bus_pct", PerSpan);
        visit(&M::execContentionPct, "exec_cont_pct", PerSpan);
        visit(&M::execCellPct, "exec_cell_pct", PerSpan);
        visit(&M::execIdlePct, "exec_idle_pct", PerSpan);
        visit(&M::staleRetries, "stale_retries", Sum);
        visit(&M::gcBatches, "gc_batches", Sum);
        visit(&M::pagesMigrated, "pages_migrated", Sum);
        visit(&M::readRetries, "read_retries", Sum);
        visit(&M::readRetriesByStep, "read_retries_step", Sum);
        visit(&M::uncorrectableReads, "uncorrectable_reads", Sum);
        visit(&M::programFailures, "program_failures", Sum);
        visit(&M::programRemaps, "program_remaps", Sum);
        visit(&M::eraseFailures, "erase_failures", Sum);
        visit(&M::blocksRetiredWear, "blocks_retired_wear", Sum);
        visit(&M::blocksRetiredProgram, "blocks_retired_program", Sum);
        visit(&M::blocksRetiredErase, "blocks_retired_erase", Sum);
        visit(&M::failedIos, "failed_ios", Sum);
        visit(&M::degradedDies, "degraded_dies", Sum);
        visit(&M::parityUpdates, "parity_updates", Sum);
        visit(&M::parityFullStripeCloses, "parity_full_closes", Sum);
        visit(&M::parityPartialCloses, "parity_partial_closes", Sum);
        visit(&M::parityRmwReads, "parity_rmw_reads", Sum);
        visit(&M::reconstructedReads, "reconstructed_reads", Sum);
        visit(&M::reconstructionReads, "reconstruction_reads", Sum);
        visit(&M::rebuildPagesTotal, "rebuild_pages_total", Sum);
        visit(&M::rebuildPagesRebuilt, "rebuild_pages_rebuilt", Sum);
        visit(&M::softDecodeInvocations, "soft_decode_invocations", Sum);
        visit(&M::softDecodeFailures, "soft_decode_failures", Sum);
        visit(&M::softDecodeBusyTime, "soft_decode_busy_ns", Sum);
        visit(&M::softDecodeStallTime, "soft_decode_stall_ns", Sum);
        visit(&M::gcReadFailures, "gc_read_failures", Sum);
        visit(&M::streams, "", ByName); // SweepRunner::writeStreamCsv has them
    }

    /** Exact (bit-level) comparison; used by determinism tests. */
    bool operator==(const MetricsSnapshot &) const = default;
};

/** Whether a sequence field's table columns list one name per
 *  element (comma-separated) rather than a prefix numbered 1..N. */
constexpr bool
listsColumns(std::string_view columns)
{
    return columns.find(',') != std::string_view::npos;
}

/** Converts to any member type; only named in unevaluated probes. */
struct AnyMember
{
    template <typename T>
    operator T() const;
};

/**
 * Number of direct members of aggregate @p T: the longest brace-init
 * list it accepts. Each probe converts to a whole member (a nested
 * aggregate or std::array included), so brace elision never splits
 * one member over several probes.
 */
template <typename T, typename... Probes>
constexpr std::size_t
aggregateArity()
{
    if constexpr (requires { T{Probes{}..., AnyMember{}}; })
        return aggregateArity<T, Probes..., AnyMember>();
    else
        return sizeof...(Probes);
}

/** Whether @p Record's field table lists each of its members. */
template <typename Record>
constexpr bool
tableIsComplete()
{
    std::size_t n = 0;
    Record::forEachField([&n](auto...) { ++n; });
    return n == aggregateArity<Record>();
}

static_assert(tableIsComplete<StreamMetrics>(),
              "every StreamMetrics member needs a forEachField entry");
static_assert(tableIsComplete<MetricsSnapshot>(),
              "every MetricsSnapshot member needs a forEachField entry");

std::ostream &operator<<(std::ostream &os, const MetricsSnapshot &m);

} // namespace spk

#endif // SPK_SSD_METRICS_HH
