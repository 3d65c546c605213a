#include "sim/estimator.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace spk
{

namespace
{

/** One host I/O flattened out of the trace or stream set. */
struct FlatRecord
{
    Tick arrival = 0;
    std::uint64_t pages = 0;
    std::uint32_t stream = kNoStream;
    bool isWrite = false;

    static constexpr std::uint32_t kNoStream = ~std::uint32_t{0};
};

/** The job's workload as arrival-ordered records, and its page-level
 *  mix. */
struct FlatWorkload
{
    std::vector<FlatRecord> records;
    TraceMix mix;
};

/** Flatten the job's workload in one pass over its records, which
 *  also sums the mix. Ties keep (stream, record) order, so the merge
 *  is deterministic regardless of how the cells are sharded. */
FlatWorkload
flattenWorkload(const DeviceJob &job, std::uint32_t page_size)
{
    FlatWorkload flat;
    std::size_t total = job.trace.size();
    for (const auto &s : job.streams)
        total += s.trace.size();
    flat.records.reserve(total);

    bool sorted = true;
    Tick last = 0;
    const auto append = [&](const Trace &trace, std::uint32_t stream) {
        for (const auto &rec : trace) {
            sorted = sorted && rec.arrival >= last;
            last = rec.arrival;
            FlatRecord f;
            f.arrival = rec.arrival;
            f.pages = flat.mix.add(rec, page_size);
            f.stream = stream;
            f.isWrite = rec.isWrite;
            flat.records.push_back(f);
        }
    };
    if (job.streams.empty())
        append(job.trace, FlatRecord::kNoStream);
    for (std::uint32_t sid = 0; sid < job.streams.size(); ++sid)
        append(job.streams[sid].trace, sid);

    // Every generator emits arrivals in order and each stream is
    // validated sorted, so only interleaved streams, or a stray
    // unsorted trace (which only degrades the estimate), pay the sort.
    if (!sorted) {
        std::stable_sort(flat.records.begin(), flat.records.end(),
                         [](const FlatRecord &a, const FlatRecord &b) {
                             return a.arrival < b.arrival;
                         });
    }
    return flat;
}

} // namespace

const EstimatorConstants &
EstimatorConstants::calibrated()
{
    // Fit by `bench_exhibit calibration --fit` against exact anchor
    // cells (see bench/README.md for the procedure and the resulting
    // fast-vs-exact error table). SchedulerKind order: VAS, PAS,
    // SPK1, SPK2, SPK3.
    static const EstimatorConstants k = [] {
        EstimatorConstants c;
        c.chipConcurrency = {1.400, 1.400, 2.400, 1.400, 2.400};
        c.chipsExponent = {0.850, 0.850, 0.700, 0.850, 0.700};
        c.sizeExponent = {0.100, 0.100, 0.450, 0.100, 0.450};
        c.coverageBoost = {2.000, 2.500, 2.500, 1.750, 1.750};
        c.mixPenalty = {0.600, 0.400, 0.600, 0.400, 0.600};
        c.busEfficiency = 0.75;
        c.gcWriteAmpScale = 0.01;
        c.queueWeight = {1.000, 1.000, 1.000, 1.000, 1.000};
        return c;
    }();
    return k;
}

MetricsSnapshot
estimateDevice(const DeviceJob &job)
{
    return estimateDevice(job, EstimatorConstants::calibrated());
}

double
estimateJobCost(const DeviceJob &job)
{
    std::uint64_t records = job.trace.size();
    for (const auto &s : job.streams)
        records += s.trace.size();

    // Fast cells skip the event loop: cost is one closed-form pass
    // over the records, roughly three orders of magnitude cheaper
    // than event-accurate simulation of the same workload.
    if (job.fidelity == Fidelity::Fast)
        return 1.0 + static_cast<double>(records) * 1e-3;

    double cost = 1.0 + static_cast<double>(records);

    // Preconditioning writes every host-visible page and fragments
    // the device before replay — price it as the page count it fills.
    if (job.preconditionGc) {
        const double fill_pages =
            static_cast<double>(job.cfg.geometry.totalPages()) *
            (1.0 - job.cfg.ftl.overprovision);
        // A fill page is far cheaper than a traced I/O (no queueing,
        // no scheduling) but there are millions of them.
        cost += fill_pages * 0.05;
    }

    // Fault injection multiplies events per I/O: retry ladders
    // re-occupy the channel and soft decodes serialize on the shared
    // decoder. Scale by the expected extra sense count.
    const FaultConfig &f = job.cfg.fault;
    const double retry_rate = f.readTransientRate + f.readHardRate;
    if (retry_rate > 0.0) {
        cost *= 1.0 + retry_rate *
                          static_cast<double>(f.retryLadderSteps);
    }
    if (f.programFailRate > 0.0 || f.eraseFailRate > 0.0)
        cost *= 1.0 + 2.0 * (f.programFailRate + f.eraseFailRate);

    return cost;
}

MetricsSnapshot
estimateDevice(const DeviceJob &job, const EstimatorConstants &k)
{
    const FlashGeometry &geo = job.cfg.geometry;
    const FlashTiming &tim = job.cfg.timing;
    const std::size_t sched = static_cast<std::size_t>(job.cfg.scheduler);

    MetricsSnapshot m;
    m.scheduler = schedulerKindName(job.cfg.scheduler);

    const FlatWorkload flat = flattenWorkload(job, geo.pageSizeBytes);
    const std::vector<FlatRecord> &records = flat.records;
    const TraceMix &mix = flat.mix;
    if (records.empty())
        return m;

    const double planes_per_chip =
        static_cast<double>(geo.diesPerChip) *
        static_cast<double>(geo.planesPerDie);
    const double n_chips = static_cast<double>(geo.numChips());

    // Cell-service concurrency law: planes kept busy at once under
    // backlog. Two hard ceilings apply regardless of the scheduler:
    // the physical plane count, and the outstanding-work coverage —
    // with queueDepth I/Os of ~meanPages pages in flight, at most
    // that many pages can be in service, spread balls-into-bins over
    // the planes.
    const double n_planes_d = n_chips * planes_per_chip;
    const double mean_pages =
        static_cast<double>(mix.readPages + mix.writePages) /
        static_cast<double>(records.size());
    const double law = k.chipConcurrency[sched] *
                       std::pow(n_chips, k.chipsExponent[sched]) *
                       std::pow(mean_pages, k.sizeExponent[sched]);
    // The coverage ceiling is per operation class: the host queue
    // holds queueDepth I/Os drawn from the trace mix, so the planes a
    // class can occupy at once are bounded by ITS share of the
    // outstanding pages. Programs run 10-100x longer than reads, so a
    // read-mostly trace with a few large writes drains its write work
    // at the write-class coverage — a handful of planes — no matter
    // how wide the device is.
    const double qd =
        static_cast<double>(job.cfg.nvmhc.queueDepth);
    const auto class_cap = [&](double class_pages) {
        const double outstanding =
            qd * class_pages / static_cast<double>(records.size());
        const double coverage =
            k.coverageBoost[sched] * n_planes_d *
            (1.0 - std::exp(-outstanding / n_planes_d));
        return std::clamp(
            law, 0.5, std::max(0.5, std::min(n_planes_d, coverage)));
    };
    const double cap_cell_r =
        class_cap(static_cast<double>(mix.readPages));
    const double write_share =
        static_cast<double>(mix.writePages) /
        std::max(1.0, static_cast<double>(mix.readPages +
                                          mix.writePages));
    const double cap_cell_w = std::max(
        0.5, class_cap(static_cast<double>(mix.writePages)) *
                 std::pow(std::max(write_share, 1e-3),
                          k.mixPenalty[sched]));
    const double cap_bus = static_cast<double>(geo.numChannels) *
                           std::clamp(k.busEfficiency, 0.05, 1.0);
    const double queue_weight = k.queueWeight[sched];

    // Steady-state GC pressure: free-page budget before collection
    // starts, and the live fraction that sets write amplification.
    const double total_pages = static_cast<double>(geo.totalPages());
    const double logical_pages =
        total_pages * (1.0 - job.cfg.ftl.overprovision);
    const double reserve_pages =
        static_cast<double>(job.cfg.ftl.gcFreeBlockThreshold) *
        n_planes_d * static_cast<double>(geo.pagesPerBlock);
    double free_budget;
    double live_fraction;
    double precondition_pages = 0.0;
    if (job.preconditionGc) {
        // preconditionForGc() fills 95% of logical capacity before
        // replay. The leftover free pages sit scattered in partially
        // dirty blocks, not in reclaimable free blocks, so the
        // free-block threshold trips immediately: every host write
        // pays the amplified cost from the first page on.
        precondition_pages = 0.95 * logical_pages;
        free_budget = 0.0;
        live_fraction = precondition_pages / total_pages;
    } else {
        free_budget = std::max(0.0, total_pages - reserve_pages);
        // Live data cannot exceed the touched span or the logical
        // capacity; overwrites within the span invalidate in place.
        const double span =
            std::min(static_cast<double>(mix.spanPages), logical_pages);
        live_fraction = span / total_pages;
    }
    const double u = std::clamp(live_fraction, 0.0, 0.98);
    const double write_amp =
        1.0 + k.gcWriteAmpScale * u / (1.0 - u);

    // Per-page costs (ticks). Program cost follows the MLC fast/slow
    // interleave (FlashTiming::programLatency alternates by page
    // index): rotating allocation spreads programs evenly over the
    // planes, so the expected pages-per-plane footprint decides how
    // many writes reach odd (slow) page slots. A short burst on a
    // wide device prices at the fast-page cost; preconditioned or
    // deep write streams converge to the 50/50 average.
    const double bus_page =
        static_cast<double>(tim.commandOverhead) +
        static_cast<double>(tim.transferTime(geo.pageSizeBytes));
    const double read_cell = static_cast<double>(tim.readLatency);
    // Reads of never-written pages backfill a mapping through the
    // same rotating allocator (untimed, but they advance the page
    // cursors), so the footprint counts them alongside the programs.
    const double gc_extra =
        (write_amp - 1.0) *
        std::max(0.0,
                 static_cast<double>(mix.writePages) - free_budget);
    const double pages_per_plane =
        (precondition_pages + static_cast<double>(mix.writePages) +
         static_cast<double>(mix.readPages) + gc_extra) /
        n_planes_d;
    const double slow_frac = [](double w) {
        if (w <= 1.0)
            return 0.0;
        const double base = std::floor(w);
        const double frac = w - base;
        const double slow_lo = std::floor(base / 2.0);
        const double slow_hi = std::floor((base + 1.0) / 2.0);
        return ((1.0 - frac) * slow_lo + frac * slow_hi) / w;
    }(pages_per_plane);
    const double prog_cell =
        (1.0 - slow_frac) * static_cast<double>(tim.programFast) +
        slow_frac * static_cast<double>(tim.programSlow);
    const double erase_cell = static_cast<double>(tim.eraseLatency);
    const double compose =
        static_cast<double>(job.cfg.nvmhc.composeOverhead);

    // Fluid walk over arrival-ordered records: three backlogs drain
    // at capacity between arrivals; each record's latency is the
    // queueing delay ahead of it plus its own service floor.
    double b_bus = 0.0;
    double b_cell_r = 0.0;
    double b_cell_w = 0.0;
    double b_comp = 0.0;
    double written_pages = 0.0;
    bool gc_active = false;
    double migrated_pages = 0.0;
    double erases = 0.0;
    double bus_total = 0.0;
    double cell_total = 0.0;
    double cell_r_total = 0.0;
    double cell_w_total = 0.0;
    double bus_wait_total = 0.0;
    double wait_total = 0.0;

    double lat_sum = 0.0;
    double max_lat = 0.0;
    double read_lat_sum = 0.0;
    double write_lat_sum = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::vector<double> latencies;
    latencies.reserve(records.size());

    struct StreamAccum
    {
        std::uint64_t ios = 0;
        std::uint64_t bytesRead = 0;
        std::uint64_t bytesWritten = 0;
        double latSum = 0.0;
        double waitSum = 0.0;
        double maxLat = 0.0;
        std::vector<double> latencies;
    };
    std::vector<StreamAccum> streams(job.streams.size());

    Tick prev_arrival = records.front().arrival;
    double makespan = 0.0;
    double envelope = static_cast<double>(records.front().arrival);
    double idle_gaps = 0.0;

    for (const auto &rec : records) {
        const double dt =
            static_cast<double>(rec.arrival - prev_arrival);
        prev_arrival = rec.arrival;
        b_bus = std::max(0.0, b_bus - dt * cap_bus);
        b_cell_r = std::max(0.0, b_cell_r - dt * cap_cell_r);
        b_cell_w = std::max(0.0, b_cell_w - dt * cap_cell_w);
        b_comp = std::max(0.0, b_comp - dt);

        const double arrival = static_cast<double>(rec.arrival);
        if (arrival > envelope)
            idle_gaps += arrival - envelope;

        const double pages = static_cast<double>(rec.pages);
        const double cell_page = rec.isWrite ? prog_cell : read_cell;
        const double cap_cell = rec.isWrite ? cap_cell_w : cap_cell_r;
        double &b_cell = rec.isWrite ? b_cell_w : b_cell_r;
        double w_bus = pages * bus_page;
        double w_cell = pages * cell_page;
        const double w_comp = pages * compose;

        if (rec.isWrite) {
            written_pages += pages;
            if (written_pages > free_budget)
                gc_active = true;
            if (gc_active && write_amp > 1.0) {
                // Each amplified page is migrated (read + program,
                // both crossing the bus) and erases amortize over the
                // pages a collection reclaims.
                const double gc_pages = (write_amp - 1.0) * pages;
                w_bus += gc_pages * 2.0 * bus_page;
                w_cell += gc_pages * (read_cell + prog_cell);
                const double rec_erases =
                    write_amp * pages /
                    static_cast<double>(geo.pagesPerBlock);
                w_cell += rec_erases * erase_cell;
                migrated_pages += gc_pages;
                erases += rec_erases;
            }
        }

        const double bus_wait = b_bus / cap_bus;
        const double wait = std::max(
            {bus_wait, b_cell / cap_cell, b_comp});
        bus_wait_total += bus_wait;
        wait_total += wait;

        // Service floor: intrinsic single-page latencies plus the
        // record's own work pushed through each capacity.
        const double floor =
            w_comp +
            bus_page * std::ceil(pages / static_cast<double>(
                                             geo.numChannels)) +
            cell_page * std::ceil(pages / cap_cell);
        const double service = std::max(
            {floor, w_bus / cap_bus, w_cell / cap_cell, w_comp});
        const double lat = queue_weight * wait + service;

        b_bus += w_bus;
        b_cell += w_cell;
        b_comp += w_comp;
        bus_total += w_bus;
        cell_total += w_cell;
        if (rec.isWrite)
            cell_w_total += w_cell;
        else
            cell_r_total += w_cell;

        const double completion = arrival + lat;
        makespan = std::max(makespan, completion);
        envelope = std::max(envelope, completion);

        lat_sum += lat;
        max_lat = std::max(max_lat, lat);
        latencies.push_back(lat);
        const std::uint64_t bytes =
            rec.pages * geo.pageSizeBytes;
        if (rec.isWrite) {
            write_lat_sum += lat;
            ++writes;
            m.bytesWritten += bytes;
        } else {
            read_lat_sum += lat;
            ++reads;
            m.bytesRead += bytes;
        }
        if (rec.stream != FlatRecord::kNoStream) {
            StreamAccum &sa = streams[rec.stream];
            ++sa.ios;
            if (rec.isWrite)
                sa.bytesWritten += bytes;
            else
                sa.bytesRead += bytes;
            sa.latSum += lat;
            sa.waitSum += wait;
            sa.maxLat = std::max(sa.maxLat, lat);
            sa.latencies.push_back(lat);
        }
    }

    m.iosCompleted = records.size();
    m.makespan = static_cast<Tick>(makespan + 0.5);
    const double first_arrival =
        static_cast<double>(records.front().arrival);
    m.deviceActiveTime = static_cast<Tick>(
        std::max(0.0, makespan - first_arrival - idle_gaps) + 0.5);

    const double seconds = makespan / static_cast<double>(kSecond);
    if (seconds > 0.0) {
        m.bandwidthKBps =
            static_cast<double>(m.bytesRead + m.bytesWritten) /
            1024.0 / seconds;
        m.iops =
            static_cast<double>(m.iosCompleted) / seconds;
    }

    m.avgLatencyNs = lat_sum / static_cast<double>(records.size());
    const auto [p50, p95, p99] =
        selectQuantiles(latencies, {0.50, 0.95, 0.99});
    m.p50LatencyNs = static_cast<Tick>(p50 + 0.5);
    m.p95LatencyNs = static_cast<Tick>(p95 + 0.5);
    m.p99LatencyNs = static_cast<Tick>(p99 + 0.5);
    m.maxLatencyNs = static_cast<Tick>(max_lat + 0.5);
    if (reads > 0)
        m.avgReadLatencyNs = read_lat_sum / static_cast<double>(reads);
    if (writes > 0)
        m.avgWriteLatencyNs =
            write_lat_sum / static_cast<double>(writes);
    m.queueStallTime = static_cast<Tick>(wait_total + 0.5);

    // Occupancy metrics, mirroring Ssd::metrics' formulas with the
    // fluid work totals: plane-active time is the summed cell work,
    // chip R/B-busy time adds the (concurrency-folded) cell time to
    // the bus transfers.
    const double plane_active = cell_total;
    // Work-weighted effective concurrency: total cell work over the
    // time it takes to drain each class at its own cap.
    const double cell_drain_time =
        cell_r_total / cap_cell_r + cell_w_total / cap_cell_w;
    const double cap_cell_eff =
        cell_drain_time > 0.0 ? cell_total / cell_drain_time
                              : cap_cell_r;
    const double eta_chip = std::max(cap_cell_eff / n_chips, 1e-6);
    double busy = cell_total / std::max(eta_chip, 1.0) + bus_total;
    if (makespan > 0.0)
        busy = std::min(busy, n_chips * makespan);
    if (makespan > 0.0) {
        m.chipUtilizationPct =
            100.0 * busy / (n_chips * makespan);
        m.flashLevelUtilizationPct =
            100.0 * plane_active /
            (n_chips * planes_per_chip * makespan);
        const double cap = n_chips * makespan;
        m.execBusPct = 100.0 * bus_total / cap;
        m.execContentionPct =
            100.0 * std::min(bus_wait_total, cap) / cap;
        m.execCellPct = 100.0 * std::min(cell_total, cap) / cap;
        m.execIdlePct = std::max(0.0, 100.0 - 100.0 * busy / cap);
    }
    const double active = static_cast<double>(m.deviceActiveTime);
    if (active > 0.0) {
        const double cap = n_chips * active;
        m.interChipIdlenessPct =
            100.0 * (1.0 - std::min(busy, cap) / cap);
    }
    if (busy > 0.0) {
        m.intraChipIdlenessPct =
            100.0 * std::max(0.0, 1.0 - plane_active /
                                            (busy * planes_per_chip));
    }

    // FLP mix from the effective concurrency: the share of requests
    // served above NON-PAL grows as dispatch keeps more planes of a
    // chip busy at once. The split across PAL1/2/3 is a fixed shape
    // (coarse; Fig. 14-level detail needs the exact engine).
    const double par_share =
        planes_per_chip > 1.0
            ? std::clamp((eta_chip - 1.0) / (planes_per_chip - 1.0),
                         0.0, 1.0)
            : 0.0;
    m.flpPct[0] = 100.0 * (1.0 - par_share);
    m.flpPct[1] = 100.0 * par_share * 0.4;
    m.flpPct[2] = 100.0 * par_share * 0.3;
    m.flpPct[3] = 100.0 * par_share * 0.3;

    const double host_pages =
        static_cast<double>(mix.readPages + mix.writePages);
    m.requestsServed = static_cast<std::uint64_t>(
        host_pages + migrated_pages + 0.5);
    m.transactions = static_cast<std::uint64_t>(
        std::ceil((host_pages + migrated_pages) /
                  std::max(1.0, eta_chip)));
    m.gcBatches = static_cast<std::uint64_t>(erases + 0.5);
    m.pagesMigrated =
        static_cast<std::uint64_t>(migrated_pages + 0.5);

    // Per-stream slices (multi-queue jobs).
    if (!job.streams.empty()) {
        m.streams.resize(job.streams.size());
        for (std::size_t sid = 0; sid < job.streams.size(); ++sid) {
            StreamMetrics &sm = m.streams[sid];
            StreamAccum &sa = streams[sid];
            sm.name = job.streams[sid].name;
            sm.iosSubmitted = job.streams[sid].trace.size();
            sm.iosCompleted = sa.ios;
            sm.bytesRead = sa.bytesRead;
            sm.bytesWritten = sa.bytesWritten;
            sm.queueStallTime =
                static_cast<Tick>(sa.waitSum + 0.5);
            if (seconds > 0.0) {
                sm.bandwidthKBps =
                    static_cast<double>(sm.bytesRead +
                                        sm.bytesWritten) /
                    1024.0 / seconds;
                sm.iops =
                    static_cast<double>(sm.iosCompleted) / seconds;
            }
            if (sa.ios > 0) {
                sm.avgLatencyNs =
                    sa.latSum / static_cast<double>(sa.ios);
                sm.p99LatencyNs = static_cast<Tick>(
                    selectQuantiles(sa.latencies, {0.99})[0] + 0.5);
                sm.maxLatencyNs =
                    static_cast<Tick>(sa.maxLat + 0.5);
            }
        }
    }

    return m;
}

} // namespace spk
