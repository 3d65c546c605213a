/**
 * @file
 * GC-path allocation gate (ROADMAP "GC-path allocation", retired).
 *
 * PRs 1–2 made the host-I/O path allocation-free; the request-arena
 * refactor extended the same slab discipline to the GC engine:
 * migration requests come from the device-wide MemoryRequest arena
 * with intrusive batch/pair fields, batches live in a flat
 * recycled-slot table, and the FTL hands batches over through
 * recycled GcBatchList storage. The former <= ceiling ratchet
 * (~72k allocs on this probe) is therefore retired: steady-state GC
 * execution must not allocate at all.
 */

#include "sim/alloc_counter.hh"

#include <gtest/gtest.h>

#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

TEST(GcAlloc, SteadyStateGcExecutionIsAllocationFree)
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;
    cfg.ftl.overprovision = 0.15;

    Ssd ssd(cfg);
    ssd.preconditionForGc(); // 95% full, 30% churned
    const std::uint64_t span = static_cast<std::uint64_t>(
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes) * 0.6);

    // Warmup: a write-dominated random stream (same shape as the
    // Figure 17 stress sweep) drives sustained GC and establishes
    // every high-water mark — request arena, batch-slot table,
    // migration scratch, event pool, controller queues.
    const Trace warmup =
        fixedSizeStream(400, 16384, 0.9, span, 5 * kMicrosecond, 61);
    ssd.replay(warmup);
    ssd.run();
    const MetricsSnapshot warm = ssd.metrics();
    ASSERT_GT(warm.gcBatches, 0u);
    ASSERT_GT(warm.pagesMigrated, 0u);

    // Measured phase: the same stream again, shifted in time —
    // identical backlog and GC-pressure shape, so warmup established
    // exactly the high-water marks this run needs. Scheduling
    // (replay) happens outside the window; the window covers the
    // entire simulation run, GC collection and execution included.
    Trace probe =
        fixedSizeStream(400, 16384, 0.9, span, 5 * kMicrosecond, 61);
    const Tick start = ssd.events().now();
    for (auto &rec : probe)
        rec.arrival += start;
    ssd.replay(probe);

    const AllocWindow window;
    ssd.run();
    const std::uint64_t allocs = window.count();
    const MetricsSnapshot m = ssd.metrics();

    // The measured window must actually exercise GC, otherwise the
    // zero-allocation assertion pins nothing.
    ASSERT_GT(m.gcBatches, warm.gcBatches);
    ASSERT_GT(m.pagesMigrated, warm.pagesMigrated);

    // The ratchet, fully tightened: the GC execution path shares the
    // allocation-free discipline of the host-I/O path.
    EXPECT_EQ(allocs, 0u)
        << "steady-state GC run allocated " << allocs
        << " times; the request-arena path regressed";
}

} // namespace
} // namespace spk
