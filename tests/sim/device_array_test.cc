/**
 * @file
 * DeviceArray determinism and aggregation.
 *
 * The sharded driver must produce per-device MetricsSnapshots that
 * are bit-identical to running the same jobs sequentially, for any
 * thread count (the claim order may differ; the results may not).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <random>

#include "sim/cell_cache.hh"
#include "sim/device_array.hh"
#include "sim/estimator.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

std::vector<DeviceJob>
makeJobs(unsigned devices, SchedulerKind kind = SchedulerKind::SPK3)
{
    std::vector<DeviceJob> jobs;
    for (unsigned d = 0; d < devices; ++d) {
        DeviceJob job;
        job.cfg = SsdConfig::withChips(8);
        job.cfg.geometry.blocksPerPlane = 16;
        job.cfg.geometry.pagesPerBlock = 32;
        job.cfg.scheduler = kind;
        job.cfg.seed = 7000 + d;

        SyntheticConfig wl;
        wl.numIos = 150;
        wl.spanBytes = job.cfg.geometry.totalPages() *
                       job.cfg.geometry.pageSizeBytes / 2;
        wl.seed = 31 + d;
        job.trace = generateSynthetic(wl);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Claim cells in job-list order. */
const CellOrderPolicy kJobListOrder = [](const std::vector<DeviceJob> &jobs) {
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    return order;
};

TEST(DeviceArray, ShardedMatchesSequentialBitForBit)
{
    const auto jobs = makeJobs(8);

    DeviceArray sequential(jobs);
    sequential.run(1);

    for (const unsigned threads : {2u, 4u, 8u}) {
        DeviceArray sharded(jobs);
        sharded.run(threads);
        ASSERT_EQ(sharded.results().size(), 8u);
        for (std::size_t d = 0; d < 8; ++d) {
            EXPECT_EQ(sequential.results()[d], sharded.results()[d])
                << "device " << d << " diverged at " << threads
                << " threads";
        }
    }
}

TEST(DeviceArray, RepeatedShardedRunsAreStable)
{
    const auto jobs = makeJobs(4);
    DeviceArray first(jobs);
    first.run(4);
    DeviceArray second(jobs);
    second.run(4);
    for (std::size_t d = 0; d < 4; ++d)
        EXPECT_EQ(first.results()[d], second.results()[d]);
}

TEST(DeviceArray, DistinctSeedsProduceDistinctDevices)
{
    // Guard against accidentally sharing a workload or RNG stream:
    // different seeds must not collapse to identical snapshots.
    const auto jobs = makeJobs(3);
    DeviceArray array(jobs);
    array.run(3);
    EXPECT_FALSE(array.results()[0] == array.results()[1]);
    EXPECT_FALSE(array.results()[1] == array.results()[2]);
}

TEST(DeviceArray, ThreadCountClampsToJobCount)
{
    const auto jobs = makeJobs(2);
    DeviceArray reference(jobs);
    reference.run(1);
    DeviceArray oversubscribed(jobs);
    oversubscribed.run(64); // clamped to 2 workers
    for (std::size_t d = 0; d < 2; ++d)
        EXPECT_EQ(reference.results()[d], oversubscribed.results()[d]);
}

TEST(DeviceArray, AggregateSumsCountersAndWeightsMeans)
{
    const auto jobs = makeJobs(4);
    DeviceArray array(jobs);
    array.run(4);
    const auto fleet = DeviceArray::aggregate(array.results());

    std::uint64_t ios = 0;
    std::uint64_t bytes = 0;
    std::uint64_t txns = 0;
    double bw = 0.0;
    Tick makespan = 0;
    Tick max_lat = 0;
    for (const auto &m : array.results()) {
        ios += m.iosCompleted;
        bytes += m.bytesRead + m.bytesWritten;
        txns += m.transactions;
        bw += m.bandwidthKBps;
        makespan = std::max(makespan, m.makespan);
        max_lat = std::max(max_lat, m.maxLatencyNs);
    }
    EXPECT_EQ(fleet.iosCompleted, ios);
    EXPECT_EQ(fleet.bytesRead + fleet.bytesWritten, bytes);
    EXPECT_EQ(fleet.transactions, txns);
    EXPECT_DOUBLE_EQ(fleet.bandwidthKBps, bw);
    EXPECT_EQ(fleet.makespan, makespan);
    EXPECT_EQ(fleet.maxLatencyNs, max_lat);
    EXPECT_EQ(fleet.scheduler, "SPK3");

    // Weighted means stay inside the per-device envelope.
    double lo = 1e300;
    double hi = 0.0;
    for (const auto &m : array.results()) {
        lo = std::min(lo, m.avgLatencyNs);
        hi = std::max(hi, m.avgLatencyNs);
    }
    EXPECT_GE(fleet.avgLatencyNs, lo);
    EXPECT_LE(fleet.avgLatencyNs, hi);
}

TEST(DeviceArray, MixedSchedulersReportMixed)
{
    auto jobs = makeJobs(2);
    jobs[1].cfg.scheduler = SchedulerKind::VAS;
    DeviceArray array(std::move(jobs));
    array.run(2);
    EXPECT_EQ(DeviceArray::aggregate(array.results()).scheduler,
              "mixed");
}

TEST(DeviceArray, ZeroJobsRunsToEmptyResults)
{
    // A fully filtered-out sweep expands to zero jobs; that must be
    // a no-op, not an error.
    DeviceArray array(std::vector<DeviceJob>{});
    EXPECT_TRUE(array.run(4).empty());
    EXPECT_EQ(array.completedCount(), 0u);
    EXPECT_TRUE(DeviceArray::aggregate(array.results()) ==
                MetricsSnapshot{});
}

TEST(DeviceArray, ProgressCallbackFiresOncePerDevice)
{
    const auto jobs = makeJobs(6);
    DeviceArray reference(jobs);
    reference.run(1);

    DeviceArray array(jobs);
    std::vector<int> seen(jobs.size(), 0);
    std::size_t calls = 0;
    DeviceArrayHooks hooks;
    // DeviceArray serializes the callback, so plain counters suffice.
    // Compare against an independent sequential run: the callback
    // must hand over the fully-written snapshot of its device.
    hooks.onDeviceDone = [&](std::size_t index,
                             const MetricsSnapshot &m) {
        ++calls;
        ++seen[index];
        EXPECT_TRUE(m == reference.results()[index])
            << "callback for device " << index
            << " saw a snapshot differing from the sequential run";
    };
    array.run(3, hooks);

    EXPECT_EQ(calls, jobs.size());
    for (std::size_t d = 0; d < jobs.size(); ++d) {
        EXPECT_EQ(seen[d], 1) << "device " << d;
        EXPECT_TRUE(array.completed(d));
    }
    EXPECT_EQ(array.completedCount(), jobs.size());
}

TEST(DeviceArray, CancellationKeepsCompletedResultsValid)
{
    const auto jobs = makeJobs(8);
    DeviceArray reference(jobs);
    reference.run(1);

    constexpr unsigned kThreads = 2;
    constexpr std::size_t kStopAfter = 3;
    std::atomic<bool> stop{false};
    std::size_t done = 0;
    DeviceArrayHooks hooks;
    hooks.stop = &stop;
    hooks.onDeviceDone = [&](std::size_t, const MetricsSnapshot &) {
        if (++done == kStopAfter)
            stop.store(true, std::memory_order_relaxed);
    };

    DeviceArray cancelled(jobs);
    cancelled.run(kThreads, hooks);

    // Workers stop claiming once the flag is set; devices already in
    // flight still finish.
    EXPECT_GE(cancelled.completedCount(), kStopAfter);
    EXPECT_LE(cancelled.completedCount(), kStopAfter + kThreads - 1);
    EXPECT_LT(cancelled.completedCount(), jobs.size());

    for (std::size_t d = 0; d < jobs.size(); ++d) {
        if (cancelled.completed(d)) {
            EXPECT_EQ(cancelled.results()[d], reference.results()[d])
                << "completed device " << d
                << " diverged under cancellation";
        } else {
            EXPECT_TRUE(cancelled.results()[d] == MetricsSnapshot{})
                << "uncompleted device " << d
                << " should hold the default snapshot";
        }
    }
}

TEST(DeviceArray, CancellationBeforeStartRunsNothing)
{
    const auto jobs = makeJobs(2);
    std::atomic<bool> stop{true};
    DeviceArrayHooks hooks;
    hooks.stop = &stop;
    DeviceArray array(jobs);
    array.run(2, hooks);
    EXPECT_EQ(array.completedCount(), 0u);
}

TEST(DeviceArray, RandomShuffledOrdersAreBitIdentical)
{
    // The cell-order policy redirects which cell a worker claims
    // next; results are indexed by cell, so ANY permutation must be
    // bit-identical to job-list order. Exercise several seeded
    // random shuffles at several thread counts.
    auto jobs = makeJobs(6);
    jobs[1].fidelity = Fidelity::Fast;
    jobs[4].fidelity = Fidelity::Fast;

    DeviceArrayHooks job_list;
    job_list.order = kJobListOrder;
    DeviceArray reference(jobs);
    reference.run(1, job_list);

    std::mt19937_64 rng(1234);
    for (const unsigned threads : {1u, 2u, 4u}) {
        std::vector<std::size_t> perm(jobs.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::shuffle(perm.begin(), perm.end(), rng);

        DeviceArrayHooks hooks;
        hooks.order = [perm](const std::vector<DeviceJob> &) {
            return perm;
        };
        DeviceArray shuffled(jobs);
        shuffled.run(threads, hooks);
        ASSERT_EQ(shuffled.results().size(), jobs.size());
        for (std::size_t d = 0; d < jobs.size(); ++d) {
            EXPECT_EQ(reference.results()[d], shuffled.results()[d])
                << "cell " << d << " diverged under a shuffled "
                << "claim order at " << threads << " threads";
        }
    }
}

TEST(DeviceArray, CostGuidedDefaultMatchesExpansionOrderResults)
{
    // The default policy (longest-job-first by the analytic
    // estimator) must also be results-invariant, and its cost model
    // must rank a Fast cell below an otherwise-identical Exact cell.
    auto jobs = makeJobs(4);
    jobs[2].fidelity = Fidelity::Fast;

    DeviceArrayHooks job_list;
    job_list.order = kJobListOrder;
    DeviceArray reference(jobs);
    reference.run(1, job_list);

    DeviceArray cost_guided(jobs);
    cost_guided.run(2); // hooks default to costGuidedOrder()
    for (std::size_t d = 0; d < jobs.size(); ++d)
        EXPECT_EQ(reference.results()[d], cost_guided.results()[d]);

    const auto order = costGuidedOrder()(jobs);
    ASSERT_EQ(order.size(), jobs.size());
    // The lone Fast cell is the cheapest, so it is claimed last.
    EXPECT_EQ(order.back(), 2u);

    DeviceJob heavy = jobs[0];
    heavy.preconditionGc = true;
    EXPECT_GT(estimateJobCost(heavy), estimateJobCost(jobs[0]));
}

TEST(DeviceArray, NonPermutationOrderPolicyDies)
{
    const auto jobs = makeJobs(2);
    DeviceArrayHooks short_hooks;
    short_hooks.order = [](const std::vector<DeviceJob> &) {
        return std::vector<std::size_t>{0};
    };
    DeviceArray a(jobs);
    EXPECT_DEATH(a.run(1, short_hooks), "cell-order policy");

    DeviceArrayHooks dup_hooks;
    dup_hooks.order = [](const std::vector<DeviceJob> &) {
        return std::vector<std::size_t>{1, 1};
    };
    DeviceArray b(jobs);
    EXPECT_DEATH(b.run(1, dup_hooks), "not a permutation");
}

TEST(DeviceArray, RunRecordsPerCellAndPerWorkerSeconds)
{
    const auto jobs = makeJobs(3);
    DeviceArray array(jobs);
    array.run(2);
    ASSERT_EQ(array.cellSeconds().size(), jobs.size());
    double total = 0.0;
    for (std::size_t d = 0; d < jobs.size(); ++d) {
        EXPECT_GT(array.cellSeconds()[d], 0.0) << "cell " << d;
        total += array.cellSeconds()[d];
    }
    ASSERT_EQ(array.threadBusySeconds().size(), 2u);
    double busy = 0.0;
    for (const double b : array.threadBusySeconds())
        busy += b;
    // Worker busy time is exactly the sum of the cells it ran.
    EXPECT_NEAR(busy, total, 1e-9);
    EXPECT_GT(array.runWallSeconds(), 0.0);
}

TEST(DeviceArray, CapturesIoResultsOnRequest)
{
    auto jobs = makeJobs(2);
    jobs[0].captureIoResults = true;
    DeviceArray array(std::move(jobs));
    array.run(2);
    const auto &series = array.ioResults(0);
    ASSERT_EQ(series.size(), array.results()[0].iosCompleted);
    for (const auto &io : series)
        EXPECT_GE(io.completed, io.arrival);
    EXPECT_TRUE(array.ioResults(1).empty());
}

/** Jobs for the shared-image tests, with the image each cell should
 *  share (-1: none — not preconditioned, fast, or alone). */
struct ImageJobs
{
    std::vector<DeviceJob> jobs;
    std::vector<int> image;
};

ImageJobs
makeImageJobs()
{
    ImageJobs out;
    const auto add = [&out](SchedulerKind kind, std::uint64_t seed,
                            bool parity, bool precondition,
                            Fidelity fidelity, std::uint64_t trace_seed,
                            int image) {
        DeviceJob job;
        job.cfg = SsdConfig::withChips(8);
        job.cfg.geometry.blocksPerPlane = 16;
        job.cfg.geometry.pagesPerBlock = 32;
        job.cfg.ftl.overprovision = 0.15;
        job.cfg.scheduler = kind;
        job.cfg.seed = seed;
        job.cfg.parity.enabled = parity;
        job.preconditionGc = precondition;
        job.fidelity = fidelity;
        const std::uint64_t span = job.cfg.geometry.totalPages() *
                                   job.cfg.geometry.pageSizeBytes / 2;
        job.trace = fixedSizeStream(60, 16384, 0.9, span,
                                    5 * kMicrosecond, trace_seed);
        out.jobs.push_back(std::move(job));
        out.image.push_back(image);
    };
    using K = SchedulerKind;
    const Fidelity exact = Fidelity::Exact;
    // Interleaved so that no policy keeps an image's cells together
    // by accident.
    add(K::VAS, 1, false, true, exact, 11, 0);
    add(K::SPK3, 1, true, true, exact, 12, 1);
    add(K::PAS, 3, false, false, exact, 13, -1);
    add(K::SPK1, 1, false, true, exact, 14, 0);
    add(K::SPK2, 2, false, true, exact, 15, 2); // another seed
    add(K::VAS, 1, true, true, exact, 16, 1);   // parity splits it
    add(K::SPK3, 4, false, true, exact, 17, -1); // an image of one
    add(K::SPK3, 1, false, true, exact, 18, 0);
    add(K::VAS, 2, false, true, exact, 19, 2);
    add(K::SPK1, 1, false, true, Fidelity::Fast, 20, -1);
    add(K::SPK2, 3, false, false, exact, 21, -1);
    add(K::PAS, 1, false, true, exact, 22, 0);
    add(K::SPK1, 1, true, true, exact, 23, 1);
    return out;
}

/** Each cell simulated on its own, preconditioning its own device. */
std::vector<MetricsSnapshot>
directReference(const std::vector<DeviceJob> &jobs)
{
    std::vector<MetricsSnapshot> out;
    for (const DeviceJob &job : jobs) {
        if (job.fidelity == Fidelity::Fast) {
            out.push_back(estimateDevice(job));
            continue;
        }
        Ssd ssd(job.cfg);
        if (job.preconditionGc)
            ssd.preconditionForGc();
        ssd.replay(job.trace);
        ssd.run();
        out.push_back(ssd.metrics());
    }
    return out;
}

/** The claim order run() must derive from @p order: each image's
 *  cells pulled up to its first member, the rest unmoved. */
std::vector<std::size_t>
expectedClaimOrder(const std::vector<std::size_t> &order,
                   const std::vector<int> &image)
{
    std::vector<std::size_t> out;
    std::vector<bool> placed(order.size(), false);
    for (const std::size_t i : order) {
        if (image[i] < 0) {
            out.push_back(i);
            continue;
        }
        if (placed[i])
            continue;
        for (const std::size_t j : order) {
            if (image[j] == image[i]) {
                out.push_back(j);
                placed[j] = true;
            }
        }
    }
    return out;
}

TEST(DeviceArrayImages, SharedImagesMatchDirectPreconditioning)
{
    const ImageJobs set = makeImageJobs();
    const std::vector<MetricsSnapshot> reference =
        directReference(set.jobs);

    const std::string dir = "cell_cache_test_device_array_images";
    std::filesystem::remove_all(dir);
    std::mt19937_64 rng(77);
    for (const unsigned threads : {1u, 4u}) {
        for (const bool cached : {false, true}) {
            std::vector<std::size_t> perm(set.jobs.size());
            std::iota(perm.begin(), perm.end(), std::size_t{0});
            std::shuffle(perm.begin(), perm.end(), rng);

            // Warm cells: the first cell of image 0 and the last of
            // image 1 hit, so hits and misses mix in one group.
            std::filesystem::remove_all(dir);
            CellCache cache(dir);
            if (cached) {
                cache.store(set.jobs[0], reference[0]);
                cache.store(set.jobs[12], reference[12]);
            }

            std::vector<std::size_t> done;
            DeviceArrayHooks hooks;
            hooks.order = [perm](const std::vector<DeviceJob> &) {
                return perm;
            };
            hooks.cache = cached ? &cache : nullptr;
            hooks.onDeviceDone = [&done](std::size_t i,
                                         const MetricsSnapshot &) {
                done.push_back(i);
            };
            DeviceArray array(set.jobs);
            array.run(threads, hooks);
            for (std::size_t d = 0; d < set.jobs.size(); ++d) {
                EXPECT_EQ(array.results()[d], reference[d])
                    << "cell " << d << " at " << threads << " threads"
                    << (cached ? ", warm cache" : "");
            }
            if (cached) {
                EXPECT_EQ(cache.hits(), 2u);
            }
            if (threads == 1) {
                EXPECT_EQ(done, expectedClaimOrder(perm, set.image));
            }
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(DeviceArrayImages, CancelledRunKeepsCompletedCellsExact)
{
    const ImageJobs set = makeImageJobs();
    const std::vector<MetricsSnapshot> reference =
        directReference(set.jobs);

    for (const unsigned threads : {1u, 4u}) {
        // Stop right after the first cell: its image, just built, has
        // users left that never run.
        std::atomic<bool> stop{false};
        DeviceArrayHooks hooks;
        hooks.order = kJobListOrder;
        hooks.stop = &stop;
        hooks.onDeviceDone = [&stop](std::size_t,
                                     const MetricsSnapshot &) {
            stop.store(true, std::memory_order_relaxed);
        };
        DeviceArray array(set.jobs);
        array.run(threads, hooks);
        EXPECT_GE(array.completedCount(), 1u);
        EXPECT_LT(array.completedCount(), set.jobs.size());
        for (std::size_t d = 0; d < set.jobs.size(); ++d) {
            if (array.completed(d)) {
                EXPECT_EQ(array.results()[d], reference[d])
                    << "cell " << d << " at " << threads << " threads";
            }
        }
    }
}

} // namespace
} // namespace spk
