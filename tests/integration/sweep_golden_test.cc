/**
 * @file
 * Golden sweep regression: a miniature paper-exhibit campaign
 * (2 traces x 5 schedulers x 2 seeds on a small geometry) run through
 * SweepRunner, with every per-cell MetricsSnapshot digest and the
 * fleet aggregate pinned, and the sharded path asserted bit-identical
 * to sequential. This puts the machinery behind every bench_exhibit
 * figure under tier-1 guard: a scheduler regression that would
 * silently bend a figure shows up here as a digest mismatch. A second,
 * reliability campaign drives every snapshot field off its default,
 * so the digests pin the fault, parity, soft-decode and stream
 * counters too. A third, fast campaign pins the estimator's cells
 * (Fidelity::Fast) the same way.
 *
 * To re-pin after an intentional behavior change, run with
 * SPK_SWEEP_GOLDEN_REGEN=1: the pinned test prints a ready-to-paste
 * table and fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <sstream>

#include "sim/cell_cache.hh"
#include "sim/sweep.hh"
#include "workload/paper_traces.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

const std::vector<std::string> kTraces = {"hm0", "msnfs1"};
const std::vector<std::uint64_t> kSeeds = {101, 102};
constexpr std::uint64_t kIosPerCell = 200;

SweepAxes
goldenAxes()
{
    SweepAxes axes;
    axes.traces = kTraces;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK1, SchedulerKind::SPK2,
                       SchedulerKind::SPK3};
    axes.seeds = kSeeds;
    return axes;
}

SsdConfig
goldenConfig(SchedulerKind kind, std::uint64_t seed)
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<SweepRunner>
makeRunner()
{
    return std::make_unique<SweepRunner>(
        goldenAxes(), [](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = goldenConfig(p.scheduler, p.seed);
            const std::uint64_t span =
                job.cfg.geometry.totalPages() *
                job.cfg.geometry.pageSizeBytes / 2;
            job.trace =
                generatePaperTrace(p.trace, kIosPerCell, span, p.seed);
            return job;
        });
}

/** FNV-1a over the cell-cache payload, which holds every snapshot
 *  field (doubles as exact bit patterns), so the digest pins results
 *  to the bit. */
std::uint64_t
digest(const MetricsSnapshot &m)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : CellCache::serialize(m)) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
bool
isDefault(const T &v)
{
    return v == T{};
}

/**
 * The reliability campaign: two host streams on a GC-preconditioned
 * 16-chip device with every fault class and soft decode on. Low
 * endurance retires worn blocks, and four dies per chip with a short
 * flush window leave stripes to close partially. The variants:
 *   protected    die parity on
 *   rebuild      parity on; a die fails mid-run and is rebuilt online
 *   unprotected  parity off; the same die failure stays degraded and
 *                fails I/Os
 */
SweepAxes
reliabilityAxes()
{
    SweepAxes axes;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK3};
    axes.seeds = {7};
    axes.variants = {"protected", "rebuild", "unprotected"};
    return axes;
}

DeviceJob
reliabilityJob(const SweepPoint &p)
{
    DeviceJob job;
    job.cfg = SsdConfig::withChips(16);
    job.cfg.geometry.diesPerChip = 4;
    job.cfg.geometry.planesPerDie = 2;
    job.cfg.geometry.blocksPerPlane = 32;
    job.cfg.geometry.pagesPerBlock = 32;
    job.cfg.ftl.endurance = 10;
    job.cfg.scheduler = p.scheduler;
    job.cfg.seed = p.seed;

    FaultConfig &f = job.cfg.fault;
    f.readTransientRate = 0.05;
    f.retryStepFailRate = 0.7;
    f.retryLadderSteps = kMaxRetrySteps;
    f.readHardRate = 0.002;
    f.programFailRate = 0.001;
    f.eraseFailRate = 0.002;
    f.softDecodeEnabled = true;
    f.softDecodeLatency = 300 * kMicrosecond;
    f.softDecodeFailRate = 0.2;
    if (p.variant != "protected") {
        f.dieFailTick = 2 * kMillisecond;
        f.dieFailChip = 1;
        f.dieFailDie = 1;
    }
    job.cfg.parity.enabled = p.variant != "unprotected";
    job.cfg.parity.flushWindow = 5 * kMicrosecond;
    job.cfg.parity.rebuildPageInterval = 5 * kMicrosecond;
    job.preconditionGc = true;

    const std::uint64_t span = job.cfg.geometry.totalPages() *
                               job.cfg.geometry.pageSizeBytes / 2;
    for (std::uint64_t s = 0; s < 2; ++s) {
        HostStreamConfig stream;
        stream.name = s == 0 ? "reads" : "writes";
        stream.iodepth = s == 0 ? 8 : 4;
        stream.weight = s == 0 ? 1 : 2;
        stream.trace = fixedSizeStream(300, 8192, s == 0 ? 0.2 : 0.9,
                                       span, 2 * kMicrosecond,
                                       p.seed * 10 + s);
        job.streams.push_back(std::move(stream));
    }
    return job;
}

/**
 * The fast campaign: estimator cells whose inputs take each branch of
 * its record flattening and latency quantiles. The variants:
 *   sorted   a synthetic trace, arrivals in order
 *   swapped  the same trace with two adjacent arrivals swapped, so
 *            the records must be sorted back into arrival order
 *   streams  two interleaved host streams, each with its own slice
 *   one      the trace's first record: every quantile reads index 0
 *   three    its first three: p50, p95 and p99 all read index 1
 */
SweepAxes
fastAxes()
{
    SweepAxes axes;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK3};
    axes.seeds = {9};
    axes.variants = {"sorted", "swapped", "streams", "one", "three"};
    axes.fidelities = {Fidelity::Fast};
    return axes;
}

/** The swapped variant exchanges the arrivals of records
 *  kSwapAt and kSwapAt + 1. */
constexpr std::size_t kSwapAt = 98;

DeviceJob
fastJob(const SweepPoint &p)
{
    DeviceJob job;
    job.cfg = SsdConfig::withChips(64);
    job.cfg.scheduler = p.scheduler;
    job.cfg.seed = p.seed;
    const std::uint64_t span = job.cfg.geometry.totalPages() *
                               job.cfg.geometry.pageSizeBytes / 2;
    if (p.variant == "streams") {
        for (std::uint64_t s = 0; s < 2; ++s) {
            HostStreamConfig stream;
            stream.name = s == 0 ? "reads" : "writes";
            stream.trace = fixedSizeStream(
                500, s == 0 ? 4096 : 65536, s == 0 ? 0.1 : 0.8, span,
                s == 0 ? 3 * kMicrosecond : 7 * kMicrosecond,
                p.seed * 10 + s);
            job.streams.push_back(std::move(stream));
        }
        return job;
    }
    SyntheticConfig wl;
    wl.numIos = 2000;
    wl.readSizes = {{4096, 0.6}, {65536, 0.4}};
    wl.writeSizes = {{16384, 0.5}, {262144, 0.5}};
    wl.meanInterarrival = 10 * kMicrosecond;
    wl.spanBytes = span;
    wl.seed = p.seed;
    Trace trace = generateSynthetic(wl);
    if (p.variant == "swapped")
        std::swap(trace[kSwapAt].arrival, trace[kSwapAt + 1].arrival);
    else if (p.variant == "one")
        trace.resize(1);
    else if (p.variant == "three")
        trace.resize(3);
    job.trace = std::move(trace);
    return job;
}

/** The reliability campaign, run once and shared by its tests. */
const SweepRunner &
reliabilitySweep()
{
    static const std::unique_ptr<SweepRunner> sweep = [] {
        auto runner =
            std::make_unique<SweepRunner>(reliabilityAxes(), reliabilityJob);
        runner->run(4);
        return runner;
    }();
    return *sweep;
}

TEST(SweepGolden, ShardedMatchesSequentialBitIdentical)
{
    auto sequential = makeRunner();
    sequential->run(1);

    for (const unsigned threads : {2u, 4u}) {
        auto sharded = makeRunner();
        sharded->run(threads);
        ASSERT_EQ(sharded->array().results().size(),
                  sequential->array().results().size());
        for (const auto &p : sequential->points()) {
            EXPECT_EQ(sequential->array().results()[p.index],
                      sharded->array().results()[p.index])
                << p.trace << "/" << schedulerKindName(p.scheduler)
                << "/seed=" << p.seed << " diverged at " << threads
                << " threads";
        }
        EXPECT_TRUE(
            DeviceArray::aggregate(sequential->array().results()) ==
            DeviceArray::aggregate(sharded->array().results()));
    }
}

/**
 * Pinned per-cell digests. Any drift means scheduling DECISIONS
 * changed, not just their cost; update only with a change that is
 * supposed to alter simulated behavior, via SPK_SWEEP_GOLDEN_REGEN=1.
 * A new snapshot field changes every digest too (it changes the
 * payload); re-pin with the same kMagic bump the cache needs.
 */
TEST(SweepGolden, PerCellDigestsArePinned)
{
    struct PinnedCell
    {
        const char *trace;
        SchedulerKind kind;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const PinnedCell expected[] = {
        // clang-format off
        {"hm0", SchedulerKind::VAS, 101, 0x7f6b505871e5f188ull},
        {"hm0", SchedulerKind::VAS, 102, 0x73617b1efbb1bb37ull},
        {"hm0", SchedulerKind::PAS, 101, 0x830743f63436db23ull},
        {"hm0", SchedulerKind::PAS, 102, 0xdbf525b565dc42c3ull},
        {"hm0", SchedulerKind::SPK1, 101, 0xc9db4f78fccc9115ull},
        {"hm0", SchedulerKind::SPK1, 102, 0x3ca1e7f04fd51417ull},
        {"hm0", SchedulerKind::SPK2, 101, 0x252d098295f4c32ull},
        {"hm0", SchedulerKind::SPK2, 102, 0x970c900363cb3315ull},
        {"hm0", SchedulerKind::SPK3, 101, 0xab46b4e0595dd930ull},
        {"hm0", SchedulerKind::SPK3, 102, 0x358c3b8af094d312ull},
        {"msnfs1", SchedulerKind::VAS, 101, 0xeaf0487dd0ae5d14ull},
        {"msnfs1", SchedulerKind::VAS, 102, 0x6724c4dcb89e83ddull},
        {"msnfs1", SchedulerKind::PAS, 101, 0x7fd931f693128d46ull},
        {"msnfs1", SchedulerKind::PAS, 102, 0x74ceca41b5a7b2e9ull},
        {"msnfs1", SchedulerKind::SPK1, 101, 0x9da90dfeffe1ae32ull},
        {"msnfs1", SchedulerKind::SPK1, 102, 0xded88368389b92fbull},
        {"msnfs1", SchedulerKind::SPK2, 101, 0x40029d079f811c3bull},
        {"msnfs1", SchedulerKind::SPK2, 102, 0xcf143322de3b17d2ull},
        {"msnfs1", SchedulerKind::SPK3, 101, 0x93dbc57dad79aa72ull},
        {"msnfs1", SchedulerKind::SPK3, 102, 0x5a09de4a1887243aull},
        // clang-format on
    };

    auto sweep = makeRunner();
    sweep->run(4);

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        for (const auto &trace : kTraces) {
            for (const auto kind : goldenAxes().schedulers) {
                for (const auto seed : kSeeds) {
                    std::printf(
                        "        {\"%s\", SchedulerKind::%s, %llu, "
                        "0x%llxull},\n",
                        trace.c_str(), schedulerKindName(kind),
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(
                            digest(sweep->at({.trace = trace,
                                              .scheduler = kind,
                                              .seed = seed}))));
                }
            }
        }
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the table above";
    }

    for (const auto &cell : expected) {
        EXPECT_EQ(digest(sweep->at({.trace = cell.trace,
                                    .scheduler = cell.kind,
                                    .seed = cell.seed})),
                  cell.digest)
            << cell.trace << "/" << schedulerKindName(cell.kind)
            << "/seed=" << cell.seed;
    }
}

/** The fleet aggregate of the mini campaign: its digest, plus the
 *  readable integer counters. */
TEST(SweepGolden, FleetAggregateIsPinned)
{
    auto sweep = makeRunner();
    sweep->run(4);
    const MetricsSnapshot fleet =
        DeviceArray::aggregate(sweep->array().results());

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        std::printf("digest=0x%llxull ios=%llu bytesRead=%llu "
                    "bytesWritten=%llu "
                    "txns=%llu served=%llu makespan=%llu stale=%llu "
                    "gc=%llu\n",
                    static_cast<unsigned long long>(digest(fleet)),
                    static_cast<unsigned long long>(fleet.iosCompleted),
                    static_cast<unsigned long long>(fleet.bytesRead),
                    static_cast<unsigned long long>(fleet.bytesWritten),
                    static_cast<unsigned long long>(fleet.transactions),
                    static_cast<unsigned long long>(
                        fleet.requestsServed),
                    static_cast<unsigned long long>(fleet.makespan),
                    static_cast<unsigned long long>(fleet.staleRetries),
                    static_cast<unsigned long long>(fleet.gcBatches));
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the line above";
    }

    EXPECT_EQ(digest(fleet), 0x63e5be844eb5ef7aull);
    EXPECT_EQ(fleet.scheduler, "mixed");
    EXPECT_EQ(fleet.iosCompleted, 4000ull);
    EXPECT_EQ(fleet.bytesRead, 21739520ull);
    EXPECT_EQ(fleet.bytesWritten, 30228480ull);
    EXPECT_EQ(fleet.transactions, 16466ull);
    EXPECT_EQ(fleet.requestsServed, 25375ull);
    EXPECT_EQ(fleet.makespan, 141089953ull);
    EXPECT_EQ(fleet.staleRetries, 0ull);
}

/** The reliability campaign's per-cell and fleet digests. */
TEST(SweepGolden, ReliabilityCampaignIsPinned)
{
    struct PinnedCell
    {
        SchedulerKind kind;
        const char *variant;
        std::uint64_t digest;
    };
    const PinnedCell expected[] = {
        // clang-format off
        {SchedulerKind::VAS, "protected", 0x8422fbe402e81d93ull},
        {SchedulerKind::VAS, "rebuild", 0x8b2bbce0aff533a7ull},
        {SchedulerKind::VAS, "unprotected", 0x28cd4d90c7e97fc4ull},
        {SchedulerKind::SPK3, "protected", 0x86cf043c825c35ebull},
        {SchedulerKind::SPK3, "rebuild", 0x458fe452de71f5e9ull},
        {SchedulerKind::SPK3, "unprotected", 0x7c8272f6937fd32ull},
        // clang-format on
    };
    const std::uint64_t expected_fleet = 0x69abe9e27cd13495ull;

    const SweepRunner &sweep = reliabilitySweep();
    const std::uint64_t seed = reliabilityAxes().seeds.front();
    const std::uint64_t fleet =
        digest(DeviceArray::aggregate(sweep.array().results()));

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        for (const auto kind : reliabilityAxes().schedulers) {
            for (const auto &variant : reliabilityAxes().variants) {
                std::printf(
                    "        {SchedulerKind::%s, \"%s\", 0x%llxull},\n",
                    schedulerKindName(kind), variant.c_str(),
                    static_cast<unsigned long long>(
                        digest(sweep.at({.scheduler = kind,
                                         .seed = seed,
                                         .variant = variant}))));
            }
        }
        std::printf("fleet 0x%llxull\n",
                    static_cast<unsigned long long>(fleet));
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the table above";
    }

    for (const auto &cell : expected) {
        EXPECT_EQ(digest(sweep.at({.scheduler = cell.kind,
                                   .seed = seed,
                                   .variant = cell.variant})),
                  cell.digest)
            << schedulerKindName(cell.kind) << "/" << cell.variant;
    }
    EXPECT_EQ(fleet, expected_fleet);
}

/** A field that is zero in every cell would escape the digests'
 *  guard, so the campaign must move every one of them, in the
 *  snapshot and in each stream slice. */
TEST(SweepGolden, ReliabilityCampaignReachesEveryField)
{
    const SweepRunner &sweep = reliabilitySweep();
    const auto reached = [&sweep](auto field) {
        for (const auto &m : sweep.array().results()) {
            if (!isDefault(m.*field))
                return true;
        }
        return false;
    };
    std::size_t index = 0;
    MetricsSnapshot::forEachField(
        [&](auto field, const char *columns, Merge) {
            EXPECT_TRUE(reached(field))
                << "MetricsSnapshot field #" << index << " (" << columns
                << ") is at its default in every cell";
            ++index;
        });

    for (const auto &m : sweep.array().results()) {
        ASSERT_EQ(m.streams.size(), 2u);
        for (const StreamMetrics &s : m.streams) {
            StreamMetrics::forEachField(
                [&](auto field, const char *columns, Merge) {
                    EXPECT_FALSE(isDefault(s.*field))
                        << "stream " << s.name << ": " << columns
                        << " is at its default";
                });
        }
    }
}

/** The fast campaign's per-cell digests. The estimator has no
 *  scheduling decisions, so a digest change here means its arithmetic
 *  or its record order changed. */
TEST(SweepGolden, FastCampaignIsPinned)
{
    struct PinnedCell
    {
        SchedulerKind kind;
        const char *variant;
        std::uint64_t digest;
    };
    const PinnedCell expected[] = {
        // clang-format off
        {SchedulerKind::VAS, "sorted", 0xc279b901230aa5d2ull},
        {SchedulerKind::VAS, "swapped", 0x5724324f0e14c796ull},
        {SchedulerKind::VAS, "streams", 0x3e301ee7c62aadadull},
        {SchedulerKind::VAS, "one", 0x730da67b2b2a97cfull},
        {SchedulerKind::VAS, "three", 0x5a7740825327bfa3ull},
        {SchedulerKind::SPK3, "sorted", 0x24553a8d7cced15cull},
        {SchedulerKind::SPK3, "swapped", 0xd227351de983e4ffull},
        {SchedulerKind::SPK3, "streams", 0x8602564e998561b6ull},
        {SchedulerKind::SPK3, "one", 0x8e6307c5cc98196bull},
        {SchedulerKind::SPK3, "three", 0x4acac924795cd238ull},
        // clang-format on
    };

    // Each variant reaches the branch it is named for.
    const std::uint64_t seed = fastAxes().seeds.front();
    const DeviceJob sorted = fastJob({.seed = seed, .variant = "sorted"});
    ASSERT_TRUE(std::is_sorted(
        sorted.trace.begin(), sorted.trace.end(),
        [](const TraceRecord &a, const TraceRecord &b) {
            return a.arrival < b.arrival;
        }));
    ASSERT_LT(sorted.trace[kSwapAt].arrival,
              sorted.trace[kSwapAt + 1].arrival);
    const DeviceJob streams =
        fastJob({.seed = seed, .variant = "streams"});
    ASSERT_LT(streams.streams[1].trace.front().arrival,
              streams.streams[0].trace.back().arrival);

    SweepRunner sweep(fastAxes(), fastJob);
    sweep.run(2);

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        for (const auto kind : fastAxes().schedulers) {
            for (const auto &variant : fastAxes().variants) {
                std::printf(
                    "        {SchedulerKind::%s, \"%s\", 0x%llxull},\n",
                    schedulerKindName(kind), variant.c_str(),
                    static_cast<unsigned long long>(
                        digest(sweep.at({.scheduler = kind,
                                         .seed = seed,
                                         .variant = variant}))));
            }
        }
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the table above";
    }

    ASSERT_EQ(std::size(expected), sweep.cellCount());
    for (const auto &cell : expected) {
        const MetricsSnapshot &m = sweep.at(
            {.scheduler = cell.kind, .seed = seed, .variant = cell.variant});
        EXPECT_EQ(digest(m), cell.digest)
            << schedulerKindName(cell.kind) << "/" << cell.variant;
        EXPECT_EQ(m.streams.size(),
                  std::string(cell.variant) == "streams" ? 2u : 0u);
    }
}

TEST(SweepGolden, FilterRestrictsMatchingAxisOnly)
{
    const SweepAxes axes = goldenAxes();

    const SweepAxes by_trace = filterAxes(axes, "msnfs");
    EXPECT_EQ(by_trace.traces,
              (std::vector<std::string>{"msnfs1"}));
    EXPECT_EQ(by_trace.schedulers.size(), 5u);
    EXPECT_EQ(by_trace.seeds.size(), 2u);

    const SweepAxes by_sched = filterAxes(axes, "spk3");
    EXPECT_EQ(by_sched.traces.size(), 2u);
    ASSERT_EQ(by_sched.schedulers.size(), 1u);
    EXPECT_EQ(by_sched.schedulers[0], SchedulerKind::SPK3);

    // A needle matching nothing leaves every axis untouched rather
    // than emptying the sweep.
    const SweepAxes no_match = filterAxes(axes, "zzz");
    EXPECT_EQ(no_match.traces.size(), 2u);
    EXPECT_EQ(no_match.schedulers.size(), 5u);
}

TEST(SweepGolden, CsvEmitsHeaderAndOneRowPerCell)
{
    auto sweep = makeRunner();
    sweep->run(2);
    std::ostringstream os;
    sweep->writeCsv(os);

    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(
        line.rfind(
            "trace,scheduler,seed,variant,arbiter,fault,fidelity,"
            "completed,",
            0),
        0u);
    const auto columns = std::count(line.begin(), line.end(), ',');
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        ++rows;
        EXPECT_NE(line.find(",1,"), std::string::npos)
            << "row should be marked completed: " << line;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), columns)
            << "row and header disagree: " << line;
        // Metric cells follow the seven axes and the completed flag.
        std::size_t metrics = 0;
        for (int i = 0; i < 8; ++i)
            metrics = line.find(',', metrics) + 1;
        EXPECT_EQ(line.find(",,", metrics - 1), std::string::npos)
            << "row has an empty metric cell: " << line;
    }
    EXPECT_EQ(rows, sweep->cellCount());
    EXPECT_EQ(rows, 20u);
}

TEST(SweepGolden, UnknownAxisValueDies)
{
    auto sweep = makeRunner();
    sweep->run(1);
    EXPECT_DEATH(
        sweep->at({.trace = "nope", .scheduler = SchedulerKind::VAS,
                   .seed = 101}),
        "not on the trace axis");
    EXPECT_DEATH(sweep->at({.trace = "hm0",
                            .scheduler = SchedulerKind::VAS,
                            .seed = 7}),
                 "not on the seed axis");
    // The seed axis holds two values, so the default does not
    // address it.
    EXPECT_DEATH(
        sweep->at({.trace = "hm0", .scheduler = SchedulerKind::VAS}),
        "not on the seed axis");
    EXPECT_DEATH(sweep->at({.trace = "hm0",
                            .scheduler = SchedulerKind::VAS,
                            .seed = 101,
                            .variant = "x"}),
                 "not on the variant axis");
    EXPECT_DEATH(sweep->at({.trace = "hm0",
                            .scheduler = SchedulerKind::VAS,
                            .seed = 101,
                            .fidelity = Fidelity::Fast}),
                 "not on the fidelity axis");

    SweepAxes spk3_only = goldenAxes();
    spk3_only.schedulers = {SchedulerKind::SPK3};
    const SweepRunner narrow(spk3_only,
                             [](const SweepPoint &) { return DeviceJob{}; });
    EXPECT_DEATH((void)narrow.indexOf({.trace = "hm0",
                                       .scheduler = SchedulerKind::VAS,
                                       .seed = 101}),
                 "not on the scheduler axis");
}

TEST(SweepGolden, ResultAccessBeforeRunDies)
{
    auto sweep = makeRunner();
    EXPECT_DEATH(
        sweep->at({.trace = "hm0", .scheduler = SchedulerKind::VAS,
                   .seed = 101}),
        "before run");
}

/** Every axis multi-valued: indexOf inverts the expansion. Nothing
 *  runs, so the jobs can stay empty. */
TEST(SweepGolden, IndexOfFindsEveryExpandedPoint)
{
    SweepAxes axes;
    axes.traces = {"a", "b"};
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK3};
    axes.seeds = {3, 5};
    axes.variants = {"x", "y", "z"};
    axes.arbiters = {ArbiterKind::RoundRobin,
                     ArbiterKind::WeightedRoundRobin};
    axes.faults = {0.0, 1e-3};
    axes.fidelities = {Fidelity::Exact, Fidelity::Fast};
    const SweepRunner sweep(axes,
                            [](const SweepPoint &) { return DeviceJob{}; });
    ASSERT_EQ(sweep.cellCount(), 2u * 3 * 2 * 3 * 2 * 2 * 2);
    for (const SweepPoint &p : sweep.points()) {
        SweepPoint key = p;
        key.index = 0; // ignored by the lookup
        EXPECT_EQ(sweep.indexOf(key), p.index);
    }
}

/** A field left at its default addresses an axis holding one value,
 *  whatever that value is. */
TEST(SweepGolden, DefaultedFieldsAddressSingleValuedAxes)
{
    SweepAxes axes;
    axes.traces = {"a", "b"};
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK3};
    axes.seeds = {59};
    axes.variants = {"64chips"};
    axes.arbiters = {ArbiterKind::WeightedRoundRobin};
    axes.faults = {1e-4};
    axes.fidelities = {Fidelity::Fast};
    const SweepRunner sweep(axes,
                            [](const SweepPoint &) { return DeviceJob{}; });
    for (const SweepPoint &p : sweep.points()) {
        EXPECT_EQ(sweep.indexOf({.trace = p.trace,
                                 .scheduler = p.scheduler}),
                  p.index);
        // Naming the single value finds the same cell.
        EXPECT_EQ(sweep.indexOf({.trace = p.trace,
                                 .scheduler = p.scheduler,
                                 .seed = 59,
                                 .variant = "64chips",
                                 .arbiter = ArbiterKind::WeightedRoundRobin,
                                 .fault = 1e-4,
                                 .fidelity = Fidelity::Fast}),
                  p.index);
    }
    EXPECT_DEATH((void)sweep.indexOf({.trace = "a",
                                      .scheduler = SchedulerKind::VAS,
                                      .seed = 60}),
                 "not on the seed axis");
    EXPECT_DEATH((void)sweep.indexOf({.trace = "a",
                                      .scheduler = SchedulerKind::VAS,
                                      .fault = 0.5}),
                 "not on the fault axis");
}

} // namespace
} // namespace spk
