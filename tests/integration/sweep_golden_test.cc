/**
 * @file
 * Golden sweep regression: a miniature paper-exhibit campaign
 * (2 traces x 5 schedulers x 2 seeds on a small geometry) run through
 * SweepRunner, with every per-cell MetricsSnapshot digest and the
 * fleet aggregate pinned, and the sharded path asserted bit-identical
 * to sequential. This puts the machinery behind every bench_fig*
 * exhibit under tier-1 guard: a scheduler regression that would
 * silently bend a figure shows up here as a digest mismatch. A second,
 * reliability campaign drives every snapshot field off its default,
 * so the digests pin the fault, parity, soft-decode and stream
 * counters too.
 *
 * To re-pin after an intentional behavior change, run with
 * SPK_SWEEP_GOLDEN_REGEN=1: the pinned test prints a ready-to-paste
 * table and fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
        ASSERT_EQ(sharded->results().size(),
                  sequential->results().size());
        for (const auto &p : sequential->points()) {
            EXPECT_EQ(sequential->results()[p.index],
                      sharded->results()[p.index])
                << p.trace << "/" << schedulerKindName(p.scheduler)
                << "/seed=" << p.seed << " diverged at " << threads
                << " threads";
        }
        EXPECT_TRUE(sequential->aggregate() == sharded->aggregate());
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
                            digest(sweep->at(trace, kind, seed))));
                }
            }
        }
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the table above";
    }

    for (const auto &cell : expected) {
        EXPECT_EQ(digest(sweep->at(cell.trace, cell.kind, cell.seed)),
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
    const MetricsSnapshot fleet = sweep->aggregate();

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

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        for (const auto kind : reliabilityAxes().schedulers) {
            for (const auto &variant : reliabilityAxes().variants) {
                std::printf(
                    "        {SchedulerKind::%s, \"%s\", 0x%llxull},\n",
                    schedulerKindName(kind), variant.c_str(),
                    static_cast<unsigned long long>(
                        digest(sweep.at("", kind, seed, variant))));
            }
        }
        std::printf("fleet 0x%llxull\n",
                    static_cast<unsigned long long>(
                        digest(sweep.aggregate())));
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the table above";
    }

    for (const auto &cell : expected) {
        EXPECT_EQ(digest(sweep.at("", cell.kind, seed, cell.variant)),
                  cell.digest)
            << schedulerKindName(cell.kind) << "/" << cell.variant;
    }
    EXPECT_EQ(digest(sweep.aggregate()), expected_fleet);
}

/** A field that is zero in every cell would escape the digests'
 *  guard, so the campaign must move every one of them, in the
 *  snapshot and in each stream slice. */
TEST(SweepGolden, ReliabilityCampaignReachesEveryField)
{
    const SweepRunner &sweep = reliabilitySweep();
    const auto reached = [&sweep](auto field) {
        for (const auto &m : sweep.results()) {
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

    for (const auto &m : sweep.results()) {
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
    EXPECT_DEATH(sweep->at("nope", SchedulerKind::VAS, 101),
                 "not on the trace axis");
}

TEST(SweepGolden, ResultAccessBeforeRunDies)
{
    auto sweep = makeRunner();
    EXPECT_DEATH(sweep->at("hm0", SchedulerKind::VAS, 101),
                 "before run");
}

} // namespace
} // namespace spk
