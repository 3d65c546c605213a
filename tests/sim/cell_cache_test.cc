/**
 * @file
 * Persistent cell cache: bit-exact snapshot round-trips, a pinned
 * payload format, key sensitivity to every input that can change a
 * result, hit/miss accounting, corruption tolerance, and warm-run
 * bit-identity through DeviceArray.
 */

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "sim/cell_cache.hh"
#include "sim/device_array.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

/** Fresh per-test cache directory under the test's working dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = "cell_cache_test_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** A snapshot with every field set to an awkward value: doubles that
 *  do not round-trip through short decimal text, full retry-step and
 *  per-stream slices. */
MetricsSnapshot
fullSnapshot()
{
    MetricsSnapshot m;
    m.scheduler = "spk3";
    m.makespan = 123456789012345ull;
    m.deviceActiveTime = 98765432109876ull;
    m.iosCompleted = 4242;
    m.bytesRead = 1ull << 40;
    m.bytesWritten = (1ull << 40) + 1;
    m.bandwidthKBps = 0.1 + 0.2; // 0.30000000000000004
    m.iops = 1.0 / 3.0;
    m.avgLatencyNs = 2.2250738585072014e-308; // smallest normal
    m.p50LatencyNs = 1;
    m.p95LatencyNs = 2;
    m.p99LatencyNs = 3;
    m.maxLatencyNs = 4;
    m.avgReadLatencyNs = -0.0; // signed zero must survive
    m.avgWriteLatencyNs = 1e308;
    m.queueStallTime = 5;
    m.chipUtilizationPct = 99.999999999999986;
    m.flashLevelUtilizationPct = 7.0 / 11.0;
    m.interChipIdlenessPct = 13.0 / 17.0;
    m.intraChipIdlenessPct = 19.0 / 23.0;
    m.flpPct = {1.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0, 4.0 / 7.0};
    m.transactions = 6;
    m.requestsServed = 7;
    m.execBusPct = 0.125;
    m.execContentionPct = 0.25;
    m.execCellPct = 0.375;
    m.execIdlePct = 0.5;
    m.staleRetries = 8;
    m.gcBatches = 9;
    m.pagesMigrated = 10;
    m.readRetries = 11;
    for (std::size_t i = 0; i < m.readRetriesByStep.size(); ++i)
        m.readRetriesByStep[i] = 100 + i;
    m.uncorrectableReads = 12;
    m.programFailures = 13;
    m.programRemaps = 14;
    m.eraseFailures = 15;
    m.blocksRetiredWear = 16;
    m.blocksRetiredProgram = 17;
    m.blocksRetiredErase = 18;
    m.failedIos = 19;
    m.degradedDies = 20;
    m.parityUpdates = 21;
    m.parityFullStripeCloses = 22;
    m.parityPartialCloses = 23;
    m.parityRmwReads = 24;
    m.reconstructedReads = 25;
    m.reconstructionReads = 26;
    m.rebuildPagesTotal = 27;
    m.rebuildPagesRebuilt = 28;
    m.softDecodeInvocations = 29;
    m.softDecodeFailures = 30;
    m.softDecodeBusyTime = 31;
    m.softDecodeStallTime = 32;
    m.gcReadFailures = 33;
    for (int s = 0; s < 2; ++s) {
        StreamMetrics sm;
        sm.name = "stream-" + std::to_string(s);
        sm.iosSubmitted = 1000 + s;
        sm.iosCompleted = 2000 + s;
        sm.bytesRead = 3000 + s;
        sm.bytesWritten = 4000 + s;
        sm.queueStallTime = 5000 + s;
        sm.bandwidthKBps = 0.1 * (s + 1) + 0.2;
        sm.iops = (s + 1) / 7.0;
        sm.avgLatencyNs = (s + 1) / 13.0;
        sm.p99LatencyNs = 6000 + s;
        sm.maxLatencyNs = 7000 + s;
        m.streams.push_back(sm);
    }
    return m;
}

DeviceJob
smallJob(std::uint64_t seed = 1)
{
    DeviceJob job;
    job.cfg = SsdConfig::withChips(8);
    job.cfg.geometry.blocksPerPlane = 16;
    job.cfg.geometry.pagesPerBlock = 32;
    job.cfg.seed = seed;

    SyntheticConfig wl;
    wl.numIos = 80;
    wl.spanBytes = 4ull << 20;
    wl.seed = seed;
    job.trace = generateSynthetic(wl);
    return job;
}

TEST(CellCacheSerialize, RoundTripIsBitExact)
{
    const MetricsSnapshot in = fullSnapshot();
    const std::string payload = CellCache::serialize(in);
    MetricsSnapshot out;
    ASSERT_TRUE(CellCache::deserialize(payload, out));

    // operator== compares doubles by value; additionally pin the bit
    // patterns of the awkward ones (-0.0 == 0.0 under ==, so the
    // equality alone would let the sign bit rot).
    EXPECT_EQ(in, out);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.avgReadLatencyNs),
              std::bit_cast<std::uint64_t>(out.avgReadLatencyNs));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.bandwidthKBps),
              std::bit_cast<std::uint64_t>(out.bandwidthKBps));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.avgLatencyNs),
              std::bit_cast<std::uint64_t>(out.avgLatencyNs));
    ASSERT_EQ(out.streams.size(), 2u);
    for (std::size_t s = 0; s < in.streams.size(); ++s) {
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(in.streams[s].bandwidthKBps),
            std::bit_cast<std::uint64_t>(
                out.streams[s].bandwidthKBps));
    }
    EXPECT_EQ(in.readRetriesByStep, out.readRetriesByStep);
}

/** Compares doubles by bit pattern: the fixture's -0.0 is a
 *  deliberate non-default. */
template <typename T>
bool
isDefault(const T &v)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(v) == 0;
    else
        return v == T{};
}

/** The fixture covers the whole table, so the round-trip and format
 *  pins below cannot fall behind a new field. */
TEST(CellCacheSerialize, FullSnapshotSetsEveryField)
{
    const MetricsSnapshot m = fullSnapshot();
    std::size_t index = 0;
    MetricsSnapshot::forEachField(
        [&](auto field, const char *columns, Merge) {
            EXPECT_FALSE(isDefault(m.*field))
                << "fullSnapshot() leaves MetricsSnapshot field #"
                << index << " (" << columns << ") at its default";
            ++index;
        });
    for (const StreamMetrics &s : m.streams) {
        StreamMetrics::forEachField(
            [&](auto field, const char *columns, Merge) {
                EXPECT_FALSE(isDefault(s.*field))
                    << "fullSnapshot() leaves stream field " << columns
                    << " at its default";
            });
    }
}

/** The on-disk payload layout, byte for byte. Entries written by an
 *  older layout must miss, so a change here needs a kMagic bump. */
TEST(CellCacheSerialize, PayloadFormatIsPinned)
{
    const std::string payload = CellCache::serialize(fullSnapshot());
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : payload) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    const char *bump = "the cache payload layout changed: bump kMagic in "
                       "src/sim/cell_cache.cc, then re-pin";
    EXPECT_EQ(payload.size(), 724u) << bump;
    EXPECT_EQ(h, 0x1524d776335d31caull) << bump;
}

TEST(CellCacheSerialize, TruncatedOrPaddedPayloadIsRejected)
{
    const std::string payload =
        CellCache::serialize(fullSnapshot());
    MetricsSnapshot out;
    EXPECT_FALSE(CellCache::deserialize("", out));
    EXPECT_FALSE(CellCache::deserialize(
        payload.substr(0, payload.size() - 1), out));
    EXPECT_FALSE(CellCache::deserialize(payload + "x", out));
}

/** Eight little-endian bytes, as the payload stores a number. */
std::string
le64(std::uint64_t v)
{
    std::string bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<char>(v >> (8 * i)));
    return bytes;
}

/** Counts and lengths come from the file: a count that disagrees with
 *  the build, or runs past the payload, is a miss, never an
 *  allocation of that size. */
TEST(CellCacheSerialize, MalformedCountsAreRejected)
{
    MetricsSnapshot m = fullSnapshot();
    m.streams.clear();
    m.readRetries = 0x5eed5eed5eed5eedull; // the step count follows it
    const std::string payload = CellCache::serialize(m);
    MetricsSnapshot out;
    ASSERT_TRUE(CellCache::deserialize(payload, out));

    const std::size_t steps = payload.find(le64(m.readRetries)) + 8;
    ASSERT_EQ(payload.substr(steps, 8), le64(kMaxRetrySteps));
    std::string wrong_steps = payload;
    wrong_steps.replace(steps, 8, le64(kMaxRetrySteps - 1));
    EXPECT_FALSE(CellCache::deserialize(wrong_steps, out));

    // The payload ends with the stream count.
    std::string huge_streams = payload;
    huge_streams.replace(huge_streams.size() - 8, 8, le64(~0ull));
    EXPECT_FALSE(CellCache::deserialize(huge_streams, out));

    // It starts with the scheduler name's length.
    std::string huge_name = payload;
    huge_name.replace(0, 8, le64(~0ull));
    EXPECT_FALSE(CellCache::deserialize(huge_name, out));
}

TEST(CellCacheKey, SensitiveToEveryResultInput)
{
    const DeviceJob base = smallJob();
    const std::string key = CellCache::keyOf(base);
    EXPECT_EQ(key.size(), 32u);
    EXPECT_EQ(key, CellCache::keyOf(base)); // stable

    DeviceJob j = base;
    j.cfg.seed += 1;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.scheduler = SchedulerKind::VAS;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.geometry.pagesPerBlock *= 2;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.timing.programSlow += 1;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.ftl.overprovision += 0.01;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.nvmhc.queueDepth += 1;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.fault.readTransientRate = 1e-6;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.parity.enabled = true;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.cfg.faroWindow += 1;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.preconditionGc = true;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.fidelity = Fidelity::Fast;
    EXPECT_NE(CellCache::keyOf(j), key);

    // Trace content, not identity: an equal-content deep copy keys
    // identically; any record change re-keys.
    j = base;
    j.trace = TraceRef(base.trace.get());
    EXPECT_EQ(CellCache::keyOf(j), key);
    Trace changed = base.trace.get();
    changed[0].offsetBytes += 4096;
    j.trace = std::move(changed);
    EXPECT_NE(CellCache::keyOf(j), key);
}

TEST(CellCacheKey, SensitiveToStreamSet)
{
    DeviceJob base = smallJob();
    HostStreamConfig stream;
    stream.name = "a";
    stream.trace = base.trace;
    stream.iodepth = 8;
    base.trace = TraceRef();
    base.streams = {stream};
    const std::string key = CellCache::keyOf(base);

    DeviceJob j = base;
    j.streams[0].name = "b";
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.streams[0].iodepth = 16;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.streams[0].weight = 4;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.streams[0].priority = 2;
    EXPECT_NE(CellCache::keyOf(j), key);

    j = base;
    j.streams.push_back(j.streams[0]);
    j.streams[1].name = "c";
    EXPECT_NE(CellCache::keyOf(j), key);
}

TEST(CellCache, StoreThenLookupServesTheExactSnapshot)
{
    CellCache cache(freshDir("roundtrip"));
    const DeviceJob job = smallJob();
    const MetricsSnapshot want = fullSnapshot();

    MetricsSnapshot out;
    EXPECT_FALSE(cache.lookup(job, out));
    EXPECT_EQ(cache.misses(), 1u);

    cache.store(job, want);
    EXPECT_EQ(cache.stores(), 1u);

    ASSERT_TRUE(cache.lookup(job, out));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(out, want);

    // A different job misses without disturbing the stored entry.
    EXPECT_FALSE(cache.lookup(smallJob(2), out));
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(CellCache, CorruptEntryIsAMissNotAnError)
{
    const std::string dir = freshDir("corrupt");
    CellCache cache(dir);
    const DeviceJob job = smallJob();
    cache.store(job, fullSnapshot());

    const std::string path =
        dir + "/" + CellCache::keyOf(job) + ".cell";
    ASSERT_TRUE(std::filesystem::exists(path));

    // Truncate the payload.
    {
        std::ofstream os(path,
                         std::ios::binary | std::ios::trunc);
        os << "SPKCEL2\ntruncated";
    }
    MetricsSnapshot out;
    EXPECT_FALSE(cache.lookup(job, out));

    // Garbage magic.
    {
        std::ofstream os(path,
                         std::ios::binary | std::ios::trunc);
        os << "NOTACACHEFILE";
    }
    EXPECT_FALSE(cache.lookup(job, out));

    // A fresh store repairs the entry.
    cache.store(job, fullSnapshot());
    EXPECT_TRUE(cache.lookup(job, out));
}

TEST(CellCache, WarmDeviceArrayRunIsBitIdenticalAndAllHits)
{
    CellCache cache(freshDir("device_array"));
    std::vector<DeviceJob> jobs;
    for (std::uint64_t s = 1; s <= 4; ++s)
        jobs.push_back(smallJob(s));
    jobs[3].fidelity = Fidelity::Fast;

    DeviceArrayHooks hooks;
    hooks.cache = &cache;

    DeviceArray cold(jobs);
    cold.run(2, hooks);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), jobs.size());
    EXPECT_EQ(cache.stores(), jobs.size());

    DeviceArray warm(jobs);
    warm.run(2, hooks);
    EXPECT_EQ(cache.hits(), jobs.size());
    ASSERT_EQ(warm.results().size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(cold.results()[i], warm.results()[i])
            << "cell " << i << " diverged through the cache";

    // And both match an uncached run bit for bit.
    DeviceArray plain(jobs);
    plain.run(1);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(plain.results()[i], warm.results()[i]);
}

TEST(CellCache, CaptureIoResultsCellsBypassTheCache)
{
    CellCache cache(freshDir("bypass"));
    DeviceJob job = smallJob();
    job.captureIoResults = true;

    DeviceArrayHooks hooks;
    hooks.cache = &cache;
    DeviceArray first({job});
    first.run(1, hooks);
    EXPECT_EQ(cache.lookups(), 0u);
    EXPECT_EQ(cache.stores(), 0u);
    EXPECT_FALSE(first.ioResults(0).empty());

    DeviceArray second({job});
    second.run(1, hooks);
    EXPECT_EQ(cache.lookups(), 0u);
    EXPECT_FALSE(second.ioResults(0).empty());
}

} // namespace
} // namespace spk
