/**
 * @file
 * Trace interning: sharing, digests and the memory-footprint
 * acceptance criterion — a sweep of C cells over T unique traces
 * holds at most T parsed trace copies.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "workload/synthetic.hh"
#include "workload/trace_store.hh"

namespace spk
{
namespace
{

Trace
smallTrace(std::uint64_t seed, std::uint64_t n_ios = 40)
{
    SyntheticConfig wl;
    wl.numIos = n_ios;
    wl.spanBytes = 4ull << 20;
    wl.seed = seed;
    return generateSynthetic(wl);
}

TEST(TraceRef, DefaultRefIsEmpty)
{
    const TraceRef ref;
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(ref.size(), 0u);
    EXPECT_EQ(ref.identity(), nullptr);
    EXPECT_EQ(ref.digest(), traceDigest(Trace{}));
}

TEST(TraceRef, CopyingSharesTheParsedRecords)
{
    TraceRef a(smallTrace(1));
    const TraceRef b = a;
    const TraceRef c = b;
    EXPECT_NE(a.identity(), nullptr);
    EXPECT_EQ(a.identity(), b.identity());
    EXPECT_EQ(b.identity(), c.identity());
    EXPECT_EQ(a.digest(), c.digest());
    EXPECT_EQ(&a.get(), &c.get());
}

TEST(TraceRef, ExplicitLvalueConstructionDeepCopies)
{
    const Trace trace = smallTrace(2);
    const TraceRef a(trace);
    const TraceRef b(trace);
    // Two explicit wraps of the same lvalue are distinct copies with
    // equal content digests.
    EXPECT_NE(a.identity(), b.identity());
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.size(), b.size());
}

/**
 * The digest is hashed at the first digest() call, not when the ref is
 * built: refs first asked from several threads at once (sweep workers
 * keying the cell cache) all read the one value traceDigest() gives.
 */
TEST(TraceRef, DigestIsHashedOnceOnFirstUseAcrossThreads)
{
    const Trace trace = smallTrace(5, 400);
    const std::uint64_t want = traceDigest(trace);
    const TraceRef ref(trace);
    std::vector<std::uint64_t> seen(4, 0);
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < seen.size(); ++i)
        readers.emplace_back([&, i] { seen[i] = TraceRef(ref).digest(); });
    for (std::thread &t : readers)
        t.join();
    for (const std::uint64_t digest : seen)
        EXPECT_EQ(digest, want);
    EXPECT_EQ(ref.digest(), want);
}

TEST(TraceRef, BehavesLikeAConstTraceAtCallSites)
{
    const Trace trace = smallTrace(3);
    const TraceRef ref(trace);
    ASSERT_EQ(ref.size(), trace.size());
    EXPECT_EQ(ref.front().arrival, trace.front().arrival);
    EXPECT_EQ(ref.back().sizeBytes, trace.back().sizeBytes);
    EXPECT_EQ(ref[1].offsetBytes, trace[1].offsetBytes);
    std::size_t count = 0;
    for (const TraceRecord &rec : ref) {
        EXPECT_EQ(rec.sizeBytes, trace[count].sizeBytes);
        ++count;
    }
    EXPECT_EQ(count, trace.size());
    // Implicit conversion feeds const Trace & APIs.
    const Trace &as_trace = ref;
    EXPECT_EQ(&as_trace, &ref.get());
}

TEST(TraceDigest, SensitiveToEveryRecordField)
{
    const Trace base = smallTrace(4);
    const std::uint64_t d0 = traceDigest(base);

    Trace t = base;
    t[0].arrival += 1;
    EXPECT_NE(traceDigest(t), d0);

    t = base;
    t[0].isWrite = !t[0].isWrite;
    EXPECT_NE(traceDigest(t), d0);

    t = base;
    t[0].fua = !t[0].fua;
    EXPECT_NE(traceDigest(t), d0);

    t = base;
    t[0].offsetBytes += 4096;
    EXPECT_NE(traceDigest(t), d0);

    t = base;
    t[0].sizeBytes += 512;
    EXPECT_NE(traceDigest(t), d0);

    t = base;
    t.pop_back();
    EXPECT_NE(traceDigest(t), d0);

    EXPECT_EQ(traceDigest(base), d0);
}

TEST(TraceStore, InternParsesEachNameOnce)
{
    TraceStore store;
    int parses = 0;
    const auto parse = [&parses] {
        ++parses;
        return smallTrace(6);
    };
    const TraceRef a = store.intern("w", parse);
    // A later intern under the same name returns the shared handle.
    const TraceRef b = store.intern("w", parse);
    store.intern("v", parse);
    EXPECT_EQ(parses, 2); // one per unique name
    EXPECT_EQ(a.identity(), b.identity());
    EXPECT_EQ(store.uniqueCount(), 2u);
    EXPECT_EQ(store.totalRecords(), 2 * a.size());
    EXPECT_TRUE(store.contains("v"));
    EXPECT_FALSE(store.contains("missing"));
}

/**
 * The ISSUE 10 acceptance criterion: expanding a sweep of C cells
 * over T unique traces holds at most T parsed trace copies. Counted
 * via TraceRef::identity() over every expanded job.
 */
TEST(TraceStore, SweepCellsShareOneParsedCopyPerUniqueTrace)
{
    constexpr std::size_t kUniqueTraces = 3;

    auto store = std::make_shared<TraceStore>();
    SweepAxes axes;
    axes.traces.clear();
    for (std::size_t t = 0; t < kUniqueTraces; ++t)
        axes.traces.push_back(std::to_string(10 + t)); // the trace seed
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::SPK3};
    axes.seeds = {1, 2, 3};
    axes.fidelities = {Fidelity::Exact, Fidelity::Fast};

    SweepRunner sweep(axes, [&store](const SweepPoint &p) {
        DeviceJob job;
        job.cfg = SsdConfig::withChips(8);
        job.cfg.scheduler = p.scheduler;
        job.cfg.seed = p.seed;
        job.trace = store->intern(
            p.trace, [&p] { return smallTrace(std::stoull(p.trace)); });
        return job;
    });

    const std::size_t cells =
        kUniqueTraces * 2 /*schedulers*/ * 3 /*seeds*/ * 2 /*fid*/;
    ASSERT_EQ(sweep.cellCount(), cells);

    std::set<const void *> copies;
    std::uint64_t referenced_records = 0;
    for (const SweepPoint &p : sweep.points()) {
        const DeviceJob &job = sweep.array().jobs()[p.index];
        ASSERT_NE(job.trace.identity(), nullptr);
        copies.insert(job.trace.identity());
        referenced_records += job.trace.size();
    }
    // C cells, at most T parsed copies.
    EXPECT_LE(copies.size(), kUniqueTraces);
    EXPECT_EQ(copies.size(), store->uniqueCount());
    // The store's resident footprint is per unique trace, while the
    // cells collectively reference cells/T times that many records.
    EXPECT_EQ(referenced_records,
              store->totalRecords() * (cells / kUniqueTraces));
}

} // namespace
} // namespace spk
