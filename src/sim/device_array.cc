#include "sim/device_array.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>

#include "sim/cell_cache.hh"
#include "sim/estimator.hh"
#include "sim/logging.hh"

namespace spk
{

const char *
fidelityName(Fidelity fidelity)
{
    switch (fidelity) {
      case Fidelity::Exact:
        return "exact";
      case Fidelity::Fast:
        return "fast";
    }
    return "?";
}

bool
parseFidelity(const std::string &name, Fidelity &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "exact") {
        out = Fidelity::Exact;
        return true;
    }
    if (lower == "fast") {
        out = Fidelity::Fast;
        return true;
    }
    return false;
}

CellOrderPolicy
expansionOrder()
{
    return [](const std::vector<DeviceJob> &jobs) {
        std::vector<std::size_t> order(jobs.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        return order;
    };
}

CellOrderPolicy
costGuidedOrder()
{
    return [](const std::vector<DeviceJob> &jobs) {
        std::vector<double> cost(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            cost[i] = estimateJobCost(jobs[i]);
        std::vector<std::size_t> order(jobs.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        // Longest job first; stable index tiebreak keeps the order a
        // pure function of the job list.
        std::sort(order.begin(), order.end(),
                  [&cost](std::size_t a, std::size_t b) {
                      if (cost[a] != cost[b])
                          return cost[a] > cost[b];
                      return a < b;
                  });
        return order;
    };
}

namespace
{

/** Resolve the hook's policy and check it really permutes the jobs. */
std::vector<std::size_t>
resolveOrder(const DeviceArrayHooks &hooks,
             const std::vector<DeviceJob> &jobs)
{
    const std::vector<std::size_t> order =
        (hooks.order ? hooks.order : costGuidedOrder())(jobs);
    if (order.size() != jobs.size())
        fatal("DeviceArray: cell-order policy returned " +
              std::to_string(order.size()) + " indices for " +
              std::to_string(jobs.size()) + " jobs");
    std::vector<bool> seen(jobs.size(), false);
    for (const std::size_t i : order) {
        if (i >= jobs.size() || seen[i])
            fatal("DeviceArray: cell-order policy is not a "
                  "permutation (index " + std::to_string(i) + ")");
        seen[i] = true;
    }
    return order;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

DeviceArray::DeviceArray(std::vector<DeviceJob> jobs)
    : jobs_(std::move(jobs)),
      completed_(new std::atomic<std::uint8_t>[jobs_.size()]())
{
}

double
DeviceArray::runOne(std::size_t index, CellCache *cache)
{
    const auto start = std::chrono::steady_clock::now();
    const DeviceJob &job = jobs_[index];
    if (!job.streams.empty() && !job.trace.empty())
        fatal("DeviceArray: job has both a trace and streams — move "
              "the trace into a stream");
    // The cache stores snapshots only; a cell that wants its per-I/O
    // series must really simulate.
    const bool cacheable = cache && !job.captureIoResults;
    if (cacheable && cache->lookup(job, results_[index])) {
        cellSeconds_[index] = secondsSince(start);
        completed_[index].store(1, std::memory_order_release);
        return cellSeconds_[index];
    }
    if (job.fidelity == Fidelity::Fast) {
        // Analytic path: no event loop, no per-I/O series. Same
        // release/acquire contract as the exact path below.
        results_[index] = estimateDevice(job);
    } else {
        Ssd ssd(job.cfg);
        if (job.preconditionGc)
            ssd.preconditionForGc();
        if (!job.streams.empty())
            ssd.replayStreams(job.streams);
        else
            ssd.replay(job.trace);
        ssd.run();
        results_[index] = ssd.metrics();
        if (job.captureIoResults)
            ioResults_[index] = ssd.results();
    }
    if (cacheable)
        cache->store(job, results_[index]);
    cellSeconds_[index] = secondsSince(start);
    // Release pairs with the acquire in completed(): a concurrent
    // poller that sees the flag also sees the snapshot stores above.
    completed_[index].store(1, std::memory_order_release);
    return cellSeconds_[index];
}

const std::vector<MetricsSnapshot> &
DeviceArray::run(unsigned threads, const DeviceArrayHooks &hooks)
{
    results_.assign(jobs_.size(), MetricsSnapshot{});
    ioResults_.assign(jobs_.size(), {});
    cellSeconds_.assign(jobs_.size(), 0.0);
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        completed_[i].store(0, std::memory_order_relaxed);

    const auto stopped = [&hooks] {
        return hooks.stop &&
               hooks.stop->load(std::memory_order_relaxed);
    };

    const unsigned workers = std::max(
        1u, std::min(threads, static_cast<unsigned>(jobs_.size())));
    threadBusySeconds_.assign(workers, 0.0);
    const auto run_start = std::chrono::steady_clock::now();

    // The policy decides which cell a free worker picks up next;
    // results are indexed by cell, so this is wall-clock-only.
    const std::vector<std::size_t> order =
        jobs_.empty() ? std::vector<std::size_t>{}
                      : resolveOrder(hooks, jobs_);

    if (workers <= 1) {
        for (const std::size_t i : order) {
            if (stopped())
                break;
            threadBusySeconds_[0] += runOne(i, hooks.cache);
            if (hooks.onDeviceDone)
                hooks.onDeviceDone(i, results_[i]);
        }
        runWallSeconds_ = secondsSince(run_start);
        return results_;
    }

    // Fixed pool; each worker claims the next unstarted device from
    // an atomic cursor over the policy's order. Devices share nothing
    // mutable, so the claim order cannot influence any result. The
    // callback mutex only serializes observation.
    std::atomic<std::size_t> cursor{0};
    std::mutex done_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([this, w, &order, &cursor, &hooks, &stopped,
                           &done_mutex] {
            while (!stopped()) {
                const std::size_t slot =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (slot >= order.size())
                    return;
                const std::size_t i = order[slot];
                threadBusySeconds_[w] += runOne(i, hooks.cache);
                if (hooks.onDeviceDone) {
                    std::lock_guard<std::mutex> lock(done_mutex);
                    hooks.onDeviceDone(i, results_[i]);
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    runWallSeconds_ = secondsSince(run_start);
    return results_;
}

std::size_t
DeviceArray::completedCount() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        count += completed(i) ? 1 : 0;
    return count;
}

namespace
{

/** Merge one number across @p parts by @p rule; @p at reads it. */
template <typename T, typename Record, typename At>
T
mergeNumber(Merge rule, const std::vector<const Record *> &parts, At at)
{
    T out{};
    double weighted = 0.0;
    double total = 0.0;
    for (const Record *p : parts) {
        if (rule == Merge::Sum) {
            out += at(*p);
        } else if (rule == Merge::Max) {
            out = std::max(out, at(*p));
        } else {
            // A weighted mean. The value counts (value * base) * share,
            // multiplied in that order: the pinned aggregates depend on
            // the rounding.
            double base = static_cast<double>(p->iosCompleted);
            double share = 1.0;
            if constexpr (std::is_same_v<Record, MetricsSnapshot>) {
                // No read/write I/O counts: the byte mix apportions
                // the I/Os between the two latency means.
                const auto bytes =
                    static_cast<double>(p->bytesRead + p->bytesWritten);
                const double reads =
                    bytes > 0.0 ? static_cast<double>(p->bytesRead) / bytes
                                : 0.0;
                if (rule == Merge::PerSpan)
                    base = static_cast<double>(p->makespan);
                else if (rule == Merge::PerRequest)
                    base = static_cast<double>(p->requestsServed);
                else if (rule == Merge::ReadMix)
                    share = reads;
                else if (rule == Merge::WriteMix)
                    share = 1.0 - reads;
            }
            weighted += static_cast<double>(at(*p)) * base * share;
            total += base * share;
        }
    }
    return total > 0.0 ? static_cast<T>(weighted / total) : out;
}

/** Merge @p parts (at least one) field by field, by table rule. */
template <typename Record>
Record
mergeRecords(const std::vector<const Record *> &parts)
{
    Record out;
    Record::forEachField([&](auto field, const char *, Merge rule) {
        auto &dst = out.*field;
        using T = std::remove_reference_t<decltype(dst)>;
        if constexpr (std::is_same_v<T, std::string>) {
            // Label or Key: the common value, "mixed" if parts differ.
            dst = parts.front()->*field;
            for (const Record *p : parts) {
                if (p->*field != dst)
                    dst = "mixed";
            }
        } else if constexpr (std::is_same_v<T, std::vector<StreamMetrics>>) {
            // ByName: one group per name, in order of first appearance.
            std::vector<std::vector<const StreamMetrics *>> groups;
            for (const Record *p : parts) {
                for (const StreamMetrics &s : p->*field) {
                    auto g = std::find_if(
                        groups.begin(), groups.end(), [&s](const auto &gr) {
                            return gr.front()->name == s.name;
                        });
                    if (g == groups.end())
                        g = groups.emplace(groups.end());
                    g->push_back(&s);
                }
            }
            for (const auto &group : groups)
                dst.push_back(mergeRecords(group));
        } else if constexpr (std::is_arithmetic_v<T>) {
            dst = mergeNumber<T>(rule, parts,
                                 [&](const Record &r) { return r.*field; });
        } else { // std::array: element by element
            for (std::size_t i = 0; i < dst.size(); ++i) {
                dst[i] = mergeNumber<typename T::value_type>(
                    rule, parts,
                    [&](const Record &r) { return (r.*field)[i]; });
            }
        }
    });
    return out;
}

} // namespace

MetricsSnapshot
DeviceArray::aggregate(const std::vector<MetricsSnapshot> &devices)
{
    if (devices.empty())
        return {};
    std::vector<const MetricsSnapshot *> parts;
    parts.reserve(devices.size());
    for (const MetricsSnapshot &m : devices)
        parts.push_back(&m);
    return mergeRecords(parts);
}

} // namespace spk
