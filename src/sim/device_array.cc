#include "sim/device_array.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <type_traits>
#include <unordered_map>
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

constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

/**
 * Key of the preconditioned device a cell starts from: its cache key
 * with the workload emptied and the scheduler fixed, since
 * preconditioning reads neither.
 */
std::string
imageKey(const DeviceJob &job)
{
    DeviceJob device = job;
    device.trace = {};
    device.streams.clear();
    device.cfg.scheduler = SchedulerKind::VAS;
    return CellCache::keyOf(device);
}

/**
 * Group the exact preconditioned cells by imageKey, keeping groups of
 * two or more, and move each group's cells in @p order to the slot of
 * its first member (in the policy's order among themselves; every
 * other cell keeps the policy's order).
 * @return each job's group in [0, @p groups), or kNoGroup.
 */
std::vector<std::size_t>
groupByImage(const std::vector<DeviceJob> &jobs,
             std::vector<std::size_t> &order, std::size_t &groups)
{
    std::unordered_map<std::string, std::size_t> keys;
    std::vector<std::vector<std::size_t>> members; // policy order
    for (const std::size_t i : order) {
        if (!jobs[i].preconditionGc || jobs[i].fidelity != Fidelity::Exact)
            continue;
        const auto [it, fresh] =
            keys.try_emplace(imageKey(jobs[i]), members.size());
        if (fresh)
            members.emplace_back();
        members[it->second].push_back(i);
    }

    std::vector<std::size_t> group_of(jobs.size(), kNoGroup);
    std::vector<std::vector<std::size_t>> shared;
    for (auto &cells : members) {
        if (cells.size() < 2)
            continue;
        for (const std::size_t i : cells)
            group_of[i] = shared.size();
        shared.push_back(std::move(cells));
    }
    groups = shared.size();
    if (shared.empty())
        return group_of;

    std::vector<std::size_t> grouped;
    grouped.reserve(order.size());
    std::vector<bool> placed(shared.size(), false);
    for (const std::size_t i : order) {
        const std::size_t g = group_of[i];
        if (g == kNoGroup) {
            grouped.push_back(i);
        } else if (!placed[g]) {
            placed[g] = true;
            grouped.insert(grouped.end(), shared[g].begin(),
                           shared[g].end());
        }
    }
    order = std::move(grouped);
    return group_of;
}

} // namespace

/**
 * One shared preconditioned image. The first cell that needs it
 * builds it under `built`; `users` counts the group's cells that have
 * not yet restored it or been served from the cache, and the last of
 * them frees it.
 */
struct DeviceArray::ImageGroup
{
    std::once_flag built;
    std::unique_ptr<const SsdImage> image;
    std::atomic<std::size_t> users{0};

    /** This cell no longer needs the image. */
    void
    release()
    {
        if (users.fetch_sub(1) == 1)
            image.reset();
    }
};

DeviceArray::DeviceArray(std::vector<DeviceJob> jobs)
    : jobs_(std::move(jobs)),
      completed_(new std::atomic<std::uint8_t>[jobs_.size()]())
{
}

double
DeviceArray::runOne(std::size_t index, CellCache *cache, ImageGroup *group)
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
        if (group)
            group->release();
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
        if (group) {
            bool built = false;
            std::call_once(group->built, [&] {
                ssd.preconditionForGc();
                group->image = std::make_unique<const SsdImage>(ssd.image());
                built = true;
            });
            if (!built)
                ssd.restore(*group->image);
            group->release();
        } else if (job.preconditionGc) {
            ssd.preconditionForGc();
        }
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
    std::vector<std::size_t> order =
        jobs_.empty() ? std::vector<std::size_t>{}
                      : resolveOrder(hooks, jobs_);

    // Shared preconditioning images, freed by their last cell or, after
    // a cancel, when run() returns.
    std::size_t n_groups = 0;
    const std::vector<std::size_t> group_of =
        groupByImage(jobs_, order, n_groups);
    const std::unique_ptr<ImageGroup[]> groups(new ImageGroup[n_groups]);
    for (const std::size_t g : group_of) {
        if (g != kNoGroup)
            ++groups[g].users;
    }
    const auto groupOf = [&](std::size_t i) {
        return group_of[i] == kNoGroup ? nullptr : &groups[group_of[i]];
    };

    // Each worker claims the next unstarted device from an atomic
    // cursor over the policy's order; one worker runs inline on the
    // caller. Devices share nothing mutable, so the claim order cannot
    // influence any result. The callback mutex only serializes
    // observation.
    std::atomic<std::size_t> cursor{0};
    std::mutex done_mutex;
    const auto work = [&](unsigned w) {
        while (!stopped()) {
            const std::size_t slot =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (slot >= order.size())
                return;
            const std::size_t i = order[slot];
            threadBusySeconds_[w] += runOne(i, hooks.cache, groupOf(i));
            if (hooks.onDeviceDone) {
                std::lock_guard<std::mutex> lock(done_mutex);
                hooks.onDeviceDone(i, results_[i]);
            }
        }
    };
    if (workers == 1) {
        work(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(work, w);
        for (auto &t : pool)
            t.join();
    }
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
