/**
 * @file
 * Shared helpers for the benchmark harness: the evaluation device, the
 * workload span, and the exhibits' header and shape-note lines.
 */

#ifndef SPK_BENCH_BENCH_UTIL_HH
#define SPK_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "ssd/ssd.hh"
#include "workload/paper_traces.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace bench
{

/** The five schedulers of the evaluation, in paper order. */
inline const std::vector<SchedulerKind> &
allSchedulers()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
        SchedulerKind::SPK2, SchedulerKind::SPK3};
    return kinds;
}

/**
 * @p chips chips under @p kind with @p blocks blocks of 32 pages per
 * plane. Small planes keep mapping tables small while preserving
 * chip/die/plane parallelism: the experiments exercise scheduling,
 * not capacity.
 */
inline SsdConfig
scaledConfig(SchedulerKind kind, std::uint32_t chips, std::uint32_t blocks)
{
    SsdConfig cfg = SsdConfig::withChips(chips);
    cfg.geometry.blocksPerPlane = blocks;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    return cfg;
}

/** Paper evaluation geometry scaled for offline runtime. */
inline SsdConfig
evalConfig(SchedulerKind kind)
{
    return scaledConfig(kind, 64, 24);
}

/** Span that fits comfortably inside the logical capacity. */
inline std::uint64_t
spanFor(const SsdConfig &cfg, double fraction = 0.5)
{
    const double logical =
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes);
    return static_cast<std::uint64_t>(logical * fraction);
}

/** True when @p kind survived the sweep's scheduler filter. */
inline bool
hasScheduler(const SweepRunner &sweep, SchedulerKind kind)
{
    const auto &kinds = sweep.axes().schedulers;
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

/** Print a header line for an exhibit. */
inline void
printHeader(const std::string &exhibit, const std::string &what)
{
    std::printf("\n=== %s: %s ===\n", exhibit.c_str(), what.c_str());
}

/** Print the paper-vs-measured shape note, if there is one. */
inline void
printShapeNote(const std::string &note)
{
    if (!note.empty())
        std::printf("--- paper-shape check: %s\n", note.c_str());
}

} // namespace bench
} // namespace spk


#endif // SPK_BENCH_BENCH_UTIL_HH
