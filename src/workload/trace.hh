/**
 * @file
 * Host I/O trace model.
 *
 * A trace is a time-ordered list of block-level I/O records. The
 * paper replays sixteen public data-center traces (Table 1); this
 * module provides the record type plus summary statistics matching
 * Table 1's columns (transfer totals, instruction counts, randomness).
 */

#ifndef SPK_WORKLOAD_TRACE_HH
#define SPK_WORKLOAD_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace spk
{

/** One host I/O in a trace. */
struct TraceRecord
{
    Tick arrival = 0;
    bool isWrite = false;
    bool fua = false;
    std::uint64_t offsetBytes = 0;
    std::uint64_t sizeBytes = 0;
};

using Trace = std::vector<TraceRecord>;

/** Table 1-style summary of a trace. */
struct TraceSummary
{
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t readCount = 0;
    std::uint64_t writeCount = 0;
    double readRandomness = 0.0;  //!< % non-sequential reads
    double writeRandomness = 0.0; //!< % non-sequential writes

    double
    readFraction() const
    {
        const auto total = readCount + writeCount;
        return total == 0
                   ? 0.0
                   : static_cast<double>(readCount) /
                         static_cast<double>(total);
    }
};

/**
 * Compute a Table 1-style summary.
 *
 * Randomness counts an access as sequential when it starts exactly
 * where the previous same-direction access ended.
 */
TraceSummary summarize(const Trace &trace);

/**
 * Page-level mix of a workload on a given page size: the aggregate
 * inputs the analytic fast-mode estimator (sim/estimator.hh) consumes
 * alongside the per-record walk. Page counts use the device's
 * page-rounded accounting (a record spanning a page boundary costs
 * every page it touches), so they match the NVMHC's byte counters.
 */
struct TraceMix
{
    std::uint64_t records = 0;
    std::uint64_t readPages = 0;
    std::uint64_t writePages = 0;
    std::uint64_t spanPages = 0; //!< highest page touched plus one

    /**
     * Fold @p rec in and return the pages it touches at @p page_size
     * (page-rounded, matching request decomposition). A zero-byte
     * record costs one page, and so does any record at page size 0.
     */
    std::uint64_t
    add(const TraceRecord &rec, std::uint32_t page_size)
    {
        std::uint64_t pages = 1;
        if (page_size > 0) {
            const std::uint64_t bytes =
                std::max<std::uint64_t>(rec.sizeBytes, 1);
            const std::uint64_t first = rec.offsetBytes / page_size;
            const std::uint64_t last =
                (rec.offsetBytes + bytes - 1) / page_size;
            pages = last - first + 1;
            spanPages = std::max(spanPages, last + 1);
        }
        ++records;
        if (rec.isWrite)
            writePages += pages;
        else
            readPages += pages;
        return pages;
    }
};

/** Summarize @p trace as the page-level mix at @p page_size. */
TraceMix summarizeMix(const Trace &trace, std::uint32_t page_size);

} // namespace spk

#endif // SPK_WORKLOAD_TRACE_HH
