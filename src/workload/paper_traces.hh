/**
 * @file
 * The sixteen Table 1 workloads as synthetic trace configurations.
 *
 * The public MSR Cambridge traces are not redistributable here, so
 * each workload is regenerated synthetically from the exact statistics
 * Table 1 reports: read/write transfer totals, instruction counts
 * (which fix the mean request sizes), randomness percentages and the
 * transactional-locality class.
 */

#ifndef SPK_WORKLOAD_PAPER_TRACES_HH
#define SPK_WORKLOAD_PAPER_TRACES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/synthetic.hh"

namespace spk
{

/** One Table 1 row. */
struct PaperTraceInfo
{
    const char *name;
    double readMB;      //!< total read transfer (MB)
    double writeMB;     //!< total write transfer (MB)
    double readKiloOps; //!< read instructions (thousands)
    double writeKiloOps;
    double readRandomPct;
    double writeRandomPct;
    const char *locality; //!< "Low" / "Medium" / "High"

    /** Mean read request size in bytes (clamped to [2 KB, 4 MB]). */
    std::uint64_t avgReadBytes() const;

    /** Mean write request size in bytes (clamped to [2 KB, 4 MB]). */
    std::uint64_t avgWriteBytes() const;
};

/** All sixteen Table 1 rows, in paper order. */
const std::vector<PaperTraceInfo> &paperTraces();

/** Look up a row by name; fatal() if unknown. */
const PaperTraceInfo &paperTrace(const std::string &name);

/**
 * Build the synthetic configuration replaying a Table 1 workload.
 *
 * @param info the Table 1 row
 * @param num_ios how many I/Os to generate (the paper's traces are
 *        hours long; experiments replay a scaled prefix)
 * @param span_bytes addressable span (bounded by device capacity)
 * @param seed RNG seed
 */
SyntheticConfig paperTraceConfig(const PaperTraceInfo &info,
                                 std::uint64_t num_ios,
                                 std::uint64_t span_bytes,
                                 std::uint64_t seed);

/** Convenience: config + generation in one call. */
Trace generatePaperTrace(const std::string &name, std::uint64_t num_ios,
                         std::uint64_t span_bytes, std::uint64_t seed);

} // namespace spk

#endif // SPK_WORKLOAD_PAPER_TRACES_HH
