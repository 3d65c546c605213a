/**
 * @file
 * Parser for MSR Cambridge block traces (SNIA IOTTA format; the
 * paper's cfs/hm/msnfs/proj traces [28, 33]) into the common Trace
 * type.
 *
 * The format is CSV, one I/O per line:
 *   Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
 * Timestamp is in Windows filetime units (100 ns); Type is "Read" or
 * "Write"; Offset and Size are in bytes. Lines starting with '#' are
 * comments.
 */

#ifndef SPK_WORKLOAD_TRACE_PARSER_HH
#define SPK_WORKLOAD_TRACE_PARSER_HH

#include <istream>
#include <string>

#include "workload/trace.hh"

namespace spk
{

/** Result of a parse, including skipped-line diagnostics. */
struct ParseResult
{
    Trace trace;
    std::uint64_t skippedLines = 0;
};

/**
 * Parse an MSR-format trace from a stream. Arrival times are
 * rebased so the first record arrives at tick 0. Malformed lines
 * are skipped and counted.
 */
ParseResult parseMsrTrace(std::istream &in);

/** Parse from a file path; fatal() if the file cannot be opened. */
ParseResult parseMsrTraceFile(const std::string &path);

/** Parse one CSV line; returns false if malformed. */
bool parseMsrLine(const std::string &line, TraceRecord &out);

} // namespace spk

#endif // SPK_WORKLOAD_TRACE_PARSER_HH
