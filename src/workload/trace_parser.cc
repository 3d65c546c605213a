#include "workload/trace_parser.hh"

#include <charconv>
#include <fstream>
#include <vector>

#include "sim/logging.hh"

namespace spk
{

namespace
{

/** Split a CSV line into at most @p max fields (no quoting). */
std::vector<std::string_view>
splitCsv(const std::string &line, std::size_t max)
{
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    while (fields.size() < max) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.emplace_back(line.data() + start, line.size() - start);
            break;
        }
        fields.emplace_back(line.data() + start, comma - start);
        start = comma + 1;
    }
    return fields;
}

bool
parseU64(std::string_view sv, std::uint64_t &out)
{
    const char *begin = sv.data();
    const char *end = sv.data() + sv.size();
    auto [ptr, ec] = std::from_chars(begin, end, out);
    return ec == std::errc{} && ptr == end;
}

} // namespace

bool
parseMsrLine(const std::string &line, TraceRecord &out)
{
    if (line.empty() || line[0] == '#')
        return false;
    const auto fields = splitCsv(line, 7);
    if (fields.size() < 6)
        return false;

    std::uint64_t timestamp = 0;
    if (!parseU64(fields[0], timestamp))
        return false;

    const std::string_view type = fields[3];
    bool is_write;
    if (type == "Write" || type == "write" || type == "W")
        is_write = true;
    else if (type == "Read" || type == "read" || type == "R")
        is_write = false;
    else
        return false;

    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    if (!parseU64(fields[4], offset) || !parseU64(fields[5], size))
        return false;
    if (size == 0)
        return false;

    out.arrival = timestamp * 100; // filetime (100 ns) -> ns
    out.isWrite = is_write;
    out.fua = false;
    out.offsetBytes = offset;
    out.sizeBytes = size;
    return true;
}

ParseResult
parseMsrTrace(std::istream &in)
{
    ParseResult result;
    std::string line;
    bool have_base = false;
    Tick base = 0;

    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        TraceRecord rec;
        if (!parseMsrLine(line, rec)) {
            ++result.skippedLines;
            continue;
        }
        if (!have_base) {
            base = rec.arrival;
            have_base = true;
        }
        rec.arrival = rec.arrival >= base ? rec.arrival - base : 0;
        result.trace.push_back(rec);
    }
    return result;
}

ParseResult
parseMsrTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: " + path);
    return parseMsrTrace(in);
}

} // namespace spk
