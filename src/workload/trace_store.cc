#include "workload/trace_store.hh"

namespace spk
{

std::uint64_t
traceDigest(const Trace &trace)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto byte = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    const auto u64 = [&byte](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    u64(trace.size());
    for (const TraceRecord &rec : trace) {
        u64(rec.arrival);
        byte(rec.isWrite ? 1 : 0);
        byte(rec.fua ? 1 : 0);
        u64(rec.offsetBytes);
        u64(rec.sizeBytes);
    }
    return h;
}

const Trace &
TraceRef::emptyTrace()
{
    static const Trace empty;
    return empty;
}

TraceRef
TraceStore::intern(const std::string &name,
                   const std::function<Trace()> &parse)
{
    const auto it = traces_.find(name);
    if (it != traces_.end())
        return it->second;
    return traces_.emplace(name, TraceRef(parse())).first->second;
}

std::uint64_t
TraceStore::totalRecords() const
{
    std::uint64_t total = 0;
    for (const auto &[name, ref] : traces_)
        total += ref.size();
    return total;
}

} // namespace spk
