#include "workload/trace.hh"

namespace spk
{

TraceSummary
summarize(const Trace &trace)
{
    TraceSummary s;
    std::uint64_t next_read = ~std::uint64_t{0};
    std::uint64_t next_write = ~std::uint64_t{0};
    std::uint64_t random_reads = 0;
    std::uint64_t random_writes = 0;

    for (const auto &rec : trace) {
        if (rec.isWrite) {
            s.writeBytes += rec.sizeBytes;
            s.writeCount += 1;
            if (rec.offsetBytes != next_write)
                ++random_writes;
            next_write = rec.offsetBytes + rec.sizeBytes;
        } else {
            s.readBytes += rec.sizeBytes;
            s.readCount += 1;
            if (rec.offsetBytes != next_read)
                ++random_reads;
            next_read = rec.offsetBytes + rec.sizeBytes;
        }
    }
    if (s.readCount > 0) {
        s.readRandomness = 100.0 * static_cast<double>(random_reads) /
                           static_cast<double>(s.readCount);
    }
    if (s.writeCount > 0) {
        s.writeRandomness = 100.0 * static_cast<double>(random_writes) /
                            static_cast<double>(s.writeCount);
    }
    return s;
}

TraceMix
summarizeMix(const Trace &trace, std::uint32_t page_size)
{
    TraceMix mix;
    for (const auto &rec : trace)
        mix.add(rec, page_size);
    return mix;
}

} // namespace spk
