#include "workload/trace.hh"

#include <algorithm>

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

void
TraceMix::merge(const TraceMix &other)
{
    if (other.records == 0)
        return;
    if (records == 0) {
        *this = other;
        return;
    }
    records += other.records;
    readRecords += other.readRecords;
    writeRecords += other.writeRecords;
    readPages += other.readPages;
    writePages += other.writePages;
    firstArrival = std::min(firstArrival, other.firstArrival);
    lastArrival = std::max(lastArrival, other.lastArrival);
    spanPages = std::max(spanPages, other.spanPages);
}

std::uint64_t
recordPages(const TraceRecord &rec, std::uint32_t page_size)
{
    if (page_size == 0)
        return 1;
    if (rec.sizeBytes == 0)
        return 1;
    const std::uint64_t first = rec.offsetBytes / page_size;
    const std::uint64_t last =
        (rec.offsetBytes + rec.sizeBytes - 1) / page_size;
    return last - first + 1;
}

TraceMix
summarizeMix(const Trace &trace, std::uint32_t page_size)
{
    TraceMix mix;
    for (const auto &rec : trace) {
        const std::uint64_t pages = recordPages(rec, page_size);
        if (mix.records == 0) {
            mix.firstArrival = rec.arrival;
            mix.lastArrival = rec.arrival;
        } else {
            mix.firstArrival = std::min(mix.firstArrival, rec.arrival);
            mix.lastArrival = std::max(mix.lastArrival, rec.arrival);
        }
        ++mix.records;
        if (rec.isWrite) {
            ++mix.writeRecords;
            mix.writePages += pages;
        } else {
            ++mix.readRecords;
            mix.readPages += pages;
        }
        if (page_size > 0) {
            const std::uint64_t end =
                (rec.offsetBytes + std::max<std::uint64_t>(
                                       rec.sizeBytes, 1) - 1) /
                    page_size + 1;
            mix.spanPages = std::max(mix.spanPages, end);
        }
    }
    return mix;
}

} // namespace spk
