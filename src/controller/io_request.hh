/**
 * @file
 * Host-level I/O request and its queue-entry state.
 *
 * An I/O request enters the NVMHC device-level queue as a tag, is
 * split into page-sized memory requests (composition), and completes
 * when the per-entry memory-request bitmap is fully cleared
 * (Section 4.4, "The Order of Output Data").
 */

#ifndef SPK_CONTROLLER_IO_REQUEST_HH
#define SPK_CONTROLLER_IO_REQUEST_HH

#include <cstdint>
#include <vector>

#include "flash/mem_request.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * One host I/O request (queue entry).
 *
 * Entries live in a flat slab indexed by the recycled NCQ tag, and
 * their memory requests come from a slab owned by the NVMHC: pointers
 * into both stay valid until the entry retires, and retiring recycles
 * the storage (pages vector, bitmap words) instead of freeing it, so
 * enqueue is allocation-free at steady state.
 */
struct IoRequest
{
    TagId tag = kInvalidTag;
    bool active = false; //!< slab slot currently holds a live I/O
    bool isWrite = false;
    bool fua = false; //!< force-unit-access: no reordering around it

    /** Submission queue (host stream) this I/O arrived on. */
    std::uint32_t streamId = 0;

    Lpn firstLpn = 0;
    std::uint32_t pageCount = 0;

    Tick arrival = 0;    //!< host issued the request
    Tick completed = 0;  //!< all memory requests finished

    /** Page-sized children; filled at enqueue (preprocess). Backed
     *  by the NVMHC's memory-request slab (not owned). */
    std::vector<MemoryRequest *> pages;

    /** Requests composed (data movement initiated) so far. */
    std::uint32_t composedCount = 0;

    /** Requests finished so far; == pageCount means done. */
    std::uint32_t finishedCount = 0;

    /** Pages that completed with an unrecoverable fault (uncorrectable
     *  read); non-zero marks the whole I/O as failed in IoResult. */
    std::uint32_t failedPages = 0;

    /**
     * Memory-request completion bitmap (one bit per page, mirroring
     * the paper's eight-byte bitmap per queue entry).
     */
    std::vector<std::uint64_t> bitmap;

    bool allComposed() const { return composedCount >= pageCount; }
    bool done() const { return finishedCount >= pageCount; }

    /** Initialize the bitmap with pageCount set bits. */
    void initBitmap();

    /** Clear the bitmap bit for page @p idx; returns true if was set. */
    bool clearBit(std::uint32_t idx);
};

inline void
IoRequest::initBitmap()
{
    bitmap.assign((pageCount + 63) / 64, ~std::uint64_t{0});
    const std::uint32_t rem = pageCount % 64;
    if (rem != 0 && !bitmap.empty())
        bitmap.back() = (std::uint64_t{1} << rem) - 1;
}

inline bool
IoRequest::clearBit(std::uint32_t idx)
{
    const std::uint32_t word = idx / 64;
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if (word >= bitmap.size() || !(bitmap[word] & bit))
        return false;
    bitmap[word] &= ~bit;
    return true;
}

} // namespace spk

#endif // SPK_CONTROLLER_IO_REQUEST_HH
