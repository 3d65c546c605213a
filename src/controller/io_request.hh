/**
 * @file
 * Host-level I/O request and its queue-entry state.
 *
 * An I/O request enters the NVMHC device-level queue as a tag, is
 * split into page-sized memory requests (composition), and completes
 * when all of them have finished. The paper keeps an eight-byte
 * completion bitmap per queue entry (Section 4.4, "The Order of Output
 * Data"); a count of finished requests does that job here, and a
 * second completion of one request trips the NVMHC's hazard-chain
 * check.
 */

#ifndef SPK_CONTROLLER_IO_REQUEST_HH
#define SPK_CONTROLLER_IO_REQUEST_HH

#include <cstdint>
#include <vector>

#include "flash/mem_request.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * One host I/O request (queue entry).
 *
 * Entries live in a flat slab indexed by the recycled NCQ tag, and
 * their memory requests come from the FlashBackend's arena: pointers
 * into both stay valid until the entry retires, and retiring recycles
 * the storage (the pages vector) instead of freeing it, so enqueue is
 * allocation-free at steady state.
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
     *  by the FlashBackend's memory-request arena (not owned). */
    std::vector<MemoryRequest *> pages;

    /** Requests composed (data movement initiated) so far. */
    std::uint32_t composedCount = 0;

    /** Requests finished so far; == pageCount means done. */
    std::uint32_t finishedCount = 0;

    /** Pages that completed with an unrecoverable fault (uncorrectable
     *  read); non-zero marks the whole I/O as failed in IoResult. */
    std::uint32_t failedPages = 0;

    /** Neighbours on the NVMHC's UncomposedIos list while this I/O
     *  has pages left to compose; nullptr off the list. */
    IoRequest *uncomposedPrev = nullptr;
    IoRequest *uncomposedNext = nullptr;

    bool allComposed() const { return composedCount >= pageCount; }
    bool done() const { return finishedCount >= pageCount; }
};

/**
 * The queued I/Os that still have pages to compose, oldest first.
 *
 * An I/O joins at enqueue and leaves when its last page composes, so
 * a scheduler walking the queue in arrival order never steps over a
 * fully composed I/O. The list is threaded through the I/Os'
 * uncomposedPrev / uncomposedNext links, so joining and leaving never
 * touch the heap.
 */
class UncomposedIos
{
  public:
    /** Forward iterator over the list, oldest first. */
    class Iterator
    {
      public:
        explicit Iterator(IoRequest *io) : io_(io) {}
        IoRequest *operator*() const { return io_; }
        Iterator &
        operator++()
        {
            io_ = io_->uncomposedNext;
            return *this;
        }
        bool operator!=(const Iterator &o) const { return io_ != o.io_; }

      private:
        IoRequest *io_;
    };

    bool empty() const { return head_ == nullptr; }

    /** The oldest I/O with pages to compose, or nullptr. */
    IoRequest *front() const { return head_; }

    Iterator begin() const { return Iterator(head_); }
    Iterator end() const { return Iterator(nullptr); }

    /** Append @p io, the newest queued I/O. */
    void
    pushBack(IoRequest &io)
    {
        io.uncomposedPrev = tail_;
        io.uncomposedNext = nullptr;
        (tail_ != nullptr ? tail_->uncomposedNext : head_) = &io;
        tail_ = &io;
    }

    /** Unlink @p io, which must be on the list. */
    void
    erase(IoRequest &io)
    {
        if (io.uncomposedPrev == nullptr && head_ != &io)
            panic("UncomposedIos::erase I/O not on the list");
        (io.uncomposedPrev != nullptr ? io.uncomposedPrev->uncomposedNext
                                      : head_) = io.uncomposedNext;
        (io.uncomposedNext != nullptr ? io.uncomposedNext->uncomposedPrev
                                      : tail_) = io.uncomposedPrev;
        io.uncomposedPrev = nullptr;
        io.uncomposedNext = nullptr;
    }

  private:
    IoRequest *head_ = nullptr;
    IoRequest *tail_ = nullptr;
};

} // namespace spk

#endif // SPK_CONTROLLER_IO_REQUEST_HH
