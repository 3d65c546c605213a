/**
 * @file
 * Per-I/O chip runs: each queued I/O's pages grouped by chip.
 *
 * Schedulers that pick pages of a few I/Os on chips that can take work
 * (PAS, SPK1) would otherwise visit every page of those I/Os on every
 * decision. ChipRuns groups each I/O's pages at enqueue into one run
 * per chip, in page-index order, chained through
 * MemoryRequest::chipNext, and keeps per tag a mask of the chips whose
 * run may still hold an uncomposed page. A scheduler intersects that
 * mask with the occupancy bitmaps and walks only the runs that
 * survive.
 */

#ifndef SPK_SCHED_CHIP_RUNS_HH
#define SPK_SCHED_CHIP_RUNS_HH

#include <cstdint>
#include <vector>

#include "controller/io_request.hh"

namespace spk
{

class ChipRuns
{
  public:
    /** Size for @p num_chips chips and tags below @p queue_depth. */
    void prepare(std::uint32_t num_chips, std::uint32_t queue_depth);

    /**
     * Group @p io's pages into runs by their current chips, replacing
     * its tag's old runs (at enqueue, and again after a readdress moved
     * one of its pages).
     */
    void build(const IoRequest &io);

    /** 64-bit words per chip mask. */
    std::uint32_t words() const { return words_; }

    /**
     * Chips where @p tag's I/O may still have an uncomposed page,
     * words() words. A bit is cleared once head() finds the run fully
     * composed.
     */
    const std::uint64_t *
    pending(TagId tag) const
    {
        return &pending_[std::size_t{tag} * words_];
    }

    /**
     * First page of @p io's run on @p chip not known to be composed,
     * or nullptr once the whole run is composed (the chip then leaves
     * pending()). Only for chips set in pending(io.tag).
     */
    MemoryRequest *
    head(const IoRequest &io, std::uint32_t chip)
    {
        MemoryRequest *&cursor =
            runHead_[std::size_t{io.tag} * numChips_ + chip];
        while (cursor != nullptr && cursor->composed)
            cursor = next(io, cursor);
        if (cursor == nullptr) {
            pending_[std::size_t{io.tag} * words_ + chip / 64] &=
                ~(std::uint64_t{1} << (chip % 64));
        }
        return cursor;
    }

    /** The page after @p req in its chip run, or nullptr at the end. */
    static MemoryRequest *
    next(const IoRequest &io, const MemoryRequest *req)
    {
        return req->chipNext == kEndOfRun ? nullptr
                                          : io.pages[req->chipNext];
    }

  private:
    std::uint32_t numChips_ = 0;
    std::uint32_t numTags_ = 0;
    std::uint32_t words_ = 0;

    /** Per tag, words_ words: see pending(). */
    std::vector<std::uint64_t> pending_;

    /**
     * Per (tag, chip), numChips_ entries per tag: the run's first page
     * not known to be composed (the composed-prefix cursor). Valid only
     * where the tag's pending_ bit is set.
     */
    std::vector<MemoryRequest *> runHead_;
};

} // namespace spk

#endif // SPK_SCHED_CHIP_RUNS_HH
