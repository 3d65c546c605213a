/**
 * @file
 * Flash chip state and occupancy accounting.
 *
 * A chip exposes a single ready/busy (R/B) signal: while a transaction
 * occupies the chip nothing else may be submitted to it (Section 2.2).
 * The chip records, per transaction, how much of its internal die and
 * plane capacity was actually active -- the basis of the paper's
 * intra-chip idleness and FLP-breakdown metrics.
 */

#ifndef SPK_FLASH_CHIP_HH
#define SPK_FLASH_CHIP_HH

#include <array>
#include <cstdint>

#include "flash/geometry.hh"
#include "flash/transaction.hh"
#include "sim/types.hh"

namespace spk
{

/** Per-chip occupancy statistics, exported to the metric layer. */
struct ChipStats
{
    Tick busyTime = 0;        //!< total R/B=busy span
    Tick cellTime = 0;        //!< sum of cell phase durations
    Tick planeActiveTime = 0; //!< sum of duration x active planes
    std::uint64_t transactions = 0;
    std::uint64_t requestsServed = 0;
    std::array<std::uint64_t, 4> reqPerClass{};  //!< requests by class
};

/**
 * One NAND flash chip.
 *
 * The chip itself is passive: the flash controller computes the
 * transaction timeline and calls beginTransaction/endTransaction; the
 * chip maintains the R/B signal and the statistics.
 */
class FlashChip
{
  public:
    FlashChip(std::uint32_t index, const FlashGeometry &geo)
        : index_(index),
          planesPerChip_(geo.diesPerChip * geo.planesPerDie)
    {}

    std::uint32_t index() const { return index_; }

    /** R/B signal: true while a transaction occupies the chip. */
    bool busy() const { return busyUntil_ != 0 && busyUntil_ > lastNow_; }

    /** Absolute tick the current transaction releases the chip. */
    Tick busyUntil() const { return busyUntil_; }

    /**
     * Record a transaction executing on this chip.
     *
     * @param start  absolute start tick
     * @param end    absolute completion tick
     * @param plan   precomputed timeline (cell phases, bus holds)
     * @param flp    FLP classification of the transaction
     * @param n_reqs number of memory requests in the transaction
     */
    void beginTransaction(Tick start, Tick end, const TransactionPlan &plan,
                          FlpClass flp, std::size_t n_reqs);

    /**
     * Extend the current transaction's busy window (used when the
     * data-out bus grant lands later than the optimistic estimate).
     */
    void extendBusy(Tick new_end);

    /** Query helper: can a transaction start at @p now? */
    bool readyAt(Tick now) const { return busyUntil_ <= now; }

    const ChipStats &stats() const { return stats_; }

    std::uint32_t planesPerChip() const { return planesPerChip_; }

  private:
    std::uint32_t index_;
    std::uint32_t planesPerChip_;
    Tick busyUntil_ = 0;
    Tick lastNow_ = 0;
    ChipStats stats_;
};

} // namespace spk

#endif // SPK_FLASH_CHIP_HH
