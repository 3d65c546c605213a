/**
 * @file
 * Device-wide chip occupancy bitmaps.
 *
 * The flash controllers count, per chip, the committed-but-unfinished
 * requests of every I/O tag. An out-of-order scheduler such as PAS
 * needs one bit of that per (chip, tag): would a request of this tag
 * queue behind another I/O's work on the chip? ChipOccupancy keeps
 * the answer for every chip at once, 64 chips per word:
 *
 *  - idle: the chip has no outstanding request;
 *  - ownedBy(slot): every outstanding request on the chip belongs to
 *    tag slot @c slot (tagSlot(); slot 0 is GC and parity work);
 *  - belowLimit: the chip's FlashController::outstanding() count
 *    (pending plus in-flight requests) is below loadLimit().
 *
 * A chip is free for a request of tag T exactly when its bit is set in
 * idle | ownedBy(tagSlot(T)). Per chip it keeps the number of distinct
 * owning slots plus the XOR of their slot numbers: while there is one
 * owner, the XOR is that owner's slot.
 *
 * The load row is not derived from idle: a read held for a soft
 * decode keeps its tag's count (the chip is not idle) but has left
 * pending and in-flight (its outstanding() count is 0). Its limit is
 * the reading scheduler's IoScheduler::loadLimit(); 0, the default,
 * leaves the row empty.
 */

#ifndef SPK_CONTROLLER_CHIP_OCCUPANCY_HH
#define SPK_CONTROLLER_CHIP_OCCUPANCY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace spk
{

class ChipOccupancy
{
  public:
    ChipOccupancy() = default;

    /** @p num_slots tag slots (queue depth + 1), every chip idle. */
    ChipOccupancy(std::uint32_t num_chips, std::uint32_t num_slots)
        : numChips_(num_chips),
          numSlots_(num_slots),
          words_((num_chips + 63) / 64),
          bits_(std::size_t{words_} * (num_slots + 2), 0),
          owners_(num_chips)
    {
        for (std::uint32_t chip = 0; chip < num_chips; ++chip)
            setBit(kIdleRow, chip);
    }

    /** Idle-chip bitmap, one bit per chip, (chips + 63) / 64 words. */
    const std::uint64_t *idleWords() const { return bits_.data(); }

    /** Chips below loadLimit(), laid out like idleWords(). */
    const std::uint64_t *
    belowLimitWords() const
    {
        return bits_.data() + kLoadRow * words_;
    }

    /** Chips owned entirely by @p slot, laid out like idleWords(). */
    const std::uint64_t *
    ownedWords(std::size_t slot) const
    {
        return bits_.data() + ownerRow(slot) * words_;
    }

    bool idle(std::uint32_t chip) const { return testBit(kIdleRow, chip); }

    bool
    belowLimit(std::uint32_t chip) const
    {
        return testBit(kLoadRow, chip);
    }

    bool
    ownedBy(std::uint32_t chip, std::size_t slot) const
    {
        return testBit(ownerRow(slot), chip);
    }

    std::uint32_t loadLimit() const { return loadLimit_; }

    /**
     * Set the load row's limit. Only while every chip is idle, where
     * every load is 0: the row then holds every chip iff @p limit > 0.
     */
    void
    setLoadLimit(std::uint32_t limit)
    {
        loadLimit_ = limit;
        for (std::uint32_t chip = 0; chip < numChips_; ++chip) {
            if (!idle(chip))
                panic("ChipOccupancy::setLoadLimit with work outstanding");
            setLoad(chip, 0);
        }
    }

    /** @p chip's outstanding() count is now @p outstanding. */
    void
    setLoad(std::uint32_t chip, std::uint32_t outstanding)
    {
        if (outstanding < loadLimit_)
            setBit(kLoadRow, chip);
        else
            clearBit(kLoadRow, chip);
    }

    /** @p slot gained its first outstanding request on @p chip. */
    void
    addOwner(std::uint32_t chip, std::size_t slot)
    {
        if (slot >= numSlots_ || chip >= numChips_)
            panic("ChipOccupancy::addOwner out of range");
        Owners &o = owners_[chip];
        if (o.count == 0)
            clearBit(kIdleRow, chip);
        else if (o.count == 1)
            clearBit(ownerRow(o.slotXor), chip);
        ++o.count;
        o.slotXor ^= static_cast<std::uint32_t>(slot);
        if (o.count == 1)
            setBit(ownerRow(o.slotXor), chip);
    }

    /** @p slot's last outstanding request on @p chip finished. */
    void
    removeOwner(std::uint32_t chip, std::size_t slot)
    {
        Owners &o = owners_[chip];
        if (o.count == 0)
            panic("ChipOccupancy::removeOwner on an idle chip");
        if (o.count == 1)
            clearBit(ownerRow(o.slotXor), chip);
        --o.count;
        o.slotXor ^= static_cast<std::uint32_t>(slot);
        if (o.count == 0)
            setBit(kIdleRow, chip);
        else if (o.count == 1)
            setBit(ownerRow(o.slotXor), chip);
    }

  private:
    struct Owners
    {
        std::uint32_t count = 0;   //!< distinct slots with requests
        std::uint32_t slotXor = 0; //!< XOR of those slots
    };

    static constexpr std::size_t kIdleRow = 0;
    static constexpr std::size_t kLoadRow = 1;

    /** Row of ownedBy(@p slot), after the idle and load rows. */
    static std::size_t ownerRow(std::size_t slot) { return slot + 2; }

    bool
    testBit(std::size_t row, std::uint32_t chip) const
    {
        return (bits_[row * words_ + chip / 64] >> (chip % 64)) & 1;
    }

    void
    setBit(std::size_t row, std::uint32_t chip)
    {
        bits_[row * words_ + chip / 64] |= std::uint64_t{1} << (chip % 64);
    }

    void
    clearBit(std::size_t row, std::uint32_t chip)
    {
        bits_[row * words_ + chip / 64] &=
            ~(std::uint64_t{1} << (chip % 64));
    }

    std::uint32_t numChips_ = 0;
    std::uint32_t numSlots_ = 0;
    std::uint32_t words_ = 0;
    std::uint32_t loadLimit_ = 0;
    std::vector<std::uint64_t> bits_;
    std::vector<Owners> owners_;
};

} // namespace spk

#endif // SPK_CONTROLLER_CHIP_OCCUPANCY_HH
