/**
 * @file
 * Device-wide record of what holds each chip.
 *
 * A committed request holds its chip under its I/O's tag slot
 * (tagSlot(); slot 0 is GC and parity work) until it completes,
 * through any read retries and soft decode: the flash controllers
 * call hold() at commit and release() at completion. ChipOccupancy
 * counts those holds per (chip, slot) and keeps these rows, one bit
 * per chip, 64 chips per word:
 *
 *  - idle: no request holds the chip;
 *  - ownedBy(slot): every request holding the chip is of @c slot;
 *  - belowLimit: the chip's load, its pending plus in-flight
 *    requests as its controller reports them through setLoad(), is
 *    below loadLimit().
 *
 * A chip is free for a request of tag T exactly when its bit is set in
 * idle | ownedBy(tagSlot(T)). Per chip it keeps the number of distinct
 * holding slots plus the XOR of their slot numbers: while there is one
 * owner, the XOR is that owner's slot.
 *
 * The load row is not derived from idle: a read held for a soft
 * decode still holds its chip (the chip is not idle) but has left
 * pending and in flight, so it adds no load. Its limit is the reading
 * scheduler's IoScheduler::loadLimit(); 0, the default, leaves the
 * row empty.
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
          owners_(num_chips),
          holds_(std::size_t{num_chips} * num_slots, 0)
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

    /** @p chip's load (pending plus in-flight requests) is now
     *  @p load. */
    void
    setLoad(std::uint32_t chip, std::uint32_t load)
    {
        if (load < loadLimit_)
            setBit(kLoadRow, chip);
        else
            clearBit(kLoadRow, chip);
    }

    /** A request of tag slot @p slot now holds @p chip. */
    void
    hold(std::uint32_t chip, std::size_t slot)
    {
        if (chip >= numChips_ || slot >= numSlots_)
            panic("ChipOccupancy::hold out of range");
        if (holds_[std::size_t{chip} * numSlots_ + slot]++ == 0)
            addOwner(chip, slot);
    }

    /** A request of tag slot @p slot that held @p chip completed. */
    void
    release(std::uint32_t chip, std::size_t slot)
    {
        const std::size_t i = std::size_t{chip} * numSlots_ + slot;
        if (chip >= numChips_ || slot >= numSlots_ || holds_[i] == 0)
            panic("ChipOccupancy::release without a hold");
        if (--holds_[i] == 0)
            removeOwner(chip, slot);
    }

  private:
    struct Owners
    {
        std::uint32_t count = 0;   //!< distinct slots holding the chip
        std::uint32_t slotXor = 0; //!< XOR of those slots
    };

    static constexpr std::size_t kIdleRow = 0;
    static constexpr std::size_t kLoadRow = 1;

    /** Row of ownedBy(@p slot), after the idle and load rows. */
    static std::size_t ownerRow(std::size_t slot) { return slot + 2; }

    /** @p slot took its first hold on @p chip. */
    void
    addOwner(std::uint32_t chip, std::size_t slot)
    {
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

    /** @p slot's last hold on @p chip ended. */
    void
    removeOwner(std::uint32_t chip, std::size_t slot)
    {
        Owners &o = owners_[chip];
        if (o.count == 1)
            clearBit(ownerRow(o.slotXor), chip);
        --o.count;
        o.slotXor ^= static_cast<std::uint32_t>(slot);
        if (o.count == 0)
            setBit(kIdleRow, chip);
        else if (o.count == 1)
            setBit(ownerRow(o.slotXor), chip);
    }

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
    /** Holds per (chip, slot), numSlots_ slots per chip. */
    std::vector<std::uint32_t> holds_;
};

} // namespace spk

#endif // SPK_CONTROLLER_CHIP_OCCUPANCY_HH
