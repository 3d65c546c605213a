/**
 * @file
 * Die-level RAID parity stripe map.
 *
 * With parity enabled, the pages at identical (chip, plane, block,
 * page) coordinates across the D dies of a chip form one stripe. One
 * rotating member — die (block + page) % D — is the stripe's parity
 * page; the allocator never hands it to data, and the parity engine
 * programs it when the stripe closes. A read that fails on one die
 * reconstructs from the surviving D-1 members.
 *
 * The map is pure metadata: one 32-bit member mask per stripe, where
 * bit d means die d's page holds committed content. The parity die's
 * bit doubles as the "parity has been programmed" flag, so stripe
 * state costs totalPages / diesPerChip x 4 bytes and every query is
 * O(1) arithmetic. Timing (member re-reads, parity programs,
 * reconstruction fan-out) is charged by the ParityEngine; this class
 * only answers "which pages belong together and which are written".
 */

#ifndef SPK_FTL_PARITY_MAP_HH
#define SPK_FTL_PARITY_MAP_HH

#include <cstdint>
#include <vector>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/** Stripe identifier: dense index over (chip, plane, block, page). */
using StripeId = std::uint64_t;

class StripeParityMap
{
  public:
    explicit StripeParityMap(const FlashGeometry &geo);

    /** Stripes in the device: totalPages / diesPerChip. */
    std::uint64_t stripeCount() const { return masks_.size(); }

    /** Rotating parity member for a (block, page) slot. */
    static std::uint32_t
    parityDieOf(std::uint32_t block, std::uint32_t page,
                std::uint32_t dies)
    {
        return (block + page) % dies;
    }

    /** True when (die, block, page) is a reserved parity slot. */
    static bool
    isParitySlot(std::uint32_t die, std::uint32_t block,
                 std::uint32_t page, std::uint32_t dies)
    {
        return parityDieOf(block, page, dies) == die;
    }

    /** Stripe any member page belongs to. */
    StripeId stripeOf(Ppn ppn) const;

    /** Parity die of a stripe. */
    std::uint32_t parityDie(StripeId stripe) const;

    /** Member page of @p stripe on @p die. */
    Ppn memberPpn(StripeId stripe, std::uint32_t die) const;

    /** The stripe's parity page. */
    Ppn parityPpn(StripeId stripe) const
    {
        return memberPpn(stripe, parityDie(stripe));
    }

    /** True when @p ppn is a reserved parity slot. */
    bool isParityPage(Ppn ppn) const;

    /** Record a data member as programmed. Panics on parity slots.
     *  Idempotent: an in-flight migration program can complete after
     *  its destination block was already erased and reallocated. */
    void markDataWritten(Ppn ppn);

    /** Record the stripe's parity page as programmed. */
    void markParityWritten(StripeId stripe)
    {
        masks_[stripe] |= maskBit(parityDie(stripe));
    }

    /** Drop the parity flag: the parity program failed or a close
     *  could not compute the parity content. */
    void clearParityWritten(StripeId stripe)
    {
        masks_[stripe] &= ~maskBit(parityDie(stripe));
    }

    /** Raw member mask (data bits plus the parity bit). */
    std::uint32_t mask(StripeId stripe) const { return masks_[stripe]; }

    /** Data-member bits only (parity bit masked off). */
    std::uint32_t
    dataMask(StripeId stripe) const
    {
        return masks_[stripe] & ~maskBit(parityDie(stripe));
    }

    bool
    parityWritten(StripeId stripe) const
    {
        return (masks_[stripe] & maskBit(parityDie(stripe))) != 0;
    }

    /** True when every data member (all dies but the parity one) is
     *  written. */
    bool fullyWritten(StripeId stripe) const;

    /**
     * Forget every member of (plane-group, block) on @p die — the
     * block was erased or retired. A stripe that loses a data member
     * while others remain also drops its parity flag: the stored
     * parity no longer matches the surviving members, so advertising
     * reconstructability would be dishonest. (Group GC erases all
     * members back-to-back and leaves the stripes empty either way.)
     */
    void clearBlock(Ppn block_base_ppn, std::uint32_t die);

    /** Forget every member on (chip, die): die revival after rebuild
     *  erases the die's blocks wholesale. */
    void clearDie(std::uint32_t chip, std::uint32_t die);

    /** First stripe of @p chip (stripes are chip-major). */
    StripeId
    chipStripeBase(std::uint32_t chip) const
    {
        return std::uint64_t{chip} * stripesPerChip_;
    }

    std::uint64_t stripesPerChip() const { return stripesPerChip_; }

    std::uint32_t dies() const { return dies_; }

    /** Every stripe's raw mask, indexed by StripeId. */
    const std::vector<std::uint32_t> &masks() const { return masks_; }

    /** Replace every mask with @p masks (a masks() of a map of the
     *  same geometry); panics on a size mismatch. */
    void restoreMasks(const std::vector<std::uint32_t> &masks);

  private:
    static std::uint32_t maskBit(std::uint32_t die)
    {
        return 1u << die;
    }

    FlashGeometry geo_;
    std::uint32_t dies_;
    std::uint64_t stripesPerChip_;
    std::vector<std::uint32_t> masks_;
};

} // namespace spk

#endif // SPK_FTL_PARITY_MAP_HH
