/**
 * @file
 * Pure page-level address mapping (logical page -> physical page).
 *
 * Keeps the forward map and the reverse map (for garbage collection);
 * a physical page is valid exactly when the reverse map names a
 * logical page for it. The paper's FTL is "a pure page-level address
 * mapping FTL" (Section 5.1); this is that.
 */

#ifndef SPK_FTL_MAPPING_HH
#define SPK_FTL_MAPPING_HH

#include <cstdint>
#include <vector>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Page-level mapping table.
 *
 * All tables are dense vectors indexed by Lpn / Ppn; the geometry's
 * page counts bound both spaces. Validity lives here (not in the
 * block manager) because it is a property of the mapping.
 *
 * Entries are 32-bit, with ~0u as the unmapped sentinel, and widen to
 * the 64-bit Lpn/Ppn (kInvalidPage) at this interface. Halving the
 * entries halves the tables that preconditioning writes once per page,
 * which cuts its cache and TLB misses, and it is what lets a sweep
 * keep one preconditioned device image resident beside a live device
 * (DeviceArray) within the memory one 64-bit device used. Every
 * geometry in the repo fits: the 1024-chip default has 67M pages. A
 * device of 2^32 - 1 pages or more fatal()s at construction, before
 * any table is sized.
 */
class PageMapping
{
  public:
    /**
     * @param geo device geometry (fixes the physical page count)
     * @param logical_pages exported logical capacity in pages; must
     *        not exceed the physical page count
     */
    PageMapping(const FlashGeometry &geo, std::uint64_t logical_pages);

    std::uint64_t logicalPages() const { return l2p_.size(); }
    std::uint64_t physicalPages() const { return p2l_.size(); }

    /** Physical page holding @p lpn, or kInvalidPage if unwritten. */
    Ppn lookup(Lpn lpn) const;

    /** Logical page stored at @p ppn, or kInvalidPage if free/stale. */
    Lpn reverseLookup(Ppn ppn) const;

    /** True if @p ppn holds live data. */
    bool isValid(Ppn ppn) const;

    /**
     * Bind @p lpn to @p ppn, invalidating any previous binding.
     * @return the previous physical page, or kInvalidPage.
     */
    Ppn bind(Lpn lpn, Ppn ppn);

    /** Number of live pages currently mapped. */
    std::uint64_t liveCount() const { return live_; }

    /** The forward table as stored: one entry per Lpn, ~0u when
     *  unwritten. With it, restore() rebuilds the whole mapping. */
    const std::vector<std::uint32_t> &forwardTable() const
    {
        return l2p_;
    }

    /**
     * Replace the mapping with @p forward (a forwardTable() of a
     * mapping of the same size): the reverse table and the live count
     * are rebuilt from it in one pass. That is exact because bind()
     * keeps p2l[ppn] == lpn exactly when l2p[lpn] == ppn. Panics on
     * a size mismatch, an out-of-range entry, or two Lpns naming one
     * Ppn.
     */
    void restore(const std::vector<std::uint32_t> &forward);

  private:
    static constexpr std::uint32_t kNone = ~0u;

    static std::uint64_t widen(std::uint32_t entry)
    {
        return entry == kNone ? kInvalidPage : entry;
    }

    std::vector<std::uint32_t> l2p_;
    std::vector<std::uint32_t> p2l_; //!< kNone: free or stale page
    std::uint64_t live_ = 0;
};

} // namespace spk

#endif // SPK_FTL_MAPPING_HH
