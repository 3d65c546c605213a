#include "ftl/mapping.hh"

#include <string>

#include "sim/logging.hh"

namespace spk
{

namespace
{

/** @p logical_pages, once both page spaces are known to fit 32-bit
 *  entries; called before either table is sized. */
std::uint64_t
checkedLogicalPages(const FlashGeometry &geo, std::uint64_t logical_pages)
{
    if (geo.totalPages() >= ~std::uint32_t{0})
        fatal("PageMapping: " + std::to_string(geo.totalPages()) +
              " physical pages do not fit 32-bit mapping entries "
              "(the limit is 2^32 - 2)");
    if (logical_pages > geo.totalPages())
        fatal("PageMapping: logical capacity exceeds physical capacity");
    return logical_pages;
}

} // namespace

PageMapping::PageMapping(const FlashGeometry &geo,
                         std::uint64_t logical_pages)
    : l2p_(checkedLogicalPages(geo, logical_pages), kNone),
      p2l_(geo.totalPages(), kNone)
{
}

Ppn
PageMapping::lookup(Lpn lpn) const
{
    if (lpn >= l2p_.size())
        panic("PageMapping::lookup out-of-range lpn");
    return widen(l2p_[lpn]);
}

Lpn
PageMapping::reverseLookup(Ppn ppn) const
{
    if (ppn >= p2l_.size())
        panic("PageMapping::reverseLookup out-of-range ppn");
    return widen(p2l_[ppn]);
}

bool
PageMapping::isValid(Ppn ppn) const
{
    if (ppn >= p2l_.size())
        panic("PageMapping::isValid out-of-range ppn");
    return p2l_[ppn] != kNone;
}

Ppn
PageMapping::bind(Lpn lpn, Ppn ppn)
{
    if (lpn >= l2p_.size())
        panic("PageMapping::bind out-of-range lpn");
    if (ppn >= p2l_.size())
        panic("PageMapping::bind out-of-range ppn");
    if (p2l_[ppn] != kNone)
        panic("PageMapping::bind to a page that already holds live data");

    const std::uint32_t old = l2p_[lpn];
    if (old != kNone) {
        p2l_[old] = kNone;
        --live_;
    }
    // Both spaces are below kNone (checked at construction).
    l2p_[lpn] = static_cast<std::uint32_t>(ppn);
    p2l_[ppn] = static_cast<std::uint32_t>(lpn);
    ++live_;
    return widen(old);
}

void
PageMapping::restore(const std::vector<std::uint32_t> &forward)
{
    if (forward.size() != l2p_.size())
        panic("PageMapping::restore: forward table of " +
              std::to_string(forward.size()) + " pages into a mapping of " +
              std::to_string(l2p_.size()));
    l2p_ = forward;
    p2l_.assign(p2l_.size(), kNone);
    live_ = 0;
    for (std::uint64_t lpn = 0; lpn < l2p_.size(); ++lpn) {
        const std::uint32_t ppn = l2p_[lpn];
        if (ppn == kNone)
            continue;
        if (ppn >= p2l_.size() || p2l_[ppn] != kNone)
            panic("PageMapping::restore: forward table is not a "
                  "one-to-one mapping");
        p2l_[ppn] = static_cast<std::uint32_t>(lpn);
        ++live_;
    }
}

} // namespace spk
