#include "ftl/block_manager.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace spk
{

const char *
allocationPolicyName(AllocationPolicy policy)
{
    switch (policy) {
      case AllocationPolicy::ChannelStripe:
        return "channel-stripe";
      case AllocationPolicy::PlaneFirst:
        return "plane-first";
    }
    return "?";
}

BlockManager::BlockManager(const FlashGeometry &geo,
                           std::uint32_t endurance,
                           AllocationPolicy policy, bool parity_reserve,
                           std::uint32_t gc_threshold)
    : geo_(geo), endurance_(endurance), policy_(policy),
      parityReserve_(parity_reserve), gcThreshold_(gc_threshold)
{
    const std::uint64_t n_planes = std::uint64_t{geo.numChips()} *
                                   geo.diesPerChip * geo.planesPerDie;
    planes_.resize(n_planes);
    blocks_.resize(n_planes * geo.blocksPerPlane);
    freeSlots_.resize(n_planes * geo.blocksPerPlane);
    for (std::uint64_t p = 0; p < n_planes; ++p) {
        for (std::uint32_t b = 0; b < geo.blocksPerPlane; ++b)
            freeSlots_[p * geo.blocksPerPlane + b] = b;
        planes_[p].ringLen = geo.blocksPerPlane;
        planes_[p].freeBlocks = geo.blocksPerPlane;
    }
    if (geo.blocksPerPlane < gcThreshold_)
        belowGc_ = n_planes;
}

void
BlockManager::setFreeBlocks(Plane &plane, std::uint32_t n)
{
    const bool was_below = plane.freeBlocks < gcThreshold_;
    const bool is_below = n < gcThreshold_;
    plane.freeBlocks = n;
    if (plane.dead || was_below == is_below)
        return;
    if (is_below)
        ++belowGc_;
    else
        --belowGc_;
}

void
BlockManager::freePushBack(std::uint64_t plane_idx, std::uint32_t blk)
{
    Plane &plane = planes_[plane_idx];
    if (plane.ringLen >= geo_.blocksPerPlane)
        panic("BlockManager free list overflow");
    const std::uint32_t pos =
        (plane.freeHead + plane.ringLen) % geo_.blocksPerPlane;
    freeSlots_[plane_idx * geo_.blocksPerPlane + pos] = blk;
    ++plane.ringLen;
}

std::uint32_t
BlockManager::freePopFront(std::uint64_t plane_idx)
{
    Plane &plane = planes_[plane_idx];
    const std::uint32_t blk =
        freeSlots_[plane_idx * geo_.blocksPerPlane + plane.freeHead];
    plane.freeHead = (plane.freeHead + 1) % geo_.blocksPerPlane;
    --plane.ringLen;
    return blk;
}

std::uint64_t
BlockManager::planeIndexOf(const PhysAddr &addr) const
{
    const std::uint64_t chip = geo_.chipIndex(addr.channel,
                                              addr.chipInChannel);
    const std::uint64_t die_plane =
        std::uint64_t{addr.die} * geo_.planesPerDie + addr.plane;
    const std::uint64_t planes_per_chip =
        std::uint64_t{geo_.diesPerChip} * geo_.planesPerDie;
    switch (policy_) {
      case AllocationPolicy::ChannelStripe:
        return die_plane * geo_.numChips() + chip;
      case AllocationPolicy::PlaneFirst:
        return chip * planes_per_chip + die_plane;
    }
    return 0;
}

PhysAddr
BlockManager::planeAddr(std::uint64_t plane_idx) const
{
    const std::uint64_t planes_per_chip =
        std::uint64_t{geo_.diesPerChip} * geo_.planesPerDie;
    std::uint64_t chip = 0;
    std::uint64_t die_plane = 0;
    switch (policy_) {
      case AllocationPolicy::ChannelStripe:
        chip = plane_idx % geo_.numChips();
        die_plane = plane_idx / geo_.numChips();
        break;
      case AllocationPolicy::PlaneFirst:
        chip = plane_idx / planes_per_chip;
        die_plane = plane_idx % planes_per_chip;
        break;
    }
    PhysAddr addr;
    addr.channel = geo_.channelOfChip(static_cast<std::uint32_t>(chip));
    addr.chipInChannel =
        geo_.chipOffsetOfChip(static_cast<std::uint32_t>(chip));
    addr.die = static_cast<std::uint32_t>(die_plane / geo_.planesPerDie);
    addr.plane = static_cast<std::uint32_t>(die_plane % geo_.planesPerDie);
    return addr;
}

bool
BlockManager::ensureActive(std::uint64_t plane_idx, bool gc_reserve)
{
    Plane &plane = planes_[plane_idx];
    BlockInfo *blocks = planeBlocks(plane_idx);
    if (plane.activeBlock >= 0) {
        const auto &info =
            blocks[static_cast<std::uint32_t>(plane.activeBlock)];
        if (info.writtenPages < geo_.pagesPerBlock)
            return true;
        // Block is full: demote it.
        blocks[static_cast<std::uint32_t>(plane.activeBlock)].state =
            BlockState::Full;
        plane.activeBlock = -1;
    }
    while (plane.ringLen != 0) {
        // Host writes must not consume the last free block: garbage
        // collection needs a migration destination (GC reserve).
        if (!gc_reserve && plane.ringLen <= 1)
            return false;
        const std::uint32_t b = freePopFront(plane_idx);
        if (blocks[b].state != BlockState::Free)
            continue;
        setFreeBlocks(plane, plane.freeBlocks - 1);
        blocks[b].state = BlockState::Active;
        blocks[b].writtenPages = 0;
        plane.activeBlock = static_cast<std::int32_t>(b);
        return true;
    }
    return false;
}

std::optional<Ppn>
BlockManager::allocatePage(std::uint64_t plane_idx, bool gc_reserve)
{
    if (plane_idx >= planes_.size())
        panic("BlockManager::allocatePage bad plane index");
    Plane &plane = planes_[plane_idx];
    if (plane.dead)
        return std::nullopt;
    PhysAddr addr = planeAddr(plane_idx);
    for (;;) {
        if (!ensureActive(plane_idx, gc_reserve))
            return std::nullopt;
        auto &info = planeBlocks(
            plane_idx)[static_cast<std::uint32_t>(plane.activeBlock)];
        const std::uint32_t blk =
            static_cast<std::uint32_t>(plane.activeBlock);
        if (parityReserve_) {
            // Skip the rotating parity slots; the parity engine
            // programs them when the stripe closes.
            while (info.writtenPages < geo_.pagesPerBlock &&
                   (blk + info.writtenPages) % geo_.diesPerChip ==
                       addr.die) {
                ++info.writtenPages;
            }
            if (info.writtenPages >= geo_.pagesPerBlock) {
                info.state = BlockState::Full;
                plane.activeBlock = -1;
                continue;
            }
        }
        addr.block = blk;
        addr.page = info.writtenPages;
        ++info.writtenPages;
        return geo_.compose(addr);
    }
}

const BlockInfo &
BlockManager::block(std::uint64_t plane_idx, std::uint32_t blk) const
{
    if (plane_idx >= planes_.size() || blk >= geo_.blocksPerPlane)
        panic("BlockManager::block bad address");
    return planeBlocks(plane_idx)[blk];
}

void
BlockManager::addValid(std::uint64_t plane_idx, std::uint32_t blk,
                       int delta)
{
    if (plane_idx >= planes_.size() || blk >= geo_.blocksPerPlane)
        panic("BlockManager::addValid bad address");
    auto &info = planeBlocks(plane_idx)[blk];
    if (delta < 0 &&
        info.validPages < static_cast<std::uint32_t>(-delta)) {
        panic("BlockManager::addValid underflow");
    }
    info.validPages =
        static_cast<std::uint32_t>(static_cast<int>(info.validPages) +
                                   delta);
}

bool
BlockManager::eraseBlock(std::uint64_t plane_idx, std::uint32_t blk)
{
    Plane &plane = planes_.at(plane_idx);
    if (blk >= geo_.blocksPerPlane)
        panic("BlockManager::eraseBlock bad block");
    auto &info = planeBlocks(plane_idx)[blk];
    if (info.state == BlockState::Bad)
        panic("BlockManager::eraseBlock on a bad block");
    if (info.validPages != 0)
        panic("BlockManager::eraseBlock with live pages");
    const bool was_free = info.state == BlockState::Free;

    ++info.eraseCount;
    maxErase_ = std::max(maxErase_, info.eraseCount);
    info.writtenPages = 0;

    if (static_cast<std::int32_t>(blk) == plane.activeBlock)
        plane.activeBlock = -1;

    if (info.eraseCount >= endurance_) {
        // Bad block replacement: retire; capacity shrinks.
        info.state = BlockState::Bad;
        ++badBlocks_;
        if (was_free)
            setFreeBlocks(plane, plane.freeBlocks - 1);
        return false;
    }
    if (!was_free) {
        // An already-Free block keeps its one free-list entry.
        info.state = BlockState::Free;
        freePushBack(plane_idx, blk);
        setFreeBlocks(plane, plane.freeBlocks + 1);
    }
    return true;
}

void
BlockManager::retireBlock(std::uint64_t plane_idx, std::uint32_t blk)
{
    Plane &plane = planes_.at(plane_idx);
    if (blk >= geo_.blocksPerPlane)
        panic("BlockManager::retireBlock bad block");
    auto &info = planeBlocks(plane_idx)[blk];
    if (info.state == BlockState::Bad)
        return;
    if (static_cast<std::int32_t>(blk) == plane.activeBlock)
        plane.activeBlock = -1;
    // A retired block may still sit in the free list (fault while
    // Free); ensureActive skips non-Free entries, so it is harmless.
    if (info.state == BlockState::Free)
        setFreeBlocks(plane, plane.freeBlocks - 1);
    info.state = BlockState::Bad;
    ++badBlocks_;
}

void
BlockManager::markPlaneDead(std::uint64_t plane_idx)
{
    Plane &plane = planes_.at(plane_idx);
    if (plane.dead)
        return;
    // Dead planes are not GC candidates: drop out of the count.
    if (plane.freeBlocks < gcThreshold_)
        --belowGc_;
    plane.dead = true;
    ++deadPlanes_;
}

void
BlockManager::revivePlane(std::uint64_t plane_idx)
{
    Plane &plane = planes_.at(plane_idx);
    if (!plane.dead)
        panic("BlockManager::revivePlane on a live plane");
    plane.freeHead = 0;
    plane.ringLen = 0;
    plane.activeBlock = -1;
    for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
        auto &info = planeBlocks(plane_idx)[b];
        if (info.validPages != 0)
            panic("BlockManager::revivePlane with live pages");
        if (info.state == BlockState::Bad)
            continue;
        info.state = BlockState::Free;
        info.writtenPages = 0;
        freePushBack(plane_idx, b);
    }
    // Every entry of the rebuilt list is a Free block.
    plane.freeBlocks = plane.ringLen;
    plane.dead = false;
    --deadPlanes_;
    if (plane.freeBlocks < gcThreshold_)
        ++belowGc_;
}

std::optional<std::uint32_t>
BlockManager::pickGcVictim(std::uint64_t plane_idx) const
{
    const Plane &plane = planes_.at(plane_idx);
    if (plane.dead)
        return std::nullopt;
    std::optional<std::uint32_t> best;
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
        const auto &info = planeBlocks(plane_idx)[b];
        if (info.state != BlockState::Full)
            continue;
        if (info.validPages < best_valid) {
            best_valid = info.validPages;
            best = b;
        }
    }
    return best;
}

std::pair<std::uint32_t, std::uint32_t>
BlockManager::eraseSpread() const
{
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (std::uint64_t p = 0; p < planes_.size(); ++p) {
        // A dead plane's frozen erase counts are not wear the leveler
        // can act on (pickColdestFull skips it too).
        if (planes_[p].dead)
            continue;
        const BlockInfo *blocks = planeBlocks(p);
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            if (blocks[b].state == BlockState::Bad)
                continue;
            lo = std::min(lo, blocks[b].eraseCount);
            hi = std::max(hi, blocks[b].eraseCount);
        }
    }
    if (lo > hi)
        lo = hi;
    return {lo, hi};
}

std::optional<std::pair<std::uint64_t, std::uint32_t>>
BlockManager::pickColdestFull() const
{
    std::optional<std::pair<std::uint64_t, std::uint32_t>> best;
    std::uint32_t best_erase = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t best_valid = 0;
    for (std::uint64_t p = 0; p < planes_.size(); ++p) {
        const auto &plane = planes_[p];
        if (plane.dead)
            continue;
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            const auto &info = planeBlocks(p)[b];
            if (info.state != BlockState::Full)
                continue;
            if (info.eraseCount < best_erase ||
                (info.eraseCount == best_erase &&
                 info.validPages > best_valid)) {
                best_erase = info.eraseCount;
                best_valid = info.validPages;
                best = {p, b};
            }
        }
    }
    return best;
}

std::uint64_t
BlockManager::freePages(std::uint64_t plane_idx) const
{
    const Plane &plane = planes_.at(plane_idx);
    std::uint64_t pages =
        std::uint64_t{plane.freeBlocks} * geo_.pagesPerBlock;
    if (plane.activeBlock >= 0) {
        const auto &info = planeBlocks(
            plane_idx)[static_cast<std::uint32_t>(plane.activeBlock)];
        pages += geo_.pagesPerBlock - info.writtenPages;
    }
    return pages;
}

} // namespace spk
