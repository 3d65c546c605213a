#include "flash/transaction.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "sim/logging.hh"

namespace spk
{

FlpClass
FlashTransaction::classify() const
{
    // plane_use[d] = set of planes addressed in die d; die_mask = set
    // of dies addressed. Fixed-size: die indices are bounded by
    // kMaxDiesPerChip (geometry validate()). A set m has two or more
    // members exactly when m & (m - 1) != 0, tested on each die's set
    // as it grows, so only the dies in use are touched (std::popcount
    // is an out-of-line libgcc call without -mpopcnt).
    std::array<std::uint32_t, kMaxDiesPerChip> plane_use{};
    std::uint32_t die_mask = 0;
    bool multi_plane = false;
    for (const auto *req : requests_) {
        const std::uint32_t planes =
            plane_use[req->addr.die] |= 1u << req->addr.plane;
        multi_plane = multi_plane || (planes & (planes - 1)) != 0;
        die_mask |= 1u << req->addr.die;
    }
    const bool multi_die = (die_mask & (die_mask - 1)) != 0;

    if (multi_die && multi_plane)
        return FlpClass::Pal3;
    if (multi_die)
        return FlpClass::Pal2;
    if (multi_plane)
        return FlpClass::Pal1;
    return FlpClass::NonPal;
}

bool
FlashTransaction::valid() const
{
    if (requests_.empty())
        return false;

    // (die, plane) uniqueness and the same-page multiplane rule.
    std::array<std::uint32_t, kMaxDiesPerChip> plane_use{};
    std::array<std::uint32_t, kMaxDiesPerChip> die_page{};
    for (const auto *req : requests_) {
        if (!req->translated || req->chip != chip_ || req->op != op_)
            return false;
        if (req->addr.die >= kMaxDiesPerChip ||
            req->addr.plane >= kMaxPlanesPerDie) {
            return false;
        }
        const std::uint32_t plane_bit = 1u << req->addr.plane;
        auto &mask = plane_use[req->addr.die];
        if (mask & plane_bit)
            return false; // two requests on one plane
        if (mask != 0 && die_page[req->addr.die] != req->addr.page)
            return false; // multiplane requires identical page offset
        mask |= plane_bit;
        die_page[req->addr.die] = req->addr.page;
    }
    return true;
}

bool
canCoalesce(const FlashTransaction &txn, const MemoryRequest &req)
{
    if (txn.empty())
        return true;
    if (!req.translated || req.chip != txn.chip() || req.op != txn.op())
        return false;
    const CoalesceKey key = CoalesceKey::of(req);
    for (const auto *existing : txn.requests()) {
        if (!coalescible(CoalesceKey::of(*existing), key))
            return false;
    }
    return true;
}

TransactionPlan
FlashTransaction::plan(const FlashTiming &timing,
                       std::uint32_t page_bytes) const
{
    if (!valid())
        panic("FlashTransaction::plan on invalid transaction");

    TransactionPlan out;

    // Dies in insertion order of their first request; requests stay in
    // insertion order within each die (filtered scan below).
    StaticVec<std::uint32_t, kMaxDiesPerChip> die_order;
    std::uint32_t seen_mask = 0;
    for (const auto *req : requests_) {
        const std::uint32_t bit = 1u << req->addr.die;
        if (!(seen_mask & bit)) {
            seen_mask |= bit;
            die_order.push_back(req->addr.die);
        }
    }

    // Phase 1: one channel hold covering commands/addresses for every
    // request, plus data-in for programs. Each die's cell phase starts
    // as soon as its own commands finish (die interleaving).
    Tick cursor = 0;
    std::uint32_t planes_touched = 0;
    for (const auto die : die_order) {
        CellPhase cell;
        cell.die = die;
        Tick cell_duration = 0;
        for (const auto *req : requests_) {
            if (req->addr.die != die)
                continue;
            cursor += timing.commandOverhead;
            if (op_ == FlashOp::Program) {
                cursor += timing.transferTime(page_bytes);
                cell_duration = std::max(
                    cell_duration, timing.programLatency(req->addr.page));
            }
            cell.planeMask |= 1u << req->addr.plane;
        }
        cell.start = cursor;
        planes_touched +=
            static_cast<std::uint32_t>(std::popcount(cell.planeMask));

        switch (op_) {
          case FlashOp::Read:
            cell.duration = timing.readLatency;
            break;
          case FlashOp::Program:
            // Multiplane program completes when the slowest page does.
            cell.duration = cell_duration;
            break;
          case FlashOp::Erase:
            cell.duration = timing.eraseLatency;
            break;
        }
        out.cells.push_back(cell);
    }

    out.cmdPhase = cursor;
    out.planesTouched = planes_touched;
    for (const auto &cell : out.cells)
        out.cellEnd = std::max(out.cellEnd, cell.start + cell.duration);

    // Phase 2 (reads only): one channel hold streaming every page out.
    if (op_ == FlashOp::Read) {
        out.dataOutPhase = 0;
        for (std::size_t i = 0; i < requests_.size(); ++i) {
            out.dataOutPhase +=
                timing.commandOverhead + timing.transferTime(page_bytes);
        }
    }

    return out;
}

} // namespace spk
