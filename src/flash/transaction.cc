#include "flash/transaction.hh"

#include <algorithm>
#include <array>

#include "sim/logging.hh"

namespace spk
{

FlpClass
planTransaction(const CoalesceKeys &keys, const FlashTiming &timing,
                Tick page_transfer, TransactionPlan &out)
{
    if (keys.empty())
        panic("planTransaction: no requests");
    const FlashOp op = keys.front().op;

    // One cell phase per die, in the order of the die's first request.
    // cell_of[d] is 1 + the index of die d's phase, 0 while d has none;
    // page_of[i] is the page offset phase i's die addresses. The ONFI
    // rule puts one page offset on a die, so a program's phase takes
    // that page's latency.
    std::array<std::uint8_t, kMaxDiesPerChip> cell_of{};
    StaticVec<std::uint32_t, kMaxDiesPerChip> page_of;
    out.cells.clear();
    for (const CoalesceKey &key : keys) {
        if (key.op != op)
            panic("planTransaction: mixed operations");
        if (key.die >= kMaxDiesPerChip || key.plane >= kMaxPlanesPerDie)
            panic("planTransaction: die or plane out of range");
        const std::uint32_t plane_bit = 1u << key.plane;
        std::uint8_t &slot = cell_of[key.die];
        if (slot == 0) {
            const Tick duration = op == FlashOp::Read ? timing.readLatency
                                  : op == FlashOp::Program
                                      ? timing.programLatency(key.page)
                                      : timing.eraseLatency;
            out.cells.push_back(
                CellPhase{key.die, plane_bit, 1, 0, duration});
            page_of.push_back(key.page);
            slot = static_cast<std::uint8_t>(out.cells.size());
            continue;
        }
        CellPhase &cell = out.cells[slot - 1];
        if (cell.planeMask & plane_bit)
            panic("planTransaction: two requests on one plane");
        if (page_of[slot - 1] != key.page)
            panic("planTransaction: two page offsets on one die");
        cell.planeMask |= plane_bit;
        ++cell.requests;
    }

    const Tick per_request =
        timing.commandOverhead +
        (op == FlashOp::Program ? page_transfer : 0);
    Tick cursor = 0;
    out.cellEnd = 0;
    for (CellPhase &cell : out.cells) {
        cursor += cell.requests * per_request;
        cell.start = cursor;
        out.cellEnd = std::max(out.cellEnd, cell.start + cell.duration);
    }
    const auto n = static_cast<std::uint32_t>(keys.size());
    out.cmdPhase = cursor;
    out.planesTouched = n;
    out.dataOutPhase =
        op == FlashOp::Read ? n * (timing.commandOverhead + page_transfer)
                            : 0;

    // A die's requests sit on distinct planes, so a die shares planes
    // exactly when there are more requests than dies.
    const bool multi_die = out.cells.size() > 1;
    const bool multi_plane = n > out.cells.size();
    if (multi_die && multi_plane)
        return FlpClass::Pal3;
    if (multi_die)
        return FlpClass::Pal2;
    if (multi_plane)
        return FlpClass::Pal1;
    return FlpClass::NonPal;
}

} // namespace spk
