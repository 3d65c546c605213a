/**
 * @file
 * Flash transactions and their timing plans.
 *
 * A flash transaction is the series of bus activities and cell
 * operations a flash controller executes on one chip for a set of
 * coalesced memory requests (Section 2.2). The amount of flash-level
 * parallelism (FLP) a transaction achieves is classified as:
 *
 *  - NonPal: one request, no flash-level parallelism
 *  - Pal1:   plane sharing only (multiplane, single die)
 *  - Pal2:   die interleaving only (one plane per die)
 *  - Pal3:   die interleaving + plane sharing combined
 */

#ifndef SPK_FLASH_TRANSACTION_HH
#define SPK_FLASH_TRANSACTION_HH

#include <cstdint>

#include "flash/mem_request.hh"
#include "flash/timing.hh"
#include "sim/static_vec.hh"
#include "sim/types.hh"

namespace spk
{

/** Flash-level parallelism classes (Figure 14 of the paper). */
enum class FlpClass : std::uint8_t { NonPal, Pal1, Pal2, Pal3 };

/**
 * One cell (array) activity inside a transaction's timeline. The
 * members have no default initializers, so the kMaxDiesPerChip cell
 * slots of a TransactionPlan are left uninitialized: a launch would
 * otherwise zero all of them (about 1 KB) to use one or two.
 */
struct CellPhase
{
    std::uint32_t die;
    std::uint32_t planeMask; //!< bit i set => plane i active
    std::uint32_t requests;  //!< requests on the die, one per plane
    Tick start;              //!< relative to transaction start
    Tick duration;
};

/**
 * Precomputed timeline of a transaction.
 *
 * The channel is held for cmdPhase ticks at the start (commands,
 * addresses and -- for programs -- data-in), released during cell
 * activity, and for reads re-acquired for dataOutPhase ticks once all
 * cell phases are complete.
 */
struct TransactionPlan
{
    Tick cmdPhase = 0;
    StaticVec<CellPhase, kMaxDiesPerChip> cells; //!< one per active die
    Tick cellEnd = 0;      //!< relative end of the latest cell phase
    Tick dataOutPhase = 0; //!< 0 for programs and erases
    std::uint32_t planesTouched = 0;
};

/**
 * What coalescing reads of a memory request: its operation, whether
 * it is a read-retry re-issue, and its die, plane and page offset.
 * Die and plane indices fit a byte (kMaxDiesPerChip,
 * kMaxPlanesPerDie). A committed request's address never changes, so
 * a pending queue keeps the key beside the request and scans keys
 * without reading the requests it skips. Sprinkler's FARO greedy
 * reads the same fields from uncommitted requests, whose address a
 * readdress can still move, and keeps per die only the planes its set
 * has taken and the page offset they address: the rule below, without
 * a scan over the set's members. The members have no default
 * initializers, so an array of keys is left uninitialized: a launch's
 * StaticVec of picked keys would otherwise zero all kMaxTxnRequests
 * slots (8 KB) every time.
 */
struct CoalesceKey
{
    std::uint32_t page; //!< page offset within the block
    std::uint8_t die;
    std::uint8_t plane;
    FlashOp op;
    bool retried; //!< retryAttempt > 0: the read runs alone

    static CoalesceKey
    of(const MemoryRequest &req)
    {
        return {req.addr.page, static_cast<std::uint8_t>(req.addr.die),
                static_cast<std::uint8_t>(req.addr.plane), req.op,
                req.retryAttempt > 0};
    }
};

/**
 * The ONFI rule for two requests of one transaction: one request per
 * (die, plane), and one page offset per die (a multiplane operation
 * addresses the same page in every plane of the die).
 */
constexpr bool
coalescible(const CoalesceKey &a, const CoalesceKey &b)
{
    return a.die != b.die || (a.plane != b.plane && a.page == b.page);
}

/** The keys of one transaction's requests, in pick order. */
using CoalesceKeys = StaticVec<CoalesceKey, kMaxTxnRequests>;

/**
 * Plan the transaction of the requests keyed @p keys into @p out,
 * writing every member, and return its FLP class.
 *
 * One channel hold carries every request's command and address, plus
 * its page for programs, die by die in the order of each die's first
 * request; a die's cell phase starts once its own commands are out
 * (die interleaving). A read then holds the channel again to stream
 * every page out. @p page_transfer is timing.transferTime() of one
 * page, which a flash controller computes once.
 *
 * Panics when the keys are empty, mix operations, address a die or
 * plane past kMaxDiesPerChip or kMaxPlanesPerDie, or break the ONFI
 * rule of coalescible().
 */
FlpClass planTransaction(const CoalesceKeys &keys,
                         const FlashTiming &timing, Tick page_transfer,
                         TransactionPlan &out);

} // namespace spk

#endif // SPK_FLASH_TRANSACTION_HH
