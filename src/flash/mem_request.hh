/**
 * @file
 * Flash memory request: the atomic unit of flash I/O.
 *
 * The NVMHC splits each host I/O request into page-sized memory
 * requests (Section 2.1 of the paper). A memory request carries both
 * its logical page and, once the FTL has translated it, its physical
 * placement.
 */

#ifndef SPK_FLASH_MEM_REQUEST_HH
#define SPK_FLASH_MEM_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/** Flash operation kinds a transaction can execute. */
enum class FlashOp : std::uint8_t { Read, Program, Erase };

/** Number of FlashOp values. */
inline constexpr std::size_t kFlashOps = 3;

/** Who issued a memory request, and so whose completion upcall it
 *  takes (Ssd::onRequestFinished switches on it). */
enum class RequestOwner : std::uint8_t { Host, Gc, Parity };

/** MemoryRequest::job of a request no GC batch or parity job owns. */
inline constexpr std::uint32_t kNoJob =
    std::numeric_limits<std::uint32_t>::max();

/** Sentinel ending a per-chip run (MemoryRequest::chipNext). */
inline constexpr std::uint32_t kEndOfRun =
    std::numeric_limits<std::uint32_t>::max();

/**
 * One page-sized flash memory request.
 *
 * Its owner acquires it from the FlashBackend, which places it
 * (translated) and commits it to the controller of its chip's
 * channel; a host request is composed (the NVMHC initiated its data
 * movement) before it is committed. The controller hands it back
 * through the completion upcall, and its owner releases it to the
 * backend.
 */
struct MemoryRequest
{
    std::uint64_t id = 0;       //!< unique; from its owner's id space
    TagId tag = kInvalidTag;    //!< owning host I/O; kInvalidTag for GC
    std::uint32_t idxInIo = 0;  //!< page index within the owning I/O

    /** idxInIo of the next page of the same I/O on the same chip, in
     *  page-index order (ChipRuns, for PAS and SPK1); kEndOfRun ends
     *  it. */
    std::uint32_t chipNext = kEndOfRun;

    FlashOp op = FlashOp::Read;
    Lpn lpn = kInvalidPage;
    Ppn ppn = kInvalidPage;
    PhysAddr addr;              //!< valid once translated
    std::uint32_t chip = 0;     //!< global chip index (from addr)
    bool translated = false;    //!< addr/ppn fields are valid
    bool composing = false;     //!< composition in flight this instant
    bool composed = false;      //!< NVMHC initiated data movement
    bool stale = false;         //!< target migrated; re-execute after
    RequestOwner owner = RequestOwner::Host; //!< who issued it

    /** Read-retry ladder step; 0 = first sense (FaultModel). */
    std::uint8_t retryAttempt = 0;

    /** Operation failed permanently (uncorrectable read / failed
     *  program); the owner decides remap vs error completion. */
    bool faultFailed = false;

    /** On its LPN's hazard chain (LpnChainMap). */
    bool onLpnChain = false;
    /** Heads that chain: the oldest pending request on the page. */
    bool lpnHead = false;

    /** Intrusive link for the NVMHC's per-LPN hazard chain. */
    MemoryRequest *lpnNext = nullptr;

    /** Intrusive free-list link while recycled in a Slab arena. */
    MemoryRequest *slabNext = nullptr;

    /**
     * The owner's job slot: the GC batch slot in the GcManager's flat
     * batch table, or the job slot in the ParityEngine's; kNoJob for
     * host requests.
     */
    std::uint32_t job = kNoJob;

    /**
     * Destination PPN of the paired migration program (GC migration
     * reads only). Replaces the old read -> program unordered_map.
     */
    Ppn gcPairPpn = kInvalidPage;
};

} // namespace spk

#endif // SPK_FLASH_MEM_REQUEST_HH
