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

#include <cstdint>
#include <limits>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/** Flash operation kinds a transaction can execute. */
enum class FlashOp : std::uint8_t { Read, Program, Erase };

/** Sentinel for "not owned by any GC batch". */
inline constexpr std::uint32_t kInvalidGcBatch =
    std::numeric_limits<std::uint32_t>::max();

/** Sentinel ending a per-chip run (MemoryRequest::chipNext). */
inline constexpr std::uint32_t kEndOfRun =
    std::numeric_limits<std::uint32_t>::max();

/** Printable name of a flash operation. */
const char *flashOpName(FlashOp op);

/**
 * One page-sized flash memory request.
 *
 * Life cycle ticks are recorded for latency and idleness accounting:
 * composed (NVMHC built it and initiated host data movement),
 * committed (handed to a flash controller), started (entered an
 * executing transaction), finished (transaction completed).
 */
struct MemoryRequest
{
    std::uint64_t id = 0;       //!< globally unique, assigned by NVMHC
    TagId tag = kInvalidTag;    //!< owning host I/O; kInvalidTag for GC
    std::uint32_t idxInIo = 0;  //!< page index within the owning I/O

    /** idxInIo of the next page of the same I/O on the same chip, in
     *  page-index order (PAS's per-chip runs); kEndOfRun ends it. */
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
    bool isGc = false;          //!< internal request issued by the FTL
    bool isParity = false;      //!< issued by the die-parity engine

    /** Read-retry ladder step; 0 = first sense (FaultModel). */
    std::uint8_t retryAttempt = 0;

    /** Operation failed permanently (uncorrectable read / failed
     *  program); the owner decides remap vs error completion. */
    bool faultFailed = false;

    Tick composedAt = 0;
    Tick committedAt = 0;
    Tick startedAt = 0;
    Tick finishedAt = 0;

    /** Intrusive link for the NVMHC's per-LPN hazard chain. */
    MemoryRequest *lpnNext = nullptr;

    /** Intrusive free-list link while recycled in a Slab arena. */
    MemoryRequest *slabNext = nullptr;

    /**
     * Owning GC batch slot in the GcManager's flat batch table;
     * kInvalidGcBatch for host requests. Replaces the old
     * request -> batch unordered_map.
     */
    std::uint32_t gcBatch = kInvalidGcBatch;

    /**
     * Destination PPN of the paired migration program (GC migration
     * reads only). Replaces the old read -> program unordered_map.
     */
    Ppn gcPairPpn = kInvalidPage;

    /** Owning parity-engine job slot; kInvalidGcBatch when not a
     *  parity request. */
    std::uint32_t parityJob = kInvalidGcBatch;
};

} // namespace spk

#endif // SPK_FLASH_MEM_REQUEST_HH
