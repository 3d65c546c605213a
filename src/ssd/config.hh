/**
 * @file
 * Whole-device configuration.
 *
 * Defaults mirror the paper's evaluation platform (Section 5.1):
 * ONFI 2.x channels, chips with two dies of four planes, 128 x 2 KB
 * pages per block, 20 us reads, 200-2200 us MLC programs, NCQ-style
 * device queue.
 */

#ifndef SPK_SSD_CONFIG_HH
#define SPK_SSD_CONFIG_HH

#include <cstdint>

#include "flash/fault_model.hh"
#include "flash/geometry.hh"
#include "flash/timing.hh"
#include "ftl/ftl.hh"
#include "sched/nvmhc.hh"
#include "sched/scheduler.hh"
#include "sim/types.hh"
#include "ssd/gc_manager.hh"

namespace spk
{

/**
 * Die-level RAID parity knobs. Off by default: with enabled = false
 * the device is bit-identical to the parity-less goldens (no stripe
 * map is even allocated).
 */
struct ParityConfig
{
    /** Stripe writes across the dies of each chip with one rotating
     *  parity page per stripe. */
    bool enabled = false;

    /**
     * An open (partially written) stripe's parity is flushed this long
     * after the stripe opens, even if it never fills. Bounds the
     * window in which a die failure can strand unprotected data.
     */
    Tick flushWindow = 200 * kMicrosecond;

    /**
     * Online rebuild pacing: one page of the failed die is
     * reconstructed onto spare capacity every this many ticks
     * (scheduled after the previous page completes). 0 = rebuild
     * pages back-to-back as fast as the device allows.
     */
    Tick rebuildPageInterval = 20 * kMicrosecond;

    /** Abort via fatal() on inconsistent settings. */
    void validate(const FlashGeometry &geo) const;

    bool operator==(const ParityConfig &) const = default;
};

/** Full device configuration. */
struct SsdConfig
{
    FlashGeometry geometry;
    FlashTiming timing;
    FtlConfig ftl;
    NvmhcConfig nvmhc;

    /** NAND fault injection; all rates default to 0 (inert), which
     *  keeps the device bit-identical to the fault-free goldens. */
    FaultConfig fault;

    /** Die-level RAID parity; disabled by default. */
    ParityConfig parity;

    /** Scheduling strategy under test. */
    SchedulerKind scheduler = SchedulerKind::SPK3;

    /**
     * FARO over-commitment window. A chip can take a set while its
     * committed-but-unfinished count is below the window, and a set
     * holds up to faroWindow requests, so a chip can hold
     * 2 * faroWindow - 1.
     */
    std::uint32_t faroWindow = 8;

    /**
     * Transaction-type decision window at the flash controller:
     * commitments arriving within this window of a chip becoming
     * ready can join the same transaction.
     */
    Tick decisionWindow = 3 * kMicrosecond;

    /**
     * GC admission bound: at most this many live GC batches per plane
     * (collection is deferred past it and retried as batches retire;
     * emergency reclaim may exceed it). Keeps the GC engine's flat
     * batch table statically sizable. Must be >= 1.
     */
    std::uint32_t gcMaxLiveBatchesPerPlane = kDefaultGcBatchesPerPlane;

    /** Deterministic seed for anything stochastic inside the device. */
    std::uint64_t seed = 1;

    /** Convenience: geometry with a given chip count (stripe 1:8);
     *  fatal() on zero chips. */
    static SsdConfig withChips(std::uint32_t num_chips);

    /** Validate all nested configs; fatal() on error. */
    void validate() const;
};

} // namespace spk

#endif // SPK_SSD_CONFIG_HH
