/**
 * @file
 * Seeded, deterministic NAND fault injection.
 *
 * Real many-chip devices spend channel and cell time on reliability
 * machinery the paper's contention analysis assumes away: read-retry
 * ladders re-occupy the channel at escalating sense latencies, program
 * failures force a remap-and-rewrite through the allocation frontier,
 * erase failures and wear retire blocks, and whole dies drop out of
 * the array. FaultModel decides all of those outcomes.
 *
 * Determinism contract: every decision is a pure counter-based hash of
 * (device seed, physical page, operation identity, attempt). There is
 * no mutable RNG stream, so outcomes do not depend on the order events
 * interleave — a sharded DeviceArray run is bit-identical to a
 * sequential one, and with every rate at zero the model is inert and
 * the device is bit-identical to the fault-free goldens.
 */

#ifndef SPK_FLASH_FAULT_MODEL_HH
#define SPK_FLASH_FAULT_MODEL_HH

#include <cstdint>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/** Ceiling on read-retry ladder depth; sizes per-step counters. */
inline constexpr std::uint32_t kMaxRetrySteps = 8;

/** Fault-injection knobs; all rates default to zero (inert). */
struct FaultConfig
{
    /** P(first read sense fails and enters the retry ladder). */
    double readTransientRate = 0.0;

    /** P(each retry step also fails); survivors of all steps are
     *  uncorrectable. */
    double retryStepFailRate = 0.35;

    /** P(page is uncorrectable regardless of retries); the ladder is
     *  still walked — the device does not know until it gives up. */
    double readHardRate = 0.0;

    /** P(a program operation fails; the FTL remaps the page and
     *  retires the block). */
    double programFailRate = 0.0;

    /** P(an erase fails; the block is retired instead of freed). */
    double eraseFailRate = 0.0;

    /** Read-retry ladder depth (retries after the first sense). */
    std::uint32_t retryLadderSteps = 4;

    /** Each retry step senses this % slower than the previous one. */
    std::uint32_t retryLatencyStepPct = 40;

    /** Tick at which one die fails outright; 0 = never. */
    Tick dieFailTick = 0;

    /** Global chip index of the failing die. */
    std::uint32_t dieFailChip = 0;

    /** Die index within that chip. */
    std::uint32_t dieFailDie = 0;

    /**
     * Enable the terminal soft-decision (LDPC) decode stage: a read
     * that exhausts the retry ladder is handed to the shared decoder
     * instead of being declared uncorrectable outright.
     */
    bool softDecodeEnabled = false;

    /** Base decode latency for one 2KiB codeword at retry depth 0. */
    Tick softDecodeLatency = 60 * kMicrosecond;

    /** Decode cost grows this % per retry step the read burned first
     *  (deeper ladders mean noisier soft information). */
    std::uint32_t softDecodeStepPct = 25;

    /** P(soft decode also fails; the page is then uncorrectable). */
    double softDecodeFailRate = 0.05;

    /** True when any injection can ever fire. */
    bool enabled() const
    {
        return readTransientRate > 0.0 || readHardRate > 0.0 ||
               programFailRate > 0.0 || eraseFailRate > 0.0 ||
               dieFailTick != 0;
    }

    /** Abort via fatal() on out-of-range rates or ladder depth. */
    void validate() const;

    bool operator==(const FaultConfig &) const = default;
};

/** Outcome of one read sense attempt. */
enum class ReadOutcome : std::uint8_t
{
    Ok,            //!< data returned
    Retry,         //!< sense failed; re-issue at the next ladder step
    Uncorrectable, //!< ladder exhausted (or die dead); data lost
};

/**
 * Stateless fault decider. Construction captures the config, the
 * device seed and the geometry; all queries are const and total.
 */
class FaultModel
{
  public:
    FaultModel(const FaultConfig &cfg, std::uint64_t seed,
               const FlashGeometry &geo);

    bool enabled() const { return enabled_; }

    const FaultConfig &config() const { return cfg_; }

    /**
     * Outcome of the read sense at ladder step @p attempt (0 = first
     * sense) of operation @p op_seq targeting @p ppn. @p now lets a
     * dead die fail the read immediately, without walking the ladder.
     */
    ReadOutcome readAttempt(Ppn ppn, std::uint64_t op_seq,
                            std::uint32_t attempt, Tick now) const;

    /** True when the program of @p ppn by @p op_seq fails. */
    bool programFails(Ppn ppn, std::uint64_t op_seq, Tick now) const;

    /**
     * True when the @p erase_count -th erase of the block whose first
     * page is @p block_base_ppn fails (the block is then retired).
     */
    bool eraseFails(Ppn block_base_ppn, std::uint32_t erase_count) const;

    /** True when @p ppn lives on the configured dead die at @p now. */
    bool dieDead(Ppn ppn, Tick now) const;

    /**
     * Bring the failed die back online at @p now — rebuild finished
     * and the die's contents were re-materialized elsewhere. From this
     * tick on dieDead() reports false again. The revival tick is the
     * one piece of mutable state; it is itself deterministic (rebuild
     * completion time), so the determinism contract holds.
     */
    void reviveDie(Tick now) { dieRevivedTick_ = now; }

    /** True when the soft decode of @p ppn by @p op_seq fails too. */
    bool softDecodeFails(Ppn ppn, std::uint64_t op_seq) const;

    /**
     * Decoder occupancy cost of one soft decode: scales with transfer
     * size (page bytes vs the 2KiB codeword) and with the retry depth
     * the read burned before falling back.
     */
    Tick softDecodeCost(std::uint32_t attempt,
                        std::uint32_t page_bytes) const;

    /** Sense latency of ladder step @p attempt given the base tR. */
    Tick senseLatency(std::uint32_t attempt, Tick base) const;

  private:
    /** Uniform [0,1) from the decision coordinates; pure function. */
    double uniform(std::uint64_t a, std::uint64_t b,
                   std::uint64_t salt) const;

    FaultConfig cfg_;
    FlashGeometry geo_;
    std::uint64_t seed_ = 0;
    bool enabled_ = false;

    /** Tick the failed die came back online; 0 = never revived. */
    Tick dieRevivedTick_ = 0;
};

} // namespace spk

#endif // SPK_FLASH_FAULT_MODEL_HH
