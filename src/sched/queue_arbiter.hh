/**
 * @file
 * Submission-queue arbitration.
 *
 * The NVMHC exposes one device-level tag space shared by every host
 * stream (NVMe-style submission queues). When more submissions wait
 * than free tags exist, a QueueArbiter decides which stream's head
 * submission is admitted next. The three policies mirror the NVMe
 * arbitration menu: round-robin, weighted round-robin and strict
 * priority.
 *
 * Arbiters are polled once per freed tag, so implementations must be
 * allocation-free and O(streams): cursor state only, sized once in
 * prepare().
 */

#ifndef SPK_SCHED_QUEUE_ARBITER_HH
#define SPK_SCHED_QUEUE_ARBITER_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace spk
{

/** Arbitration policy selector used by configs and factories. */
enum class ArbiterKind : std::uint8_t
{
    RoundRobin,
    WeightedRoundRobin,
    StrictPriority,
};

/**
 * Picks the stream whose head submission gets the next free device
 * tag. pick() is called only when at least one stream has a waiting
 * submission.
 */
class QueueArbiter
{
  public:
    /** Per-stream state the NVMHC maintains for its arbiter. */
    struct StreamState
    {
        std::uint32_t waiting = 0;  //!< submissions waiting for a tag
        std::uint32_t inDevice = 0; //!< device tags currently held
        std::uint32_t weight = 1;   //!< WRR share (0 behaves as 1)
        std::uint32_t priority = 0; //!< strict-priority class; lower
                                    //!< value is more urgent (ionice)
    };

    virtual ~QueueArbiter() = default;

    /** One-time warm start: @p num_streams submission queues exist. */
    virtual void prepare(std::uint32_t num_streams)
    {
        (void)num_streams;
    }

    /**
     * Pick the stream to admit from. @p streams always contains at
     * least one entry with waiting > 0; the returned index must be
     * one of them.
     */
    virtual std::uint32_t
    pick(const std::vector<StreamState> &streams) = 0;
};

/** Printable name of an arbitration policy ("RR", "WRR", "PRIO"). */
const char *arbiterKindName(ArbiterKind kind);

/** Factory: build an arbitration policy. */
std::unique_ptr<QueueArbiter> makeArbiter(ArbiterKind kind);

} // namespace spk

#endif // SPK_SCHED_QUEUE_ARBITER_HH
