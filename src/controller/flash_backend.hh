/**
 * @file
 * The flash side of a device: the NAND chips, the channels, one flash
 * controller per channel, the chip occupancy the schedulers read, the
 * shared soft decoder and the memory-request arena.
 *
 * Every memory request passes through here on the commitment path of
 * the paper's Figure 2. Its owner (the NVMHC for host pages, the GC
 * manager, the parity engine) acquires it with an id from the owner's
 * own space, places it (PPN -> address and chip), commits it to the
 * controller of its chip's channel and, once the completion upcall has
 * handed it back, releases it to the arena.
 */

#ifndef SPK_CONTROLLER_FLASH_BACKEND_HH
#define SPK_CONTROLLER_FLASH_BACKEND_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "controller/channel.hh"
#include "controller/chip_occupancy.hh"
#include "controller/flash_controller.hh"
#include "controller/soft_decoder.hh"
#include "flash/chip.hh"
#include "flash/fault_model.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"
#include "flash/timing.hh"
#include "sim/event_queue.hh"
#include "sim/slab.hh"

namespace spk
{

class FlashBackend
{
  public:
    using CompletionFn = FlashController::CompletionFn;

    /**
     * @param events shared event queue
     * @param geo device geometry (validated by the caller)
     * @param timing NAND timing parameters
     * @param decision_window each controller's transaction-decision
     *        latency
     * @param queue_depth host tags: the occupancy has one slot per tag
     *        plus the GC and parity slot, and every controller's queues
     *        are pre-sized for this many requests per chip
     * @param on_complete invoked once per finished memory request
     * @param faults fault decider; nullptr = fault-free
     */
    FlashBackend(EventQueue &events, const FlashGeometry &geo,
                 const FlashTiming &timing, Tick decision_window,
                 std::uint32_t queue_depth, CompletionFn on_complete,
                 const FaultModel *faults = nullptr);

    FlashBackend(const FlashBackend &) = delete;
    FlashBackend &operator=(const FlashBackend &) = delete;

    /** A blank request of @p owner with the next id of its space: host
     *  ids count from 0, GC ids from 1 << 60, parity ids from 1 << 61. */
    MemoryRequest *
    acquire(RequestOwner owner)
    {
        MemoryRequest *req = arena_.acquire();
        req->id = nextId_[static_cast<std::size_t>(owner)]++;
        req->owner = owner;
        return req;
    }

    /** Point @p req at @p ppn: its ppn, address and global chip, and
     *  mark it translated. */
    void place(MemoryRequest &req, Ppn ppn) const;

    /**
     * Commit a placed request to its chip's pending queue, on the
     * controller of the chip's channel.
     * @param front push ahead of existing work (GC and parity work,
     *        a read retry).
     */
    void
    commit(MemoryRequest *req, bool front = false)
    {
        controllers_[req->addr.channel]->commit(req, front);
    }

    /** Acquire, place and front-commit a GC or parity request of job
     *  slot @p job. */
    MemoryRequest *issue(RequestOwner owner, std::uint32_t job, FlashOp op,
                         Ppn ppn);

    /** Scrub a finished request and return it to the arena. The arena
     *  is shared by every owner, so a full scrub keeps one owner's
     *  state out of another's next request. */
    void release(MemoryRequest *req) { arena_.releaseScrubbed(req); }

    const FlashGeometry &geometry() const { return geo_; }
    ChipOccupancy &occupancy() { return occupancy_; }
    const ChipOccupancy &occupancy() const { return occupancy_; }
    const SoftDecoder &decoder() const { return decoder_; }
    const Slab<MemoryRequest> &arena() const { return arena_; }

    const std::vector<std::unique_ptr<FlashChip>> &chips() const
    {
        return chips_;
    }
    const std::vector<std::unique_ptr<Channel>> &channels() const
    {
        return channels_;
    }
    /** One controller per channel, indexed by channel. */
    const std::vector<std::unique_ptr<FlashController>> &
    controllers() const
    {
        return controllers_;
    }

  private:
    FlashGeometry geo_;
    SoftDecoder decoder_;
    ChipOccupancy occupancy_;
    /** Declared before the controllers, whose queues point into it. */
    Slab<MemoryRequest> arena_;
    std::vector<std::unique_ptr<FlashChip>> chips_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<FlashController>> controllers_;
    /** Next id of each owner's space, indexed by RequestOwner. */
    std::array<std::uint64_t, 3> nextId_{0, std::uint64_t{1} << 60,
                                         std::uint64_t{1} << 61};
};

} // namespace spk

#endif // SPK_CONTROLLER_FLASH_BACKEND_HH
