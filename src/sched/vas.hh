/**
 * @file
 * Virtual Address Scheduler (VAS) -- the FIFO baseline.
 *
 * VAS serves I/O requests strictly in device-queue order and has no
 * knowledge of the physical resource layout (Section 3). Operationally
 * that means: compose the oldest incomplete I/O's memory requests in
 * page order, and stall head-of-line whenever the next request's
 * target chip still has work pending or in flight (the request
 * collisions of Figure 4).
 */

#ifndef SPK_SCHED_VAS_HH
#define SPK_SCHED_VAS_HH

#include "sched/scheduler.hh"

namespace spk
{

/** FIFO virtual-address scheduler (paper baseline 1). */
class VasScheduler : public IoScheduler
{
  public:
    MemoryRequest *next(SchedulerContext &ctx) override;

    /** A chip takes work only with no load at all. */
    std::uint32_t loadLimit() const override { return 1; }
};

} // namespace spk

#endif // SPK_SCHED_VAS_HH
