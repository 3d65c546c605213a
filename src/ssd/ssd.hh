/**
 * @file
 * The assembled many-chip SSD device -- the library's main entry
 * point.
 *
 * Construction wires the full Figure 2 stack: the event kernel, the
 * flash side (a FlashBackend: NAND chips, channels and one flash
 * controller per channel), the FTL, garbage collection, die parity
 * when configured, and the NVMHC with the configured scheduler. Drive
 * it with submitAt()/replay() and run(); read results with
 * metrics().
 */

#ifndef SPK_SSD_SSD_HH
#define SPK_SSD_SSD_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "controller/flash_backend.hh"
#include "flash/fault_model.hh"
#include "flash/mem_request.hh"
#include "ftl/ftl.hh"
#include "sched/nvmhc.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "ssd/config.hh"
#include "ssd/gc_manager.hh"
#include "ssd/metrics.hh"
#include "ssd/parity_engine.hh"
#include "workload/host_stream.hh"
#include "workload/trace.hh"

namespace spk
{

/** Per-I/O outcome, kept in completion order (time-series data). */
struct IoResult
{
    Tick arrival = 0;
    Tick completed = 0;
    bool isWrite = false;
    std::uint32_t pages = 0;
    std::uint32_t streamId = 0; //!< submission queue (0 when implicit)
    std::uint32_t failedPages = 0; //!< pages lost to media errors

    Tick latency() const { return completed - arrival; }
    bool failed() const { return failedPages != 0; }
};

/**
 * A preconditioned device: the FTL state preconditioning writes, plus
 * the RNG it draws from (used by nothing else, but a restored device
 * must equal a preconditioned one in every field). See Ssd::image().
 */
struct SsdImage
{
    FtlImage ftl;
    Rng rng;
};

/**
 * A complete simulated SSD.
 *
 * Typical use:
 * @code
 *   SsdConfig cfg = SsdConfig::withChips(64);
 *   cfg.scheduler = SchedulerKind::SPK3;
 *   Ssd ssd(cfg);
 *   ssd.replay(trace);
 *   ssd.run();
 *   MetricsSnapshot m = ssd.metrics();
 * @endcode
 */
class Ssd
{
  public:
    explicit Ssd(const SsdConfig &cfg);

    Ssd(const Ssd &) = delete;
    Ssd &operator=(const Ssd &) = delete;

    /**
     * Schedule one host I/O arrival.
     * @param when absolute arrival tick (must not be in the past)
     * @param offset_bytes byte offset (page-aligned or not)
     * @param size_bytes transfer length in bytes (> 0)
     */
    void submitAt(Tick when, bool is_write, std::uint64_t offset_bytes,
                  std::uint64_t size_bytes, bool fua = false);

    /** Schedule every record of a trace (the single implicit host
     *  stream, open-loop; may be called repeatedly between runs). */
    void replay(const Trace &trace);

    /**
     * Attach a multi-queue workload: one NVMe-style submission queue
     * per stream, each with its own trace, iodepth window and
     * arbitration attributes; the NVMHC's QueueArbiter allocates the
     * shared device tag space across them (SsdConfig::nvmhc.arbiter).
     * Call once, before run(); do not mix with submitAt()/replay().
     * Per-stream results land in MetricsSnapshot::streams.
     */
    void replayStreams(std::vector<HostStreamConfig> streams);

    /** Run the simulation until all scheduled work completes. */
    void run();

    /**
     * Fill + fragment the device ahead of a GC stress run
     * (Section 5.9): fill_fraction of logical space written, then
     * churn_fraction of it rewritten randomly.
     */
    void preconditionForGc(double fill_fraction = 0.95,
                           double churn_fraction = 0.30);

    /**
     * Capture what preconditioning wrote. Preconditioning reads the
     * config but never the scheduler (the NVMHC is empty, so GC's
     * readdressing callbacks find nothing), so one image serves every
     * device whose config differs from this one only in scheduler:
     * DeviceArray preconditions once per image and restores it into
     * the other cells.
     */
    SsdImage image() const;

    /**
     * Make this device equal to the one @p image was captured from,
     * as preconditioned. Panics unless the device is fresh (nothing
     * submitted, no event dispatched) and the image's table sizes
     * match its geometry and parity setting.
     */
    void restore(const SsdImage &image);

    /** Snapshot every metric the evaluation reports. */
    MetricsSnapshot metrics() const;

    /** Per-I/O latencies in completion order. */
    const std::vector<IoResult> &results() const { return results_; }

    EventQueue &events() { return events_; }
    Nvmhc &nvmhc() { return *nvmhc_; }
    Ftl &ftl() { return *ftl_; }
    const GcManager &gc() const { return *gc_; }

    const SsdConfig &config() const { return cfg_; }
    const std::vector<std::unique_ptr<FlashChip>> &chips() const
    {
        return backend_.chips();
    }
    const std::vector<std::unique_ptr<Channel>> &channels() const
    {
        return backend_.channels();
    }

  private:
    /** Route flash completions to their owner (NVMHC, GC manager or
     *  parity engine, by MemoryRequest::owner), then re-poll the host
     *  scheduler after GC and parity work, since a chip may just have
     *  freed up. */
    void onRequestFinished(MemoryRequest *req);

    /** Arrival event of stream @p sid's next record fired. */
    void onStreamArrival(std::uint32_t sid);

    /** Issue one stream record to the NVMHC (window already open). */
    void issueStreamRecord(std::uint32_t sid, const TraceRecord &rec);

    /** Drain a stream's ready backlog into its freed window slots. */
    void pumpStream(std::uint32_t sid);

    /** Byte range -> (first LPN, page count), page-rounded. */
    std::pair<Lpn, std::uint32_t>
    pageSpan(std::uint64_t offset_bytes,
             std::uint64_t size_bytes) const;

    /**
     * Pre-size the IoResult vector for everything submitted so far.
     * Grows to the next power of two (the same shape push_back growth
     * would take) so later direct submitAt() streams keep their
     * doubling slack, and run() stays allocation-free.
     */
    void reserveResults();

    SsdConfig cfg_;
    EventQueue events_;
    Rng rng_;

    /** Deterministic per-operation fault decider (inert by default);
     *  declared before the controllers and FTL that hold pointers. */
    FaultModel faults_;

    /** The flash side; declared before the NVMHC, GC manager and
     *  parity engine that issue requests to it, so it outlives them. */
    FlashBackend backend_;

    std::unique_ptr<Ftl> ftl_;
    std::unique_ptr<GcManager> gc_;
    std::unique_ptr<Nvmhc> nvmhc_;
    std::unique_ptr<ParityEngine> parity_;

    std::vector<IoResult> results_;
    std::uint64_t submitted_ = 0; //!< total I/Os ever submitted

    /** Multi-queue front-end state (empty unless replayStreams()). */
    std::vector<HostStreamConfig> streamCfgs_;
    std::vector<HostStreamRuntime> streamRt_;
};

} // namespace spk

#endif // SPK_SSD_SSD_HH
