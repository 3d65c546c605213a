/**
 * @file
 * Persistent content-addressed cell cache for sweep campaigns.
 *
 * The simulator is deterministic: a cell's MetricsSnapshot is a pure
 * function of its DeviceJob (config, workload content, seed,
 * fidelity). Repeated campaigns — CI smokes, calibration refits,
 * `--filter` re-runs — therefore re-simulate identical cells
 * constantly. This cache keys each cell by a digest of everything
 * that can influence its result and stores the snapshot on disk with
 * exact double bit patterns, so a warm re-run skips the simulation
 * and still produces byte-identical output.
 *
 * Key composition (see keyOf): every SsdConfig field (geometry,
 * timing, FTL, NVMHC, fault, parity, scheduler, windows, seed), the
 * content digest + length of the trace or of every stream's trace
 * (plus each stream's name/iodepth/weight/priority), the
 * preconditionGc flag and the fidelity. Changing ANY of these
 * changes the key — there is no partial invalidation to reason
 * about. cell_cache.cc pins the member count of every config struct
 * next to the config digest, so a new config field fails to build
 * until it is hashed; bump kMagic with it so stale entries miss
 * instead of lying.
 *
 * Payload: every MetricsSnapshot and StreamMetrics field, in the
 * order of their forEachField tables, with exact double bit patterns.
 * cell_cache_test pins its bytes; a layout change must bump kMagic.
 *
 * Cells that capture per-I/O series are never cached (the cache
 * stores snapshots, not series); DeviceArray skips the cache for
 * them.
 *
 * Concurrency: lookup/store may be called from sweep worker threads.
 * Distinct cells use distinct files; stores write to a temp file and
 * rename, so a concurrent reader sees either nothing or a complete
 * entry. Counters are atomic.
 */

#ifndef SPK_SIM_CELL_CACHE_HH
#define SPK_SIM_CELL_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/device_array.hh"

namespace spk
{

class CellCache
{
  public:
    /** Open (and create if needed) the cache directory; fatal() if
     *  it cannot be created. */
    explicit CellCache(std::string dir);

    CellCache(const CellCache &) = delete;
    CellCache &operator=(const CellCache &) = delete;

    /** 32-hex-char content key of one cell (128-bit FNV-1a pair over
     *  the canonical serialization described above). */
    static std::string keyOf(const DeviceJob &job);

    /**
     * Look @p job up; on hit deserializes the stored snapshot into
     * @p out (bit-exact, including doubles and per-stream slices)
     * and returns true. A missing, truncated or mismatched entry is
     * a miss, never an error.
     */
    bool lookup(const DeviceJob &job, MetricsSnapshot &out);

    /** Persist @p m as @p job's entry (atomic write-then-rename; an
     *  unwritable directory degrades to a warning-free no-op — the
     *  cache is an accelerator, not a store of record). */
    void store(const DeviceJob &job, const MetricsSnapshot &m);

    const std::string &dir() const { return dir_; }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t stores() const { return stores_.load(); }
    std::uint64_t lookups() const { return hits() + misses(); }

    /** Serialize a snapshot to the on-disk payload (exposed for the
     *  round-trip tests and the golden digests). */
    static std::string serialize(const MetricsSnapshot &m);

    /** Inverse of serialize(); false on any malformed input. */
    static bool deserialize(const std::string &payload,
                            MetricsSnapshot &out);

  private:
    std::string pathOf(const std::string &key) const;

    std::string dir_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
};

} // namespace spk

#endif // SPK_SIM_CELL_CACHE_HH
