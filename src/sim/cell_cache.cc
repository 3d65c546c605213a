#include "sim/cell_cache.hh"

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ranges>
#include <sstream>
#include <type_traits>

#include "sim/logging.hh"

namespace spk
{

namespace
{

/** On-disk format tag. Bump when the key composition or the snapshot
 *  payload layout changes: old entries then miss (magic mismatch)
 *  instead of deserializing garbage. */
constexpr char kMagic[8] = {'S', 'P', 'K', 'C', 'E', 'L', '2', '\n'};

/**
 * 128-bit content digest: two independent FNV-1a streams over the
 * same bytes (the second with a perturbed offset basis). 64 bits is
 * uncomfortably small for a store that silently trusts equal keys;
 * the pair makes an accidental collision astronomically unlikely.
 */
struct Digest128
{
    std::uint64_t a = 1469598103934665603ull;
    std::uint64_t b = 1469598103934665603ull ^
                      0x9e3779b97f4a7c15ull;

    void byte(std::uint8_t v)
    {
        a ^= v;
        a *= 1099511628211ull;
        b ^= v;
        b *= 1099511628211ull;
        b = (b << 1) | (b >> 63); // decorrelate from stream a
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u32(std::uint32_t v) { u64(v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { byte(v ? 1 : 0); }
    void str(const std::string &s)
    {
        u64(s.size());
        for (const char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::string hex() const
    {
        char buf[33];
        std::snprintf(buf, sizeof buf, "%016llx%016llx",
                      static_cast<unsigned long long>(a),
                      static_cast<unsigned long long>(b));
        return std::string(buf, 32);
    }
};

/** Feed every field of the config that can influence a result. */
void
digestConfig(Digest128 &d, const SsdConfig &cfg)
{
    const FlashGeometry &g = cfg.geometry;
    d.u32(g.numChannels);
    d.u32(g.chipsPerChannel);
    d.u32(g.diesPerChip);
    d.u32(g.planesPerDie);
    d.u32(g.blocksPerPlane);
    d.u32(g.pagesPerBlock);
    d.u32(g.pageSizeBytes);

    const FlashTiming &t = cfg.timing;
    d.u64(t.readLatency);
    d.u64(t.programFast);
    d.u64(t.programSlow);
    d.u64(t.eraseLatency);
    d.u64(t.busBytesPerSec);
    d.u64(t.commandOverhead);

    const FtlConfig &f = cfg.ftl;
    d.f64(f.overprovision);
    d.u32(f.gcFreeBlockThreshold);
    d.u32(f.endurance);
    d.byte(static_cast<std::uint8_t>(f.allocation));
    d.u32(f.wearLevelThreshold);

    const NvmhcConfig &n = cfg.nvmhc;
    d.u32(n.queueDepth);
    d.u64(n.composeOverhead);
    d.u64(n.hostBwBytesPerSec);
    d.byte(static_cast<std::uint8_t>(n.arbiter));

    const FaultConfig &fa = cfg.fault;
    d.f64(fa.readTransientRate);
    d.f64(fa.retryStepFailRate);
    d.f64(fa.readHardRate);
    d.f64(fa.programFailRate);
    d.f64(fa.eraseFailRate);
    d.u32(fa.retryLadderSteps);
    d.u32(fa.retryLatencyStepPct);
    d.u64(fa.dieFailTick);
    d.u32(fa.dieFailChip);
    d.u32(fa.dieFailDie);
    d.boolean(fa.softDecodeEnabled);
    d.u64(fa.softDecodeLatency);
    d.u32(fa.softDecodeStepPct);
    d.f64(fa.softDecodeFailRate);

    const ParityConfig &p = cfg.parity;
    d.boolean(p.enabled);
    d.u64(p.flushWindow);
    d.u64(p.rebuildPageInterval);

    d.byte(static_cast<std::uint8_t>(cfg.scheduler));
    d.u32(cfg.faroWindow);
    d.u64(cfg.decisionWindow);
    d.u32(cfg.gcMaxLiveBatchesPerPlane);
    d.u64(cfg.seed);
}

// A new member of any of these structs fails to build here until
// digestConfig hashes it (and, for the metrics records, until kMagic
// is bumped for the new payload).
static_assert(aggregateArity<SsdConfig>() == 11);
static_assert(aggregateArity<FlashGeometry>() == 7);
static_assert(aggregateArity<FlashTiming>() == 6);
static_assert(aggregateArity<FtlConfig>() == 5);
static_assert(aggregateArity<NvmhcConfig>() == 4);
static_assert(aggregateArity<FaultConfig>() == 14);
static_assert(aggregateArity<ParityConfig>() == 3);
static_assert(aggregateArity<MetricsSnapshot>() == 55);
static_assert(aggregateArity<StreamMetrics>() == 11);

// ---- snapshot payload ------------------------------------------------

struct Writer
{
    std::string out;

    void value(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(
                static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
    }
    void value(double v) { value(std::bit_cast<std::uint64_t>(v)); }
    void value(const std::string &s)
    {
        value(s.size());
        out.append(s);
    }
    void length(const auto &sequence) { value(sequence.size()); }
};

/** Reads what Writer wrote; malformed input clears ok. */
struct Reader
{
    const std::string &in;
    std::size_t pos = 0;
    bool ok = true;

    void value(std::uint64_t &v)
    {
        v = 0;
        if (pos + 8 > in.size()) {
            ok = false;
            return;
        }
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(in[pos + i]))
                 << (8 * i);
        pos += 8;
    }
    void value(double &v)
    {
        std::uint64_t bits = 0;
        value(bits);
        v = std::bit_cast<double>(bits);
    }
    void value(std::string &s)
    {
        std::uint64_t len = 0;
        value(len);
        ok = ok && len <= in.size() - pos;
        if (ok) {
            s = in.substr(pos, len);
            pos += len;
        }
    }
    /** An array's stored length must match; a vector takes it. */
    void length(auto &sequence)
    {
        std::uint64_t n = 0;
        value(n);
        if constexpr (requires { sequence.resize(n); }) {
            // Every element takes at least one byte, so a longer count
            // is malformed; never let it size an allocation.
            ok = ok && n <= in.size();
            if (ok)
                sequence.resize(static_cast<std::size_t>(n));
        } else {
            ok = ok && n == sequence.size();
        }
    }
};

/**
 * Move @p rec through @p io (a Writer, or a Reader) field by field in
 * table order: numbers as 8 little-endian bytes (doubles by bit
 * pattern), strings after their length, sequences element by element
 * after their length unless their columns are listed.
 */
template <typename Io, typename Record>
void
transfer(Io &io, Record &rec)
{
    std::remove_const_t<Record>::forEachField(
        [&](auto field, const char *columns, Merge) {
            auto &v = rec.*field;
            using T = std::remove_cvref_t<decltype(v)>;
            if constexpr (std::ranges::range<T> &&
                          !std::is_same_v<T, std::string>) {
                if (!listsColumns(columns))
                    io.length(v);
                for (auto &x : v) {
                    if constexpr (std::is_class_v<typename T::value_type>)
                        transfer(io, x);
                    else
                        io.value(x);
                }
            } else {
                io.value(v);
            }
        });
}

} // namespace

std::string
CellCache::keyOf(const DeviceJob &job)
{
    Digest128 d;
    digestConfig(d, job.cfg);
    d.boolean(job.preconditionGc);
    d.byte(static_cast<std::uint8_t>(job.fidelity));
    // Workload content: the digest + record count of each trace, plus
    // every stream attribute that shapes replay. Intern-sharing is
    // invisible here by design — equal content hashes equal.
    d.u64(job.trace.size());
    d.u64(job.trace.digest());
    d.u64(job.streams.size());
    for (const auto &s : job.streams) {
        d.str(s.name);
        d.u32(s.iodepth);
        d.u32(s.weight);
        d.u32(s.priority);
        d.u64(s.trace.size());
        d.u64(s.trace.digest());
    }
    return d.hex();
}

std::string
CellCache::serialize(const MetricsSnapshot &m)
{
    Writer w;
    transfer(w, m);
    return std::move(w.out);
}

bool
CellCache::deserialize(const std::string &payload, MetricsSnapshot &out)
{
    Reader r{payload};
    MetricsSnapshot m;
    transfer(r, m);
    if (!r.ok || r.pos != payload.size())
        return false;
    out = std::move(m);
    return true;
}

CellCache::CellCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_))
        fatal("CellCache: cannot create cache directory " + dir_);
}

std::string
CellCache::pathOf(const std::string &key) const
{
    return dir_ + "/" + key + ".cell";
}

bool
CellCache::lookup(const DeviceJob &job, MetricsSnapshot &out)
{
    const std::string key = keyOf(job);
    std::ifstream is(pathOf(key), std::ios::binary);
    if (!is) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string blob = buf.str();
    // Header: magic + the full key (guards against a hand-renamed or
    // colliding file serving the wrong cell).
    const std::size_t header = sizeof kMagic + key.size();
    if (blob.size() < header ||
        blob.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0 ||
        blob.compare(sizeof kMagic, key.size(), key) != 0 ||
        !deserialize(blob.substr(header), out)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
CellCache::store(const DeviceJob &job, const MetricsSnapshot &m)
{
    const std::string key = keyOf(job);
    const std::string path = pathOf(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return; // unwritable cache: accelerator only, not fatal
        os.write(kMagic, sizeof kMagic);
        os.write(key.data(),
                 static_cast<std::streamsize>(key.size()));
        const std::string payload = serialize(m);
        os.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
        if (!os)
            return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace spk
