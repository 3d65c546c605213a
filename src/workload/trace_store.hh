/**
 * @file
 * Interned, shared, immutable traces.
 *
 * A sweep grid of (traces x schedulers x seeds x variants x arbiters
 * x faults x fidelities) cells re-uses each parsed trace in hundreds
 * of cells. Holding the records by value per cell makes expansion
 * memory (and time) proportional to the CELL count; interning makes
 * both proportional to the number of UNIQUE traces.
 *
 * TraceRef is the unit of sharing: a cheap, immutable, reference-
 * counted handle to one parsed trace plus its content digest. It
 * behaves like a `const Trace &` at call sites (size()/operator[]/
 * range-for/implicit conversion), so consumers are agnostic to
 * whether the underlying records are owned or shared. Constructing a
 * TraceRef from an lvalue Trace is explicit by design: an implicit
 * deep copy per sweep cell is exactly the bug this type removes.
 *
 * TraceStore interns traces by name: the first intern() parses (or
 * generates) the records, every later one returns the shared handle.
 * Accounting (uniqueCount/totalRecords) lets tests assert that a
 * C-cell sweep over T unique traces holds exactly T parsed copies.
 */

#ifndef SPK_WORKLOAD_TRACE_STORE_HH
#define SPK_WORKLOAD_TRACE_STORE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "workload/trace.hh"

namespace spk
{

/** FNV-1a over every record's fields (arrival, direction, fua,
 *  offset, size). Two traces with equal digests and lengths are
 *  content-identical for cache purposes. */
std::uint64_t traceDigest(const Trace &trace);

/**
 * Shared immutable handle to one parsed trace.
 *
 * Copying a TraceRef never copies records. A default-constructed ref
 * is empty (no records, digest of the empty trace).
 */
class TraceRef
{
  public:
    TraceRef() = default;

    /** Wrap an rvalue trace (the common `job.trace = generate(...)`
     *  shape): takes ownership, no copy. */
    TraceRef(Trace &&trace)
        : node_(std::make_shared<const Node>(std::move(trace)))
    {
    }

    /** Deep-copy an lvalue trace. Explicit: per-cell copies are the
     *  failure mode interning exists to prevent — share a TraceRef
     *  (or use a TraceStore) unless a copy is really meant. */
    explicit TraceRef(const Trace &trace)
        : node_(std::make_shared<const Node>(Trace(trace)))
    {
    }

    /** The underlying records (a shared static empty trace when the
     *  ref is default-constructed). */
    const Trace &get() const
    {
        return node_ ? node_->trace : emptyTrace();
    }

    operator const Trace &() const { return get(); }
    const Trace &operator*() const { return get(); }
    const Trace *operator->() const { return &get(); }

    bool empty() const { return get().empty(); }
    std::size_t size() const { return get().size(); }
    Trace::const_iterator begin() const { return get().begin(); }
    Trace::const_iterator end() const { return get().end(); }
    const TraceRecord &operator[](std::size_t i) const
    {
        return get()[i];
    }
    const TraceRecord &front() const { return get().front(); }
    const TraceRecord &back() const { return get().back(); }

    /** Content digest (computed once per unique trace, at the first
     *  call from any thread); the trace component of persistent
     *  cell-cache keys. Runs that use no cache never hash. */
    std::uint64_t digest() const
    {
        return node_ ? node_->digest() : traceDigest(emptyTrace());
    }

    /**
     * Identity of the shared record storage: two refs with equal
     * identity() share one parsed copy. nullptr for the empty ref.
     * This is what trace-interning accounting tests count.
     */
    const void *identity() const { return node_.get(); }

  private:
    struct Node
    {
        explicit Node(Trace &&t) : trace(std::move(t)) {}

        std::uint64_t
        digest() const
        {
            std::call_once(digestOnce,
                           [this] { digestValue = traceDigest(trace); });
            return digestValue;
        }

        Trace trace;
        mutable std::once_flag digestOnce;
        mutable std::uint64_t digestValue = 0;
    };

    static const Trace &emptyTrace();

    std::shared_ptr<const Node> node_;
};

/**
 * Name-keyed intern table of parsed traces.
 *
 * Not synchronized: interning happens while a sweep grid is expanded
 * (single-threaded, in SweepRunner's constructor or a bench's setup),
 * never from worker threads — workers only read through TraceRefs,
 * which is safe concurrently.
 */
class TraceStore
{
  public:
    /**
     * The trace interned under @p name. Calls @p parse (which may be
     * expensive — file parse, synthetic generation) only when the
     * name is absent: the per-unique-trace parse guarantee of the
     * store.
     */
    TraceRef intern(const std::string &name,
                    const std::function<Trace()> &parse);

    bool contains(const std::string &name) const
    {
        return traces_.find(name) != traces_.end();
    }

    /** Unique parsed traces resident in the store. */
    std::size_t uniqueCount() const { return traces_.size(); }

    /** Sum of record counts over the unique traces (the store's
     *  whole memory footprint is proportional to this, not to any
     *  sweep's cell count). */
    std::uint64_t totalRecords() const;

  private:
    std::map<std::string, TraceRef> traces_;
};

} // namespace spk

#endif // SPK_WORKLOAD_TRACE_STORE_HH
