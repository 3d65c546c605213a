/**
 * @file
 * Global allocation counter for benchmarks and tests.
 *
 * The counting operator new/delete live in their own translation unit,
 * sim/alloc_counter.cc, which is not part of the library: CMake links
 * it into each executable whose main source includes this header (the
 * allocation-counting tests and bench_microbench), so they all measure
 * allocations with identical instrumentation. The counter itself is
 * defined there too, so a program that reads an AllocWindow without
 * the counting operators fails to link instead of reading zero.
 *
 * Sanitizer builds interpose their own allocator, so under ASan the
 * counting operators compile out and every AllocWindow reads zero.
 * Zero-allocation assertions are covered by the regular CI legs.
 */

#ifndef SPK_SIM_ALLOC_COUNTER_HH
#define SPK_SIM_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdint>

namespace spk
{

/** Heap allocations observed by the counting operator new. Atomic
 *  (relaxed) so sharded multi-device runs can count too. */
extern std::atomic<std::uint64_t> g_allocCount;

/** Allocation delta across a window of interest. */
class AllocWindow
{
  public:
    AllocWindow() : start_(g_allocCount.load(std::memory_order_relaxed))
    {
    }

    std::uint64_t
    count() const
    {
        return g_allocCount.load(std::memory_order_relaxed) - start_;
    }

  private:
    std::uint64_t start_;
};

} // namespace spk

#endif // SPK_SIM_ALLOC_COUNTER_HH
