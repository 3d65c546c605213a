/**
 * @file
 * The counting global operator new/delete behind AllocWindow (see
 * sim/alloc_counter.hh). Not part of the library: CMake links this
 * file into each executable that counts allocations. Defining the
 * replacements out of line keeps the compiler from inlining their
 * malloc()/free() into a caller that allocated through operator new.
 */

#include "sim/alloc_counter.hh"

#include <cstdlib>
#include <new>

// Sanitizer builds interpose their own allocator; replacing global
// operator new/delete on top of it would bypass ASan's bookkeeping
// (and its malloc/free poisoning), so the counting hooks compile out.
#if defined(__SANITIZE_ADDRESS__)
#define SPK_ALLOC_COUNTER_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPK_ALLOC_COUNTER_DISABLED 1
#endif
#endif

namespace spk
{

std::atomic<std::uint64_t> g_allocCount{0};

} // namespace spk

#ifndef SPK_ALLOC_COUNTER_DISABLED

void *
operator new(std::size_t size)
{
    spk::g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    spk::g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // !SPK_ALLOC_COUNTER_DISABLED
