/**
 * @file
 * Unit + property tests for the page-level mapping.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <unordered_map>

#include "ftl/mapping.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

FlashGeometry
geo()
{
    FlashGeometry g;
    g.numChannels = 2;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 8;
    return g;
}

TEST(PageMapping, StartsUnmapped)
{
    PageMapping m(geo(), 100);
    EXPECT_EQ(m.logicalPages(), 100u);
    EXPECT_EQ(m.lookup(0), kInvalidPage);
    EXPECT_EQ(m.reverseLookup(0), kInvalidPage);
    EXPECT_FALSE(m.isValid(0));
    EXPECT_EQ(m.liveCount(), 0u);
}

TEST(PageMapping, BindAndLookup)
{
    PageMapping m(geo(), 100);
    EXPECT_EQ(m.bind(5, 42), kInvalidPage);
    EXPECT_EQ(m.lookup(5), 42u);
    EXPECT_EQ(m.reverseLookup(42), 5u);
    EXPECT_TRUE(m.isValid(42));
    EXPECT_EQ(m.liveCount(), 1u);
}

TEST(PageMapping, RebindInvalidatesOldCopy)
{
    PageMapping m(geo(), 100);
    m.bind(5, 42);
    EXPECT_EQ(m.bind(5, 77), 42u);
    EXPECT_FALSE(m.isValid(42));
    EXPECT_TRUE(m.isValid(77));
    EXPECT_EQ(m.reverseLookup(42), kInvalidPage);
    EXPECT_EQ(m.liveCount(), 1u);
}

TEST(PageMapping, BindToLivePageDies)
{
    PageMapping m(geo(), 100);
    m.bind(1, 10);
    EXPECT_DEATH(m.bind(2, 10), "live");
}

TEST(PageMapping, LogicalLargerThanPhysicalDies)
{
    EXPECT_DEATH(PageMapping(geo(), geo().totalPages() + 1), "capacity");
}

TEST(PageMapping, OutOfRangeAccessDies)
{
    PageMapping m(geo(), 10);
    EXPECT_DEATH(m.lookup(10), "out-of-range");
    EXPECT_DEATH((void)m.isValid(geo().totalPages()), "out-of-range");
}

/** Property: mapping stays a bijection under random rebinding. */
TEST(PageMapping, RandomRebindKeepsBijection)
{
    const auto g = geo();
    PageMapping m(g, 64);
    Rng rng(5);
    std::unordered_map<Lpn, Ppn> shadow;
    Ppn next_free = 0;

    for (int i = 0; i < 200 && next_free < g.totalPages(); ++i) {
        const Lpn lpn = rng.nextBelow(64);
        const Ppn ppn = next_free++;
        m.bind(lpn, ppn);
        shadow[lpn] = ppn;
    }
    std::uint64_t live = 0;
    for (const auto &[lpn, ppn] : shadow) {
        EXPECT_EQ(m.lookup(lpn), ppn);
        EXPECT_EQ(m.reverseLookup(ppn), lpn);
        EXPECT_TRUE(m.isValid(ppn));
        ++live;
    }
    EXPECT_EQ(m.liveCount(), live);
}

TEST(PageMapping, RestoreRebuildsReverseMapAndLiveCount)
{
    PageMapping m(geo(), 100);
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        const Lpn lpn = rng.nextBelow(100);
        Ppn ppn = rng.nextBelow(m.physicalPages());
        while (m.isValid(ppn))
            ppn = (ppn + 1) % m.physicalPages();
        m.bind(lpn, ppn);
    }

    PageMapping copy(geo(), 100);
    copy.bind(3, 4); // overwritten wholesale
    copy.restore(m.forwardTable());
    EXPECT_EQ(copy.liveCount(), m.liveCount());
    for (Lpn lpn = 0; lpn < m.logicalPages(); ++lpn)
        EXPECT_EQ(copy.lookup(lpn), m.lookup(lpn));
    for (Ppn ppn = 0; ppn < m.physicalPages(); ++ppn)
        EXPECT_EQ(copy.reverseLookup(ppn), m.reverseLookup(ppn));
}

TEST(PageMappingDeathTest, RestoreRejectsABadForwardTable)
{
    PageMapping m(geo(), 100);
    EXPECT_DEATH(m.restore(std::vector<std::uint32_t>(99, ~0u)),
                 "forward table of 99 pages");
    std::vector<std::uint32_t> aliased(100, ~0u);
    aliased[1] = 7;
    aliased[2] = 7;
    EXPECT_DEATH(m.restore(aliased), "not a one-to-one mapping");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPK_SANITIZER_SHADOW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPK_SANITIZER_SHADOW 1
#endif
#endif

#ifndef SPK_SANITIZER_SHADOW
/** Cap the process's address space at 4 GB. */
void
capAddressSpace()
{
    rlimit cap{};
    cap.rlim_cur = cap.rlim_max = 4ull << 30;
    setrlimit(RLIMIT_AS, &cap);
}
#endif

TEST(PageMappingDeathTest, PageCountBeyond32BitEntriesFatalsBeforeAllocating)
{
    // 2^32 - 1 = 3 * 5 * 17 * 257 * 65537 pages: the smallest device
    // whose pages do not fit entries that keep ~0u as the sentinel.
    FlashGeometry g;
    g.numChannels = 3;
    g.chipsPerChannel = 5;
    g.diesPerChip = 17;
    g.planesPerDie = 257;
    g.blocksPerPlane = 65537;
    g.pagesPerBlock = 1;
    ASSERT_EQ(g.totalPages(), 0xffffffffull);
#ifndef SPK_SANITIZER_SHADOW
    // Capping the address space at 4 GB turns any attempt to size the
    // 16 GB reverse table into bad_alloc instead of the expected
    // exit(1). (ASan and TSan reserve terabytes of shadow memory, so
    // their builds check only the case below.)
    EXPECT_EXIT(
        {
            capAddressSpace();
            PageMapping m(g, 1);
        },
        testing::ExitedWithCode(1), "do not fit 32-bit mapping entries");
#endif
    // 2^40 pages: no allocator can size these tables at all, so
    // exiting through the fatal means the check ran first.
    g.numChannels = 1u << 10;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1u << 10;
    g.blocksPerPlane = 1;
    g.pagesPerBlock = 1u << 20;
    ASSERT_EQ(g.totalPages(), 1ull << 40);
    EXPECT_EXIT(PageMapping(g, 1), testing::ExitedWithCode(1),
                "do not fit 32-bit mapping entries");
}

} // namespace
} // namespace spk
