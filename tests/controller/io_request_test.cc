/**
 * @file
 * Unit tests for the I/O request bitmap and state helpers.
 */

#include <gtest/gtest.h>

#include "controller/io_request.hh"

namespace spk
{
namespace
{

TEST(IoRequest, BitmapInitSetsExactlyPageCountBits)
{
    IoRequest io;
    io.pageCount = 70; // spans two 64-bit words
    io.initBitmap();
    ASSERT_EQ(io.bitmap.size(), 2u);
    int set = 0;
    for (const auto word : io.bitmap)
        set += __builtin_popcountll(word);
    EXPECT_EQ(set, 70);
}

TEST(IoRequest, ClearBitOncePerPage)
{
    IoRequest io;
    io.pageCount = 3;
    io.initBitmap();
    EXPECT_TRUE(io.clearBit(0));
    EXPECT_FALSE(io.clearBit(0)); // double completion detected
    EXPECT_TRUE(io.clearBit(2));
    EXPECT_FALSE(io.clearBit(7)); // out of range
}

TEST(IoRequest, ExactWordBoundary)
{
    IoRequest io;
    io.pageCount = 64;
    io.initBitmap();
    ASSERT_EQ(io.bitmap.size(), 1u);
    EXPECT_EQ(io.bitmap[0], ~std::uint64_t{0});
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_TRUE(io.clearBit(i));
    EXPECT_EQ(io.bitmap[0], 0u);
}

TEST(IoRequest, StateHelpers)
{
    IoRequest io;
    io.pageCount = 2;
    io.initBitmap();
    EXPECT_EQ(io.composedCount, 0u);
    EXPECT_FALSE(io.allComposed());
    EXPECT_FALSE(io.done());

    io.composedCount = 1;
    EXPECT_FALSE(io.allComposed());

    io.composedCount = 2;
    EXPECT_TRUE(io.allComposed());

    io.finishedCount = 2;
    EXPECT_TRUE(io.done());
}

} // namespace
} // namespace spk
