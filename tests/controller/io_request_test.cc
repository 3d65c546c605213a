/**
 * @file
 * Unit tests for the I/O request state helpers and the uncomposed-I/O
 * list.
 */

#include <gtest/gtest.h>

#include <vector>

#include "controller/io_request.hh"

namespace spk
{
namespace
{

TEST(IoRequest, StateHelpers)
{
    IoRequest io;
    io.pageCount = 2;
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

/** The uncomposed list keeps arrival order as I/Os leave from its
 *  middle, front and back, and refuses an I/O that is not on it. */
TEST(IoRequest, UncomposedListKeepsArrivalOrder)
{
    IoRequest a, b, c, d;
    UncomposedIos list;
    const auto contents = [&] {
        std::vector<const IoRequest *> out;
        for (const IoRequest *io : list)
            out.push_back(io);
        return out;
    };
    EXPECT_TRUE(list.empty());
    for (IoRequest *io : {&a, &b, &c, &d})
        list.pushBack(*io);
    EXPECT_EQ(contents(), (std::vector<const IoRequest *>{&a, &b, &c, &d}));
    list.erase(b);
    EXPECT_EQ(contents(), (std::vector<const IoRequest *>{&a, &c, &d}));
    list.erase(a);
    EXPECT_EQ(list.front(), &c);
    list.erase(d);
    EXPECT_EQ(contents(), (std::vector<const IoRequest *>{&c}));
    list.pushBack(a); // a recycled slot joins at the back
    EXPECT_EQ(contents(), (std::vector<const IoRequest *>{&c, &a}));
    EXPECT_DEATH(list.erase(b), "not on the list");
    list.erase(c);
    list.erase(a);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.front(), nullptr);
}

} // namespace
} // namespace spk
