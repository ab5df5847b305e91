/**
 * @file
 * MsgPayload semantics (net/payload.hpp): inline small-payload
 * storage, refcounted sharing for large payloads, and the aliasing-safe
 * assign path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "net/payload.hpp"

namespace cni
{
namespace
{

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t base = 0)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = std::uint8_t(base + i);
    return v;
}

TEST(MsgPayload, SmallPayloadsStayInlineAndIndependent)
{
    const auto src = pattern(MsgPayload::kInlineBytes);
    MsgPayload a;
    a.assign(src.data(), src.data() + src.size());
    MsgPayload b = a;
    // Separate inline buffers, no sharing at or below the inline
    // threshold: the copy holds its own bytes, and re-assigning it
    // leaves the original alone.
    EXPECT_NE(a.data(), b.data());
    b = {0xee};
    EXPECT_EQ(a.data()[0], 0x00);
    EXPECT_EQ(b.data()[0], 0xee);
    EXPECT_TRUE(a == src);
}

TEST(MsgPayload, LargeCopiesShareOneBuffer)
{
    const auto src = pattern(200);
    MsgPayload a;
    a.assign(src.data(), src.data() + src.size());
    MsgPayload b = a;
    EXPECT_EQ(a.data(), b.data());
    EXPECT_TRUE(b == src);
}

TEST(MsgPayload, MoveStealsTheBuffer)
{
    const auto src = pattern(150);
    MsgPayload a;
    a.assign(src.data(), src.data() + src.size());
    const std::uint8_t *buf = a.data();
    MsgPayload b = std::move(a);
    EXPECT_EQ(b.data(), buf);
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move): spec'd
    EXPECT_TRUE(b == src);
}

TEST(MsgPayload, AssignFromAViewOfItself)
{
    // Re-assign from a window of this payload's own bytes: the old
    // buffer must survive until the copy lands.
    const auto big = pattern(64);
    MsgPayload p;
    p.assign(big.data(), big.data() + big.size());
    const std::uint8_t *v = p.data();
    p.assign(v + 8, v + 40);
    EXPECT_EQ(p.size(), 32u);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(p.data()[i], big[i + 8]);

    // Same through the inline path.
    MsgPayload q;
    const auto small = pattern(10, 0x30);
    q.assign(small.data(), small.data() + small.size());
    const std::uint8_t *w = q.data();
    q.assign(w + 2, w + 8);
    EXPECT_EQ(q.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(q.data()[i], small[i + 2]);
}

TEST(MsgPayload, ShrinkAndGrowAcrossTheInlineBoundary)
{
    MsgPayload p;
    const auto big = pattern(240, 1);
    const auto small = pattern(4, 9);
    p.assign(big.data(), big.data() + big.size());
    EXPECT_TRUE(p == big);
    p.assign(small.data(), small.data() + small.size());
    EXPECT_TRUE(p == small);
    const auto big2 = pattern(244, 7);
    p.assign(big2.data(), big2.data() + big2.size());
    EXPECT_TRUE(p == big2);
    p.clear();
    EXPECT_TRUE(p.empty());
}

TEST(MsgPayload, FillAssignAndVectorConversion)
{
    MsgPayload p;
    p.assign(std::size_t(100), std::uint8_t(0xab));
    const std::vector<std::uint8_t> v = p;
    EXPECT_EQ(v.size(), 100u);
    for (std::uint8_t byte : v)
        EXPECT_EQ(byte, 0xab);
    MsgPayload q = {1, 2, 3};
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.data()[2], 3);
}

} // namespace
} // namespace cni
