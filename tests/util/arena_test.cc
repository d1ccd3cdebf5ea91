#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "util/arena.hh"

namespace chopin
{
namespace
{

TEST(Arena, RespectsAlignment)
{
    Arena arena(256);
    // Interleave odd sizes with increasing alignments: each pointer must
    // land on its own boundary regardless of what preceded it.
    for (std::size_t align : {1u, 2u, 4u, 8u, 16u}) {
        void *p = arena.allocate(3, 1);
        ASSERT_NE(p, nullptr);
        void *q = arena.allocate(24, align);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % align, 0u)
            << "align " << align;
    }
}

TEST(Arena, ResetReusesTheSameBlock)
{
    Arena arena(1024);
    void *first = arena.allocate(100, 8);
    arena.reset();
    void *again = arena.allocate(100, 8);
    // Same block, same offset: steady state performs no heap traffic.
    EXPECT_EQ(first, again);
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(Arena, LargeAllocationGetsDedicatedBlock)
{
    Arena arena(128);
    void *big = arena.allocate(1 << 16, 8);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(arena.blockCount(), 2u);
    // The range is fully usable.
    std::memset(big, 0xAB, 1 << 16);
}

TEST(Arena, ResetCoalescesChainsIntoOneBlock)
{
    Arena arena(64);
    for (int i = 0; i < 10; ++i)
        arena.allocate(64, 8); // forces repeated growth
    ASSERT_GT(arena.blockCount(), 1u);
    std::size_t cap_before = arena.capacity();
    arena.reset();
    EXPECT_EQ(arena.blockCount(), 1u);
    EXPECT_EQ(arena.capacity(), cap_before);
    EXPECT_EQ(arena.bytesAllocated(), 0u);
    // The workload that forced the chain now fits without growing.
    for (int i = 0; i < 10; ++i)
        arena.allocate(64, 8);
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(Arena, TracksBytesAllocated)
{
    Arena arena;
    EXPECT_EQ(arena.bytesAllocated(), 0u);
    arena.allocate(100, 8);
    arena.allocate(28, 4);
    EXPECT_EQ(arena.bytesAllocated(), 128u);
}

#if CHOPIN_CHECK_LEVEL >= 2
TEST(Arena, FreshAndCoalescedBlocksCarryThePoison)
{
    // Blocks are allocated uninitialized; Debug builds poison them so a
    // read of arena storage before it is written changes results.
    auto expectPoisoned = [](const void *p, std::size_t bytes) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < bytes; ++i)
            ASSERT_EQ(b[i], Arena::kPoisonByte) << "byte " << i;
    };
    Arena arena(256);
    void *first = arena.allocate(256, 8);
    expectPoisoned(first, 256);
    std::memset(first, 0, 256);
    void *grown = arena.allocate(1000, 8); // a fresh chained block
    expectPoisoned(grown, 1000);
    std::memset(grown, 0, 1000);
    arena.reset(); // coalesces the chain into one fresh block
    ASSERT_EQ(arena.blockCount(), 1u);
    expectPoisoned(arena.allocate(arena.capacity(), 8), arena.capacity());
}
#endif

TEST(ArenaVector, PushBackGrowthPreservesValues)
{
    Arena arena(128); // small: growth relocates across blocks
    ArenaVector<std::uint32_t> v;
    v.attach(arena);
    EXPECT_TRUE(v.empty());
    for (std::uint32_t i = 0; i < 1000; ++i)
        v.push_back(i * 3u);
    ASSERT_EQ(v.size(), 1000u);
    for (std::uint32_t i = 0; i < 1000; ++i)
        ASSERT_EQ(v[i], i * 3u);
}

TEST(ArenaVector, AssignAndIteration)
{
    Arena arena;
    ArenaVector<int> v;
    v.attach(arena);
    v.assign(17, 42);
    ASSERT_EQ(v.size(), 17u);
    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 17 * 42);
    v.assign(3, 7); // shrinking assign
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v.back(), 7);
}

TEST(ArenaVector, SlabProtocol)
{
    Arena arena;
    ArenaVector<std::uint64_t> v;
    v.attach(arena);
    // The runGeometry pattern: oversize, fill disjoint ranges through
    // data(), then shrink to the defined prefix.
    v.resizeUninitialized(64);
    std::uint64_t *slab = v.data();
    for (int i = 0; i < 10; ++i)
        slab[i] = static_cast<std::uint64_t>(i) + 1;
    v.shrinkTo(10);
    ASSERT_EQ(v.size(), 10u);
    EXPECT_EQ(v[9], 10u);
}

TEST(ArenaVector, ReattachAfterResetStartsFresh)
{
    Arena arena;
    ArenaVector<int> v;
    v.attach(arena);
    v.push_back(1);
    arena.reset();
    v.attach(arena);
    EXPECT_TRUE(v.empty());
    v.push_back(2);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 2);
}

} // namespace
} // namespace chopin
