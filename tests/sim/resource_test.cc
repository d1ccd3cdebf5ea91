#include <gtest/gtest.h>

#include "sim/resource.hh"

namespace chopin
{
namespace
{

TEST(Resource, ImmediateClaim)
{
    Resource r;
    EXPECT_EQ(r.claim(0, 10), 10u);
    EXPECT_EQ(r.freeAt(), 10u);
    EXPECT_EQ(r.busyTime(), 10u);
}

TEST(Resource, BackToBackClaimsSerialize)
{
    Resource r;
    r.claim(0, 10);
    // Requested at t=5 but the resource is busy until 10.
    EXPECT_EQ(r.claim(5, 7), 17u);
    EXPECT_EQ(r.busyTime(), 17u);
}

TEST(Resource, IdleGapNotCountedBusy)
{
    Resource r;
    r.claim(0, 10);
    EXPECT_EQ(r.claim(100, 5), 105u);
    EXPECT_EQ(r.busyTime(), 15u); // the 90-cycle gap is idle
}

TEST(Resource, ZeroDurationClaim)
{
    Resource r;
    EXPECT_EQ(r.claim(7, 0), 7u);
    EXPECT_EQ(r.busyTime(), 0u);
}

#if CHOPIN_CHECK_LEVEL >= 1
TEST(ResourceDeath, ClaimOverflowingTickHorizonPanics)
{
    Resource r;
    r.claim(0, 10);
    // A negative duration from a bad float conversion wraps to ~2^64.
    EXPECT_DEATH(r.claim(0, ~Tick(0) - 5), "overflows the tick horizon");
}
#endif

TEST(Occupancy, CountsWithinCapacity)
{
    Occupancy occ(3);
    EXPECT_TRUE(occ.empty());
    occ.acquire(2);
    occ.acquire();
    EXPECT_EQ(occ.used(), 3u);
    EXPECT_EQ(occ.capacity(), 3u);
    occ.release(3);
    EXPECT_TRUE(occ.empty());
}

TEST(Occupancy, UnboundedByDefault)
{
    Occupancy occ;
    occ.acquire(1u << 20);
    EXPECT_EQ(occ.used(), 1u << 20);
}

#if CHOPIN_CHECK_LEVEL >= 1
TEST(OccupancyDeath, AcquireAboveCapacityPanics)
{
    Occupancy occ(2);
    occ.acquire(2);
    EXPECT_DEATH(occ.acquire(), "occupancy above capacity");
}

TEST(OccupancyDeath, ReleaseBelowZeroPanics)
{
    Occupancy occ(4);
    occ.acquire();
    occ.release();
    EXPECT_DEATH(occ.release(), "occupancy below zero");
}
#endif

} // namespace
} // namespace chopin
