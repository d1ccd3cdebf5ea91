#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sfr/draw_scheduler.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

/** Fixture with n idle pipelines. */
class SchedulerTest : public ::testing::Test
{
  protected:
    void
    makePipes(unsigned n)
    {
        pipes.clear();
        pipes.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            pipes.emplace_back(params);
    }

    DrawStats
    statsOf(std::uint64_t tris)
    {
        DrawStats s;
        s.tris_in = tris;
        s.verts_shaded = 3 * tris;
        return s;
    }

    TimingParams params;
    std::vector<GpuPipeline> pipes;
};

TEST_F(SchedulerTest, RoundRobinCycles)
{
    makePipes(4);
    DrawCommandScheduler sched(pipes, DrawPolicy::RoundRobin, 1);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(sched.schedule(100, 0), static_cast<GpuId>(i % 4));
}

TEST_F(SchedulerTest, FewestRemainingPrefersIdleGpu)
{
    makePipes(3);
    DrawCommandScheduler sched(pipes, DrawPolicy::FewestRemaining, 1);
    // Nothing processed yet: assignments spread by scheduled counts.
    EXPECT_EQ(sched.schedule(1000, 0), 0u);
    EXPECT_EQ(sched.schedule(10, 0), 1u);
    EXPECT_EQ(sched.schedule(10, 0), 2u);
    // GPU1/2 have 10 remaining; GPU0 has 1000: next goes to 1 (lowest id
    // among minimum).
    EXPECT_EQ(sched.schedule(10, 0), 1u);
}

TEST_F(SchedulerTest, ProcessedFeedbackUnloadsBusyGpu)
{
    makePipes(2);
    DrawCommandScheduler sched(pipes, DrawPolicy::FewestRemaining, 1);
    GpuId g0 = sched.schedule(1000, 0);
    EXPECT_EQ(g0, 0u);
    pipes[0].submitDraw(0, statsOf(1000), 0);
    GpuId g1 = sched.schedule(1000, 0);
    EXPECT_EQ(g1, 1u);
    pipes[1].submitDraw(1, statsOf(1000), 0);
    // After both pipelines drain, remaining counts return to zero and the
    // tie-break picks GPU0 again.
    Tick late = std::max(pipes[0].finishTime(), pipes[1].finishTime());
    EXPECT_EQ(sched.remainingEstimate(0, late), 0u);
    EXPECT_EQ(sched.remainingEstimate(1, late), 0u);
    EXPECT_EQ(sched.schedule(10, late), 0u);
}

TEST_F(SchedulerTest, HeavyTailedDrawsBalanceBetterThanRoundRobin)
{
    // The Fig. 8 effect: with heavy-tailed draw sizes, round-robin piles
    // work while fewest-remaining balances.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        std::vector<std::uint64_t> draws;
        for (int i = 0; i < 400; ++i)
            draws.push_back(
                1 + static_cast<std::uint64_t>(rng.nextLogNormal(3.0, 1.3)));

        auto imbalance = [&](DrawPolicy policy) {
            makePipes(8);
            DrawCommandScheduler sched(pipes, policy, 1);
            std::vector<std::uint64_t> load(8, 0);
            std::uint64_t total = 0;
            for (std::uint64_t d : draws) {
                load[sched.schedule(d, 0)] += d;
                total += d;
            }
            std::uint64_t max_l = 0;
            for (std::uint64_t l : load)
                max_l = std::max(max_l, l);
            // max/average load: 1.0 is perfect balance (the slowest GPU
            // gates the frame, Section IV-D).
            return static_cast<double>(max_l) * 8.0 /
                   static_cast<double>(total);
        };

        // A single giant draw bounds any scheduler from below.
        std::uint64_t total = 0, biggest = 0;
        for (std::uint64_t d : draws) {
            total += d;
            biggest = std::max(biggest, d);
        }
        double lower_bound =
            std::max(1.0, static_cast<double>(biggest) * 8.0 /
                              static_cast<double>(total));

        double rr = imbalance(DrawPolicy::RoundRobin);
        double balanced = imbalance(DrawPolicy::FewestRemaining);
        EXPECT_LT(balanced, rr) << "seed " << seed;
        // Online greedy (draws arrive in stream order) is within 2x of the
        // optimum; in practice it sits well below that.
        EXPECT_LT(balanced, std::max(1.4, 1.9 * lower_bound))
            << "seed " << seed;
    }
}

TEST_F(SchedulerTest, UpdateIntervalMakesFeedbackStale)
{
    makePipes(2);
    // With a large update interval the scheduler cannot see fine-grained
    // progress: processed counts snap to multiples of 512.
    DrawCommandScheduler sched(pipes, DrawPolicy::FewestRemaining, 512);
    sched.schedule(600, 0); // -> GPU0
    pipes[0].submitDraw(0, statsOf(600), 0);
    Tick end = pipes[0].finishTime();
    // True processed = 600, visible = 512 -> remaining estimate 88.
    EXPECT_EQ(sched.remainingEstimate(0, end), 600u - 512u);

    DrawCommandScheduler fine(pipes, DrawPolicy::FewestRemaining, 1);
    fine.schedule(600, 0);
    EXPECT_EQ(fine.remainingEstimate(0, end), 0u);
}

TEST_F(SchedulerTest, StatusTrafficAccumulates)
{
    makePipes(2);
    DrawCommandScheduler sched(pipes, DrawPolicy::FewestRemaining, 1);
    Bytes before = sched.statusTraffic();
    sched.schedule(100, 0);
    EXPECT_GT(sched.statusTraffic(), before);
}

TEST_F(SchedulerTest, ExternalAccountingAffectsEstimates)
{
    makePipes(2);
    DrawCommandScheduler sched(pipes, DrawPolicy::FewestRemaining, 1);
    sched.accountExternal(0, 5000);
    EXPECT_EQ(sched.remainingEstimate(0, 0), 5000u);
    EXPECT_EQ(sched.schedule(10, 0), 1u);
}

TEST_F(SchedulerTest, GeometryHalvesAloneGiveTheSamePicks)
{
    // The schedule-first invariant (DESIGN.md §7 rule 4): fewest-remaining
    // reads only geometry progress, so picks made while every earlier draw
    // has only its geometry half submitted equal picks made over whole
    // draws, whatever their raster and fragment cost.
    for (std::uint64_t update : {1u, 64u, 512u}) {
        Rng rng(update);
        makePipes(4);
        std::vector<GpuPipeline> geometry_only;
        for (unsigned g = 0; g < 4; ++g)
            geometry_only.emplace_back(params);
        DrawCommandScheduler whole(pipes, DrawPolicy::FewestRemaining,
                                   update);
        DrawCommandScheduler split(geometry_only, DrawPolicy::FewestRemaining,
                                   update);
        std::vector<std::pair<GpuId, DrawStats>> backlog;
        Tick t = 0;
        for (DrawId id = 0; id < 300; ++id) {
            DrawStats s = statsOf(
                1 + static_cast<std::uint64_t>(rng.nextLogNormal(4.0, 1.3)));
            s.frags_generated = rng.nextBounded(40000);
            s.frags_shaded = s.frags_generated;
            s.frags_written = s.frags_generated;
            GpuId g = whole.schedule(s.tris_in, t);
            ASSERT_EQ(split.schedule(s.tris_in, t), g)
                << "update " << update << " draw " << id;
            pipes[g].submitDraw(id, s, t);
            geometry_only[g].submitGeometry(id, s, t);
            backlog.emplace_back(g, s);
            t += 20 + (rng.nextBounded(8) == 0 ? rng.nextBounded(5000) : 0);
        }
        EXPECT_EQ(whole.statusTraffic(), split.statusTraffic());
        for (const auto &[g, s] : backlog)
            geometry_only[g].submitBackEnd(s);
        for (unsigned g = 0; g < 4; ++g)
            EXPECT_EQ(pipes[g].finishTime(), geometry_only[g].finishTime());
    }
}

} // namespace
} // namespace chopin
