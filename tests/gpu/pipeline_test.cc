#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "gpu/pipeline.hh"
#include "stats/tracer.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

/** Simple stats with controllable stage costs. */
DrawStats
statsOf(std::uint64_t tris, std::uint64_t frags = 0)
{
    DrawStats s;
    s.tris_in = tris;
    s.verts_shaded = 3 * tris;
    s.tris_rasterized = tris;
    s.frags_generated = frags;
    s.frags_early_pass = frags;
    s.frags_shaded = frags;
    s.frags_written = frags;
    return s;
}

TEST(Timing, GeometryCyclesFormula)
{
    TimingParams p;
    DrawStats s = statsOf(1024);
    Tick expected =
        p.draw_setup_cycles +
        static_cast<Tick>(std::ceil(3 * 1024 * p.vert_shader_ops /
                                        p.shader_lanes +
                                    1024 / p.tri_setup_rate));
    EXPECT_EQ(p.geometryCycles(s), expected);
}

TEST(Timing, FragmentCyclesScaleWithShadedFragments)
{
    TimingParams p;
    Tick small = p.fragmentCycles(statsOf(10, 1000));
    Tick big = p.fragmentCycles(statsOf(10, 10000));
    EXPECT_GT(big, small * 8);
}

TEST(Timing, CoarseRejectIsCheaperThanTraversal)
{
    TimingParams p;
    DrawStats traverse = statsOf(1000);
    DrawStats reject;
    reject.tris_coarse_rejected = 1000;
    EXPECT_GT(p.rasterCycles(traverse), p.rasterCycles(reject));
}

TEST(Pipeline, SingleDrawLatencyIsSumOfStages)
{
    TimingParams p;
    p.batch_tris = 1 << 20; // one batch
    GpuPipeline pipe(p);
    DrawStats s = statsOf(100, 500);
    Tick done = pipe.submitDraw(0, s, 0);
    EXPECT_EQ(done, p.geometryCycles(s) + p.rasterCycles(s) +
                        p.fragmentCycles(s));
}

TEST(Pipeline, BatchingOverlapsStages)
{
    TimingParams p;
    p.batch_tris = 64;
    GpuPipeline mono(p);
    TimingParams p1 = p;
    p1.batch_tris = 1 << 20;
    GpuPipeline single(p1);
    DrawStats s = statsOf(4096, 100000);
    Tick batched = mono.submitDraw(0, s, 0);
    Tick unbatched = single.submitDraw(0, s, 0);
    EXPECT_LT(batched, unbatched); // pipelining shortens latency
}

TEST(Pipeline, BackToBackDrawsShareStages)
{
    TimingParams p;
    GpuPipeline pipe(p);
    DrawStats s = statsOf(512, 2000);
    Tick first = pipe.submitDraw(0, s, 0);
    Tick second = pipe.submitDraw(1, s, 0);
    EXPECT_GT(second, first);
    // The second draw overlaps the first (starts in geometry while the
    // first is in later stages), so it finishes earlier than serial.
    EXPECT_LT(second, 2 * first);
}

TEST(Pipeline, IssueTimeDelaysWork)
{
    TimingParams p;
    GpuPipeline pipe(p);
    DrawStats s = statsOf(64);
    Tick at_zero = pipe.submitDraw(0, s, 0);
    GpuPipeline pipe2(p);
    Tick delayed = pipe2.submitDraw(0, s, 1000);
    EXPECT_EQ(delayed, at_zero + 1000);
}

TEST(Pipeline, ProcessedTrisProgressesMonotonically)
{
    TimingParams p;
    p.batch_tris = 128;
    GpuPipeline pipe(p);
    pipe.submitDraw(0, statsOf(1000), 0);
    EXPECT_EQ(pipe.processedTrisAt(0), 0u);
    Tick end = pipe.finishTime();
    EXPECT_EQ(pipe.processedTrisAt(end), 1000u);
    std::uint64_t prev = 0;
    for (Tick t = 0; t <= end; t += end / 20 + 1) {
        std::uint64_t now = pipe.processedTrisAt(t);
        EXPECT_GE(now, prev);
        prev = now;
    }
    // Mid-way, some but not all triangles are processed (batching).
    EXPECT_GT(pipe.processedTrisAt(end / 2), 0u);
}

TEST(Pipeline, BusyTimesAccumulate)
{
    TimingParams p;
    GpuPipeline pipe(p);
    DrawStats s = statsOf(256, 1000);
    pipe.submitDraw(0, s, 0);
    EXPECT_EQ(pipe.geomBusy(), p.geometryCycles(s));
    EXPECT_EQ(pipe.rasterBusy(), p.rasterCycles(s));
    EXPECT_EQ(pipe.fragBusy(), p.fragmentCycles(s));
}

TEST(Pipeline, GeometryWorkCompetesWithDraws)
{
    TimingParams p;
    GpuPipeline pipe(p);
    Tick w = pipe.submitGeometryWork(0, 5000);
    EXPECT_EQ(w, 5000u);
    DrawStats s = statsOf(64);
    Tick done = pipe.submitDraw(0, s, 0);
    // The draw's geometry cannot start before the projection work ends.
    EXPECT_GE(done, 5000u);
}

TEST(Pipeline, TimingRecordsKeptPerDraw)
{
    TimingParams p;
    GpuPipeline pipe(p);
    pipe.submitDraw(7, statsOf(100), 0);
    pipe.submitDraw(9, statsOf(200), 50);
    ASSERT_EQ(pipe.drawTimings().size(), 2u);
    EXPECT_EQ(pipe.drawTimings()[0].id, 7u);
    EXPECT_EQ(pipe.drawTimings()[1].id, 9u);
    EXPECT_EQ(pipe.drawTimings()[1].tris, 200u);
    EXPECT_GT(pipe.drawTimings()[0].geom_cycles, 0u);
}

/** One draw of a randomized sequence: its pipe, stats and issue time. */
struct RandomDraw
{
    unsigned pipe;
    DrawStats stats;
    Tick issue;
};

/** Draws of varying size and back-end cost, issued at rising times with
 *  random gaps, spread over @p pipes pipes. */
std::vector<RandomDraw>
randomDraws(std::uint64_t seed, unsigned pipes, int count)
{
    Rng rng(seed);
    std::vector<RandomDraw> draws;
    Tick t = 0;
    for (int i = 0; i < count; ++i) {
        RandomDraw d;
        d.pipe = rng.nextBounded(pipes);
        std::uint32_t tris = 1 + rng.nextBounded(2000);
        std::uint32_t frags = rng.nextBounded(50000);
        d.stats = statsOf(tris, frags);
        d.stats.tris_coarse_rejected = rng.nextBounded(tris);
        d.stats.frags_textured = rng.nextBounded(frags + 1);
        d.issue = t;
        t += rng.nextBounded(4) == 0 ? rng.nextBounded(20000) : 20;
        draws.push_back(d);
    }
    return draws;
}

TEST(Pipeline, SplitSubmissionMatchesWholeDraws)
{
    // The schedule-first invariant the CHOPIN renderer relies on: k
    // geometry halves followed by their k back ends claim the same stage
    // times, record the same timings and geometry progress, and emit the
    // same spans as k whole submitDraw() calls.
    TimingParams p;
    p.batch_tris = 256; // several batches per draw
    const unsigned n = 3;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        std::vector<RandomDraw> draws = randomDraws(seed, n, 60);
        std::vector<GpuPipeline> whole, split;
        Tracer whole_trace, split_trace;
        for (unsigned g = 0; g < n; ++g) {
            whole.emplace_back(p);
            split.emplace_back(p);
        }
        for (unsigned g = 0; g < n; ++g) {
            whole[g].attachTracer(&whole_trace, g);
            split[g].attachTracer(&split_trace, g);
        }

        Rng rng(seed * 977);
        for (std::size_t i = 0; i < draws.size();) {
            std::size_t k = std::min<std::size_t>(1 + rng.nextBounded(12),
                                                  draws.size() - i);
            for (std::size_t j = i; j < i + k; ++j)
                whole[draws[j].pipe].submitDraw(static_cast<DrawId>(j),
                                                draws[j].stats,
                                                draws[j].issue);
            for (std::size_t j = i; j < i + k; ++j)
                split[draws[j].pipe].submitGeometry(static_cast<DrawId>(j),
                                                    draws[j].stats,
                                                    draws[j].issue);
            for (std::size_t j = i; j < i + k; ++j)
                split[draws[j].pipe].submitBackEnd(draws[j].stats);
            i += k;
        }

        for (unsigned g = 0; g < n; ++g) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " pipe " +
                         std::to_string(g));
            const auto &a = whole[g].drawTimings();
            const auto &b = split[g].drawTimings();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i)
                EXPECT_TRUE(metricsEqual(a[i], b[i]))
                    << ::testing::PrintToString(metricsDiff(a[i], b[i]));
            EXPECT_EQ(whole[g].finishTime(), split[g].finishTime());
            EXPECT_EQ(whole[g].submittedTris(), split[g].submittedTris());
            EXPECT_EQ(whole[g].geomBusy(), split[g].geomBusy());
            EXPECT_EQ(whole[g].rasterBusy(), split[g].rasterBusy());
            EXPECT_EQ(whole[g].fragBusy(), split[g].fragBusy());
            // Every tick up to the last geometry completion covers every
            // geometry checkpoint and the interval on each side of it.
            Tick last_geom = a.empty() ? 0 : a.back().geom_done;
            for (Tick t = 0; t <= last_geom + 1; ++t)
                ASSERT_EQ(whole[g].processedTrisAt(t),
                          split[g].processedTrisAt(t))
                    << "t=" << t;
        }
        std::ostringstream wj, sj;
        whole_trace.exportChromeJson(wj);
        split_trace.exportChromeJson(sj);
        EXPECT_TRUE(wj.str() == sj.str()) << "seed " << seed;
    }
}

TEST(PipelineDeath, BackEndStatsMustMatchTheGeometryHalf)
{
    TimingParams p;
    GpuPipeline pipe(p);
    pipe.submitGeometry(3, statsOf(100), 0);
    EXPECT_DEATH(pipe.submitBackEnd(statsOf(101, 500)),
                 "draw 3: rendered stats give 101 triangles");
}

TEST(PipelineDeath, ReadsAndWholeDrawsWhileADrawIsPendingPanic)
{
    TimingParams p;
    GpuPipeline pipe(p);
    pipe.submitDraw(0, statsOf(100), 0);
    pipe.submitGeometry(1, statsOf(100), 0);
    EXPECT_DEATH(pipe.finishTime(), "finishTime\\(\\) read while 1 draw");
    EXPECT_DEATH(pipe.drawTimings(), "drawTimings\\(\\) read while 1 draw");
    EXPECT_DEATH(pipe.submitDraw(2, statsOf(10), 0),
                 "submitDraw\\(\\) called while 1 draw");
    pipe.submitBackEnd(statsOf(100));
    EXPECT_EQ(pipe.drawTimings().size(), 2u);
}

} // namespace
} // namespace chopin
