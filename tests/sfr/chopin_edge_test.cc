/**
 * @file
 * CHOPIN edge cases that collapse whole phases of the algorithm: a frame
 * with zero transparent groups (the transparent chain/tree fan-out never
 * runs) and a single-GPU system (every composition degenerates to a local
 * no-op). Both must still be bit-identical across host job counts — the
 * degenerate paths share the determinism contract of the full ones. Also
 * covered: runs that reuse the surfaces an earlier run on the same thread
 * handed back must match a run on a fresh thread, and a run gives render
 * target 0 back unless its caller takes the image.
 */

#include <gtest/gtest.h>

#include <thread>

#include "gfx/renderer.hh"
#include "sfr/grouping.hh"
#include "sfr/schemes.hh"
#include "stats/metrics.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

/** Restore a deterministic single-job pool when a test exits. */
struct ScopedJobs
{
    explicit ScopedJobs(unsigned jobs) { setGlobalJobs(jobs); }
    ~ScopedJobs() { setGlobalJobs(1); }
};

void
expectIdentical(const FrameResult &a, const FrameResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.frame_hash, b.frame_hash) << what;
    EXPECT_EQ(a.content_hash, b.content_hash) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.totals.tris_rasterized, b.totals.tris_rasterized) << what;
    EXPECT_EQ(a.totals.frags_written, b.totals.frags_written) << what;
    EXPECT_EQ(a.traffic.total, b.traffic.total) << what;
    EXPECT_EQ(a.traffic.messages, b.traffic.messages) << what;
    EXPECT_EQ(a.breakdown.composition, b.breakdown.composition) << what;
}

/** ut3 scaled for test speed, with every transparent draw removed. */
FrameTrace
opaqueOnlyTrace()
{
    BenchmarkProfile p = scaleProfile(benchmarkProfile("ut3"), 32);
    p.transparent_draw_frac = 0.0;
    p.additive_frac = 0.0;
    return generateTrace(p);
}

class ChopinEdgeTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ChopinEdgeTest, ZeroTransparentGroupsIsDeterministicAcrossJobs)
{
    Scheme scheme = GetParam();
    ScopedJobs restore(1);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    FrameTrace trace = opaqueOnlyTrace();

    setGlobalJobs(1);
    FrameResult serial = runScheme(scheme, cfg, trace);
    for (unsigned jobs : {2u, 8u}) {
        setGlobalJobs(jobs);
        FrameResult parallel = runScheme(scheme, cfg, trace);
        expectIdentical(serial, parallel,
                        toString(scheme) + " opaque-only jobs=" +
                            std::to_string(jobs));
    }
}

TEST_P(ChopinEdgeTest, SingleGpuIsDeterministicAcrossJobs)
{
    Scheme scheme = GetParam();
    ScopedJobs restore(1);
    SystemConfig cfg;
    cfg.num_gpus = 1;
    FrameTrace trace = generateBenchmark("ut3", 32);

    setGlobalJobs(1);
    FrameResult serial = runScheme(scheme, cfg, trace);
    for (unsigned jobs : {2u, 8u}) {
        setGlobalJobs(jobs);
        FrameResult parallel = runScheme(scheme, cfg, trace);
        expectIdentical(serial, parallel,
                        toString(scheme) + " num_gpus=1 jobs=" +
                            std::to_string(jobs));
    }

    // With one GPU there is nobody to exchange sub-images with: the
    // composition phase must move zero bytes.
    EXPECT_EQ(serial.traffic.total, 0u) << toString(scheme);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ChopinEdgeTest,
    ::testing::Values(Scheme::Chopin, Scheme::ChopinCompSched),
    [](const auto &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(ChopinEdge, OpaqueOnlyMatchesSingleGpuImage)
{
    // The cross-scheme oracle restricted to the degenerate trace: CHOPIN
    // over 8 GPUs must composite the opaque-only frame to exactly the
    // single-GPU reference image.
    ScopedJobs restore(4);
    FrameTrace trace = opaqueOnlyTrace();
    SystemConfig one;
    one.num_gpus = 1;
    SystemConfig eight;
    eight.num_gpus = 8;
    FrameResult ref = runScheme(Scheme::SingleGpu, one, trace);
    FrameResult chopin = runScheme(Scheme::Chopin, eight, trace);
    EXPECT_EQ(ref.content_hash, chopin.content_hash);
}

/** wolf at 1/32 scale with its additive draws turned into Multiply ones. */
FrameTrace
multiplyTrace()
{
    FrameTrace t = generateBenchmark("wolf", 32);
    for (DrawCommand &cmd : t.draws)
        if (cmd.state.blend_op == BlendOp::Additive)
            cmd.state.blend_op = BlendOp::Multiply;
    return t;
}

/** Whether some group of @p trace distributes under @p cfg and matches
 *  @p pred. */
template <typename Pred>
bool
distributesGroup(const FrameTrace &trace, const SystemConfig &cfg,
                 Pred pred)
{
    for (const CompositionGroup &g : formGroups(trace))
        if (groupDistributable(g, cfg.group_threshold) && pred(g))
            return true;
    return false;
}

/**
 * Whether a distributed opaque group whose sub-images reset to
 * (Color(), 1.0f) is followed, as the next distributed group, by a
 * transparent Over group: Over's identity is that same value, so its reset
 * takes the sparse path over the blocks the opaque group wrote.
 */
bool
opaqueThenOver(const FrameTrace &trace, const SystemConfig &cfg)
{
    bool after_opaque = false;
    for (const CompositionGroup &g : formGroups(trace)) {
        if (!groupDistributable(g, cfg.group_threshold))
            continue;
        if (after_opaque && g.blend_op == BlendOp::Over)
            return true;
        after_opaque = !g.transparent() &&
                       (!g.depth_test || prefersSmaller(g.depth_func));
    }
    return false;
}

/** A result on a thread of fresh caches; its image goes to @p image. */
FrameResult
runOnFreshThread(const SystemConfig &cfg, const FrameTrace &trace,
                 Image *image = nullptr)
{
    FrameResult r;
    std::thread worker([&] {
        r = runScheme(Scheme::ChopinCompSched, cfg, trace, nullptr, image);
    });
    worker.join();
    return r;
}

void
expectSameResult(const FrameResult &got, const FrameResult &want,
                 const std::string &what)
{
    EXPECT_TRUE(metricsEqual<FrameAccounting>(got, want))
        << what << ": " << ::testing::PrintToString(
                               metricsDiff<FrameAccounting>(got, want));
    EXPECT_EQ(got.frame_hash, want.frame_hash) << what;
    EXPECT_EQ(got.content_hash, want.content_hash) << what;
}

TEST(ChopinEdge, SurfaceReuseAcrossRunsMatchesAFreshThread)
{
    // A run takes its render targets and sub-images from the thread's
    // surface cache and resets them only over the blocks written since
    // their last clear. A runs again after B, which used another viewport
    // (the cache is dropped and refilled), twice the GPUs, and groups
    // whose clear values differ from the default (reversed-Z depth 0,
    // Multiply color 1s). C runs twice in a row on a viewport whose sides
    // are not multiples of 8, and holds an opaque group followed by an
    // Over group with the same clear value: a reset that skipped a plane
    // of the opaque group's blocks would leave color under the Over
    // group's blends.
    FrameTrace a = generateBenchmark("ut3", 32);
    FrameTrace b = multiplyTrace();
    FrameTrace c = generateBenchmark("cry", 8);
    ASSERT_NE(a.viewport.width, b.viewport.width);
    ASSERT_EQ(c.viewport.width, 282);
    ASSERT_EQ(c.viewport.height, 212);
    SystemConfig cfg_a;
    cfg_a.num_gpus = 8;
    SystemConfig cfg_b;
    cfg_b.num_gpus = 16;
    cfg_b.group_threshold = 1; // distribute B's small groups too
    ASSERT_TRUE(distributesGroup(b, cfg_b, [](const CompositionGroup &g) {
        return g.depth_test && !prefersSmaller(g.depth_func);
    }));
    ASSERT_TRUE(distributesGroup(b, cfg_b, [](const CompositionGroup &g) {
        return g.blend_op == BlendOp::Multiply;
    }));

    Image fresh_b_image, ref_b_image;
    const FrameResult fresh_a = runOnFreshThread(cfg_a, a);
    const FrameResult fresh_b = runOnFreshThread(cfg_b, b, &fresh_b_image);
    ASSERT_GT(fresh_a.groups_distributed, 0u);
    // B's full clears must be right, not only repeatable: its image
    // matches the single-GPU reference up to the rounding of reassociated
    // Multiply merges.
    runScheme(Scheme::SingleGpu, cfg_b, b, nullptr, &ref_b_image);
    ASSERT_EQ(ref_b_image.width(), b.viewport.width);
    ASSERT_EQ(ref_b_image.height(), b.viewport.height);
    EXPECT_EQ(compareImages(fresh_b_image, ref_b_image, 1e-5f)
                  .differing_pixels,
              0);

    SystemConfig cfg_c;
    cfg_c.num_gpus = 8;
    cfg_c.group_threshold = 1; // distribute C's Over group too
    ASSERT_TRUE(opaqueThenOver(c, cfg_c));
    Image fresh_c_image, ref_c_image;
    const FrameResult fresh_c = runOnFreshThread(cfg_c, c, &fresh_c_image);
    runScheme(Scheme::SingleGpu, cfg_c, c, nullptr, &ref_c_image);
    EXPECT_EQ(compareImages(fresh_c_image, ref_c_image, 1e-5f)
                  .differing_pixels,
              0);

    ScopedJobs restore(1);
    for (unsigned jobs : {1u, 4u}) {
        setGlobalJobs(jobs);
        std::string at = " jobs=" + std::to_string(jobs);
        expectSameResult(runScheme(Scheme::ChopinCompSched, cfg_a, a),
                         fresh_a, "A first" + at);
        expectSameResult(runScheme(Scheme::ChopinCompSched, cfg_b, b),
                         fresh_b, "B after A" + at);
        expectSameResult(runScheme(Scheme::ChopinCompSched, cfg_a, a),
                         fresh_a, "A after B" + at);
        expectSameResult(runScheme(Scheme::ChopinCompSched, cfg_c, c),
                         fresh_c, "C after A" + at);
        expectSameResult(runScheme(Scheme::ChopinCompSched, cfg_c, c),
                         fresh_c, "C after C" + at);
    }
}

TEST(ChopinEdge, RenderTargetZeroReturnsToTheCacheUnlessItsImageIsTaken)
{
    // Without an image out parameter, a run gives every render target
    // back to the thread's surface cache, so the next run allocates none.
    // With one, render target 0's color image leaves with the caller, and
    // the cache drops the emptied surface.
    std::thread worker([] {
        FrameTrace trace = generateBenchmark("mirror", 32);
        ASSERT_GT(trace.num_render_targets, 1u);
        SystemConfig cfg;
        const SurfaceCache &cache = threadRenderScratch().surfaces;

        FrameResult first = runScheme(Scheme::SingleGpu, cfg, trace);
        EXPECT_EQ(cache.size(), trace.num_render_targets);

        Image image;
        FrameResult second =
            runScheme(Scheme::SingleGpu, cfg, trace, nullptr, &image);
        EXPECT_EQ(cache.size(), trace.num_render_targets - 1);
        EXPECT_EQ(image.width(), trace.viewport.width);
        EXPECT_EQ(image.height(), trace.viewport.height);
        EXPECT_EQ(frameHash(image), second.frame_hash);

        FrameResult third = runScheme(Scheme::SingleGpu, cfg, trace);
        EXPECT_EQ(cache.size(), trace.num_render_targets);
        expectSameResult(second, first, "with an image");
        expectSameResult(third, first, "after giving an image away");
    });
    worker.join();
}

} // namespace
} // namespace chopin
