/**
 * @file
 * Reversed-Z rendering: a frame whose depth buffer clears to 0 and whose
 * draws use GreaterEqual comparisons (a common modern-engine convention).
 * Exercises the prefersSmaller(func) == false paths of the composition
 * operators, CHOPIN's sub-image depth-clear selection, and the oracle.
 */

#include <gtest/gtest.h>

#include "sfr/schemes.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

FrameTrace
reversedZTrace()
{
    FrameTrace t;
    t.name = "reversed-z";
    t.viewport = {320, 256};
    t.clear_depth = 0.0f; // reversed-Z clear
    Rng rng(4242);

    for (int d = 0; d < 60; ++d) {
        DrawCommand cmd;
        cmd.id = static_cast<DrawId>(d);
        cmd.state.depth_func = DepthFunc::GreaterEqual;
        cmd.state.depth_test = true;
        cmd.state.depth_write = true;
        cmd.backface_cull = false;
        float cx = rng.nextFloat(-0.8f, 0.8f);
        float cy = rng.nextFloat(-0.8f, 0.8f);
        // Reversed-Z: larger depth = closer.
        float z = 2.0f * rng.nextFloat(0.05f, 0.95f) - 1.0f;
        for (int i = 0; i < 40; ++i) {
            Triangle tri;
            float px = cx + rng.nextFloat(-0.15f, 0.15f);
            float py = cy + rng.nextFloat(-0.15f, 0.15f);
            float s = rng.nextFloat(0.02f, 0.08f);
            Color c{rng.nextFloat(), rng.nextFloat(), rng.nextFloat(), 1};
            tri.v[0] = {{px, py, z}, c};
            tri.v[1] = {{px + s, py, z}, c};
            tri.v[2] = {{px, py + s, z}, c};
            cmd.triangles.push_back(tri);
        }
        t.draws.push_back(std::move(cmd));
    }
    return t;
}

TEST(ReversedZ, AllSchemesMatchTheReference)
{
    FrameTrace trace = reversedZTrace();
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.group_threshold = 1; // force distribution of this small frame
    Image reference;
    runSingleGpu(cfg, trace, nullptr, &reference);
    ASSERT_EQ(reference.width(), trace.viewport.width);
    ASSERT_EQ(reference.height(), trace.viewport.height);

    // The distributed path must have been taken for the test to mean
    // anything.
    FrameResult chopin = runScheme(Scheme::ChopinCompSched, cfg, trace);
    EXPECT_GT(chopin.groups_distributed, 0u);

    for (Scheme s : {Scheme::Duplication, Scheme::Gpupd, Scheme::Chopin,
                     Scheme::ChopinCompSched, Scheme::ChopinIdeal}) {
        Image image;
        runScheme(s, cfg, trace, nullptr, &image);
        ImageDiff diff = compareImages(reference, image);
        EXPECT_EQ(diff.differing_pixels, 0) << toString(s);
    }
}

TEST(ReversedZ, CloserMeansLarger)
{
    FrameTrace trace = reversedZTrace();
    SystemConfig cfg;
    FrameResult r = runSingleGpu(cfg, trace);
    // Sanity: something rendered and the depth semantics did not cull
    // everything (GreaterEqual against a 0-cleared buffer passes).
    EXPECT_GT(r.totals.frags_written, 0u);
    EXPECT_GT(r.totals.frags_early_pass, r.totals.frags_early_fail / 100);
}

} // namespace
} // namespace chopin
