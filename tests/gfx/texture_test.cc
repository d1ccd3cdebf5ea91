#include <gtest/gtest.h>

#include "gfx/renderer.hh"
#include "sfr/schemes.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

DrawInput
quadInput(std::vector<Triangle> &storage, const Image *texture = nullptr)
{
    storage.clear();
    Triangle t1, t2;
    Color c{0.5f, 1.0f, 0.25f, 1.0f};
    t1.v[0] = {{-1, -1, 0}, c};
    t1.v[1] = {{-1, 1, 0}, c};
    t1.v[2] = {{1, -1, 0}, c};
    t2.v[0] = {{1, -1, 0}, c};
    t2.v[1] = {{-1, 1, 0}, c};
    t2.v[2] = {{1, 1, 0}, c};
    storage.push_back(t1);
    storage.push_back(t2);
    DrawInput in;
    in.triangles = storage;
    in.mvp = Mat4::identity();
    in.texture = texture;
    return in;
}

TEST(Texture, ModulatesInterpolatedColor)
{
    Viewport vp{16, 16};
    Image tex(16, 16, {0.5f, 0.5f, 0.5f, 1.0f});
    tex.at(3, 4) = {0.0f, 1.0f, 1.0f, 1.0f};
    Surface s(vp.width, vp.height);
    std::vector<Triangle> tris;
    DrawStats stats = renderDraw(s, vp, quadInput(tris, &tex));
    EXPECT_EQ(stats.frags_textured, 256u);
    // Vertex color (0.5, 1, 0.25) x texel:
    EXPECT_NEAR(s.color().at(0, 0).r, 0.25f, 1e-5f);
    EXPECT_NEAR(s.color().at(0, 0).g, 0.5f, 1e-5f);
    EXPECT_NEAR(s.color().at(3, 4).r, 0.0f, 1e-5f);
    EXPECT_NEAR(s.color().at(3, 4).g, 1.0f, 1e-5f);
}

TEST(Texture, NoTextureMeansNoTexCost)
{
    Viewport vp{16, 16};
    Surface s(vp.width, vp.height);
    std::vector<Triangle> tris;
    DrawStats stats = renderDraw(s, vp, quadInput(tris));
    EXPECT_EQ(stats.frags_textured, 0u);
}

TEST(Texture, TexturedFragmentsCostTexCycles)
{
    TimingParams p;
    DrawStats plain;
    plain.frags_generated = 10000;
    plain.frags_shaded = 10000;
    plain.frags_written = 10000;
    DrawStats textured = plain;
    textured.frags_textured = 10000;
    EXPECT_GT(p.fragmentCycles(textured), p.fragmentCycles(plain));
}

TEST(Texture, GeneratorEmitsRtComposites)
{
    FrameTrace t = generateBenchmark("mirror", 4);
    int composites = 0;
    for (const DrawCommand &d : t.draws) {
        if (d.texture_rt < 0)
            continue;
        ++composites;
        // A composite samples an intermediate target and draws to another.
        EXPECT_GT(d.texture_rt, 0);
        EXPECT_NE(static_cast<std::uint32_t>(d.texture_rt),
                  d.state.render_target);
        EXPECT_LT(static_cast<std::uint32_t>(d.texture_rt),
                  t.num_render_targets);
    }
    EXPECT_GE(composites, 1);
}

TEST(Texture, CompositeContentReachesTheFinalImage)
{
    // Rendering with and without the intermediate-RT draws must differ:
    // the composites carry RT content into the frame, so the consistency
    // sync is load-bearing.
    FrameTrace with_rt = generateBenchmark("mirror", 8);
    FrameTrace without = with_rt;
    for (DrawCommand &d : without.draws)
        if (d.state.render_target != 0)
            d.triangles.clear(); // empty the RT passes
    SystemConfig cfg;
    FrameResult a = runSingleGpu(cfg, with_rt);
    FrameResult b = runSingleGpu(cfg, without);
    EXPECT_NE(a.frame_hash, b.frame_hash);
}

TEST(Texture, OracleHoldsForSamplingDrawsAcrossSchemes)
{
    FrameTrace trace = generateBenchmark("ut3", 16);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    Image reference;
    runSingleGpu(cfg, trace, nullptr, &reference);
    ASSERT_EQ(reference.width(), trace.viewport.width);
    ASSERT_EQ(reference.height(), trace.viewport.height);
    for (Scheme s : {Scheme::Duplication, Scheme::ChopinCompSched}) {
        Image image;
        runScheme(s, cfg, trace, nullptr, &image);
        EXPECT_EQ(compareImages(reference, image, 2e-4f).differing_pixels,
                  0)
            << toString(s);
    }
}

} // namespace
} // namespace chopin
