#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gfx/renderer.hh"
#include "gfx/surface.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

Fragment
frag(int x, int y, float z, Color c = {1, 1, 1, 1})
{
    return {x, y, z, c};
}

RasterState
opaqueState(DepthFunc func = DepthFunc::LessEqual)
{
    RasterState s;
    s.depth_func = func;
    return s;
}

TEST(Surface, ClearResetsEverything)
{
    Surface s(4, 4);
    DrawStats stats;
    s.applyFragment(frag(1, 1, 0.5f), opaqueState(), 7, 0.5f, stats);
    s.clear({0, 0, 0, 0}, 1.0f);
    EXPECT_FALSE(s.writtenAt(1, 1));
    EXPECT_EQ(s.writerAt(1, 1), noWriter);
    EXPECT_FLOAT_EQ(s.depthAt(1, 1), 1.0f);
}

TEST(Surface, OpaqueWriteUpdatesAllBuffers)
{
    Surface s(4, 4);
    DrawStats stats;
    s.applyFragment(frag(2, 3, 0.25f, {0.5f, 0.25f, 0.75f, 0.5f}),
                    opaqueState(), 9, 0.5f, stats);
    EXPECT_TRUE(s.writtenAt(2, 3));
    EXPECT_EQ(s.writerAt(2, 3), 9u);
    EXPECT_FLOAT_EQ(s.depthAt(2, 3), 0.25f);
    EXPECT_FLOAT_EQ(s.color().at(2, 3).a, 1.0f); // opaque forces alpha 1
    EXPECT_EQ(stats.frags_early_pass, 1u);
    EXPECT_EQ(stats.frags_written, 1u);
}

/** Depth-function truth table at the fragment level. */
struct DepthCase
{
    DepthFunc func;
    bool pass_closer;
    bool pass_equal;
    bool pass_farther;
};

class DepthFuncTest : public ::testing::TestWithParam<DepthCase>
{
};

TEST_P(DepthFuncTest, FragmentPassMatchesFunction)
{
    DepthCase c = GetParam();
    auto passes = [&](float z_new) {
        Surface s(2, 2);
        DrawStats st;
        s.applyFragment(frag(0, 0, 0.5f), opaqueState(DepthFunc::Always), 0,
                        0.5f, st);
        DrawStats st2;
        s.applyFragment(frag(0, 0, z_new), opaqueState(c.func), 1, 0.5f,
                        st2);
        return s.writerAt(0, 0) == 1u;
    };
    EXPECT_EQ(passes(0.25f), c.pass_closer) << toString(c.func);
    EXPECT_EQ(passes(0.5f), c.pass_equal) << toString(c.func);
    EXPECT_EQ(passes(0.75f), c.pass_farther) << toString(c.func);
}

INSTANTIATE_TEST_SUITE_P(
    AllFuncs, DepthFuncTest,
    ::testing::Values(DepthCase{DepthFunc::Never, false, false, false},
                      DepthCase{DepthFunc::Less, true, false, false},
                      DepthCase{DepthFunc::Equal, false, true, false},
                      DepthCase{DepthFunc::LessEqual, true, true, false},
                      DepthCase{DepthFunc::Greater, false, false, true},
                      DepthCase{DepthFunc::NotEqual, true, false, true},
                      DepthCase{DepthFunc::GreaterEqual, false, true, true},
                      DepthCase{DepthFunc::Always, true, true, true}),
    [](const auto &info) { return toString(info.param.func); });

TEST(Surface, EarlyZCullsBeforeShading)
{
    Surface s(2, 2);
    DrawStats st;
    s.applyFragment(frag(0, 0, 0.2f), opaqueState(), 0, 0.5f, st);
    DrawStats st2;
    s.applyFragment(frag(0, 0, 0.8f), opaqueState(), 1, 0.5f, st2);
    EXPECT_EQ(st2.frags_early_fail, 1u);
    EXPECT_EQ(st2.frags_shaded, 0u); // culled fragments are never shaded
}

TEST(Surface, ShaderDiscardForcesLateZ)
{
    Surface s(2, 2);
    DrawStats st;
    s.applyFragment(frag(0, 0, 0.2f), opaqueState(), 0, 0.5f, st);
    RasterState late = opaqueState();
    late.shader_discard = true;
    DrawStats st2;
    s.applyFragment(frag(0, 0, 0.8f, {1, 1, 1, 0.9f}), late, 1, 0.5f, st2);
    EXPECT_EQ(st2.frags_early_fail, 0u);
    EXPECT_EQ(st2.frags_shaded, 1u); // shaded despite being occluded
    EXPECT_EQ(st2.frags_late_fail, 1u);
    EXPECT_EQ(s.writerAt(0, 0), 0u);
}

TEST(Surface, AlphaTestDiscardsLowAlpha)
{
    Surface s(2, 2);
    RasterState st = opaqueState();
    st.shader_discard = true;
    DrawStats stats;
    s.applyFragment(frag(0, 0, 0.5f, {1, 1, 1, 0.2f}), st, 3, 0.5f, stats);
    EXPECT_FALSE(s.writtenAt(0, 0));
    EXPECT_EQ(stats.frags_shaded, 1u);
    EXPECT_EQ(stats.frags_written, 0u);
}

TEST(Surface, DepthWriteDisabledKeepsDepth)
{
    Surface s(2, 2);
    RasterState st = opaqueState();
    st.depth_write = false;
    DrawStats stats;
    s.applyFragment(frag(0, 0, 0.25f), st, 0, 0.5f, stats);
    EXPECT_TRUE(s.writtenAt(0, 0));
    EXPECT_FLOAT_EQ(s.depthAt(0, 0), 1.0f); // unchanged
}

TEST(Surface, DepthTestDisabledAlwaysWrites)
{
    Surface s(2, 2);
    RasterState st = opaqueState();
    DrawStats stats;
    s.applyFragment(frag(0, 0, 0.1f), st, 0, 0.5f, stats);
    RasterState no_test = opaqueState();
    no_test.depth_test = false;
    DrawStats stats2;
    s.applyFragment(frag(0, 0, 0.9f), no_test, 1, 0.5f, stats2);
    EXPECT_EQ(s.writerAt(0, 0), 1u);
    EXPECT_FLOAT_EQ(s.depthAt(0, 0), 0.1f); // no depth update either
    EXPECT_EQ(stats2.frags_early_pass + stats2.frags_late_pass, 0u);
}

TEST(SurfaceHash, IdenticalContentHashesEqual)
{
    Surface a(8, 8), b(8, 8);
    a.clear({0.1f, 0.2f, 0.3f, 1.0f}, 1.0f);
    b.clear({0.1f, 0.2f, 0.3f, 1.0f}, 1.0f);
    DrawStats st;
    a.applyFragment(frag(3, 4, 0.5f, {1, 0, 0, 1}), opaqueState(), 2, 0.5f,
                    st);
    b.applyFragment(frag(3, 4, 0.5f, {1, 0, 0, 1}), opaqueState(), 2, 0.5f,
                    st);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_EQ(frameHash(a.color()), frameHash(b.color()));
}

TEST(SurfaceHash, SinglePixelChangeChangesHash)
{
    Surface a(8, 8), b(8, 8);
    a.clear({0, 0, 0, 1}, 1.0f);
    b.clear({0, 0, 0, 1}, 1.0f);
    DrawStats st;
    b.applyFragment(frag(7, 7, 0.5f, {0, 1, 0, 1}), opaqueState(), 0, 0.5f,
                    st);
    EXPECT_NE(a.contentHash(), b.contentHash());
    EXPECT_NE(frameHash(a.color()), frameHash(b.color()));
}

TEST(SurfaceHash, DimensionsFeedTheHash)
{
    // A 2x8 and an 8x2 image with identical bytes must not collide.
    Surface a(2, 8), b(8, 2);
    a.clear({0.5f, 0.5f, 0.5f, 1.0f}, 1.0f);
    b.clear({0.5f, 0.5f, 0.5f, 1.0f}, 1.0f);
    EXPECT_NE(frameHash(a.color()), frameHash(b.color()));
}

TEST(SurfaceHash, DepthOnlyChangeChangesContentHash)
{
    Surface a(4, 4), b(4, 4);
    a.clear({0, 0, 0, 1}, 1.0f);
    b.clear({0, 0, 0, 1}, 0.5f);
    EXPECT_EQ(frameHash(a.color()), frameHash(b.color()));
    EXPECT_NE(a.contentHash(), b.contentHash());
}

/** A small surface whose color, depth and written bytes all vary. */
Surface
pinnedSurface()
{
    Surface s(5, 3);
    s.clear({0.05f, 0.05f, 0.08f, 1.0f}, 1.0f);
    DrawStats st;
    s.applyFragment(frag(0, 0, 0.25f, {1.0f, 0.5f, 0.25f, 1.0f}),
                    opaqueState(), 1, 0.5f, st);
    s.applyFragment(frag(4, 2, 0.75f, {0.1f, 0.2f, 0.3f, 0.4f}),
                    opaqueState(), 2, 0.5f, st);
    RasterState over = opaqueState();
    over.blend_op = BlendOp::Over;
    over.depth_write = false;
    s.applyFragment(frag(2, 1, 0.5f, {0.9f, 0.1f, 0.4f, 0.5f}), over, 3,
                    0.5f, st);
    return s;
}

TEST(SurfaceHash, ValuesArePinned)
{
    // Golden values: frame and content hashes are compared across schemes,
    // runs and cached results, so changing either is an explicit golden
    // migration, never a side effect of an optimization.
    Surface s = pinnedSurface();
    EXPECT_EQ(frameHash(s.color()), 0x6434b10f91f7ba24ULL);
    EXPECT_EQ(s.contentHash(), 0x0dab0330bb88e4efULL);

    Surface fresh(5, 3);
    EXPECT_EQ(frameHash(fresh.color()), 0x5e3c3048c701b275ULL);
    EXPECT_EQ(fresh.contentHash(), 0xc09588e4470b0d88ULL);
}

TEST(SurfaceHash, ContentHashFromContinuesTheFrameHash)
{
    for (const Surface &s : {pinnedSurface(), Surface(5, 3), Surface(1, 7)})
        EXPECT_EQ(s.contentHashFrom(frameHash(s.color())), s.contentHash());
}

/** Restore a deterministic single-job pool when a test exits. */
struct ScopedJobs
{
    explicit ScopedJobs(unsigned jobs) { setGlobalJobs(jobs); }
    ~ScopedJobs() { setGlobalJobs(1); }
};

/** Render two draws into @p s: a large opaque triangle plus a sliver in
 *  the top-left corner that write stencil, binned along @p grid's tiles at
 *  jobs > 1, then an Over-blended triangle across it plus a sliver in the
 *  partial bottom-right corner block, binned along the default bins. */
void
drawOpaqueStencilAndOver(Surface &s, const Viewport &vp,
                         const TileGrid &grid)
{
    std::vector<Triangle> big(2);
    Color c{0.8f, 0.3f, 0.1f, 1.0f};
    big[0].v[0] = {{-0.9f, -0.9f, 0.2f}, c};
    big[0].v[1] = {{-0.1f, 0.7f, 0.2f}, c};
    big[0].v[2] = {{0.5f, -0.9f, 0.2f}, c};
    big[1].v[0] = {{-1.0f, 1.0f, 0.2f}, c};
    big[1].v[1] = {{-0.9f, 1.0f, 0.2f}, c};
    big[1].v[2] = {{-1.0f, 0.9f, 0.2f}, c};
    DrawInput opaque;
    opaque.triangles = big;
    opaque.mvp = Mat4::identity();
    opaque.backface_cull = false;
    opaque.draw_id = 4;
    opaque.state.stencil_test = true;
    opaque.state.stencil_ref = 7;
    opaque.state.stencil_pass_op = StencilOp::Replace;
    ASSERT_GT(renderDraw(s, vp, opaque, RenderFilter{}, nullptr, &grid)
                  .frags_written,
              0u);

    std::vector<Triangle> glass(2);
    Color tint{0.1f, 0.5f, 0.9f, 0.4f};
    glass[0].v[0] = {{-0.3f, -0.5f, 0.1f}, tint};
    glass[0].v[1] = {{0.2f, 0.9f, 0.1f}, tint};
    glass[0].v[2] = {{0.7f, -0.5f, 0.1f}, tint};
    glass[1].v[0] = {{0.9f, -0.9f, 0.1f}, tint};
    glass[1].v[1] = {{1.0f, -0.9f, 0.1f}, tint};
    glass[1].v[2] = {{1.0f, -1.0f, 0.1f}, tint};
    DrawInput over;
    over.triangles = glass;
    over.mvp = Mat4::identity();
    over.backface_cull = false;
    over.draw_id = 5;
    over.state.blend_op = BlendOp::Over;
    over.state.depth_test = false;
    over.state.depth_write = false;
    ASSERT_GT(renderDraw(s, vp, over).frags_written, 0u);
}

/** Expect every plane of @p s to hold the clear(@p c, @p z) state. */
void
expectClearState(const Surface &s, const Color &c, float z)
{
    Surface want(s.width(), s.height());
    want.clear(c, z);
    EXPECT_EQ(s.contentHash(), want.contentHash());
    for (int b = 0; b < s.blocksX() * s.blocksY(); ++b)
        ASSERT_EQ(s.blockMask(b), 0u) << "block " << b;
    for (int y = 0; y < s.height(); ++y)
        for (int x = 0; x < s.width(); ++x) {
            ASSERT_EQ(s.writerAt(x, y), noWriter) << x << "," << y;
            ASSERT_EQ(s.stencilAt(x, y), 0) << x << "," << y;
        }
}

class BlockResetTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BlockResetTest, ResetRestoresTheClearState)
{
    // The invariant Surface::reset relies on: every pixel a draw changes
    // has its bit set in its 8x8 block's written mask, so clearing the
    // blocks with a nonzero mask restores the held clear value — at any
    // job count (the serial and the binned raster paths). Neither side of
    // the viewport is a multiple of 8, so edge blocks are partial.
    ScopedJobs jobs(GetParam());
    Viewport vp{203, 117};
    TileGrid grid(vp.width, vp.height, 1, 32);
    Surface s(vp.width, vp.height);
    ASSERT_EQ(s.blocksX(), 26);
    ASSERT_EQ(s.blocksY(), 15);
    drawOpaqueStencilAndOver(s, vp, grid);

    // Mask layout: bit (y & 7) * 8 + (x & 7) of block
    // (y >> 3) * blocksX + (x >> 3), and never a bit outside the surface.
    int written_blocks = 0;
    for (int b = 0; b < s.blocksX() * s.blocksY(); ++b) {
        std::uint64_t mask = s.blockMask(b);
        written_blocks += mask != 0;
        for (int bit = 0; bit < 64; ++bit) {
            int x = (b % s.blocksX()) * 8 + bit % 8;
            int y = (b / s.blocksX()) * 8 + bit / 8;
            bool set = (mask >> bit) & 1U;
            if (x >= vp.width || y >= vp.height)
                ASSERT_FALSE(set) << x << "," << y;
            else
                ASSERT_EQ(set, s.writtenAt(x, y)) << x << "," << y;
        }
    }
    ASSERT_GT(written_blocks, 1);
    ASSERT_LT(written_blocks, s.blocksX() * s.blocksY());
    ASSERT_TRUE(s.writtenAt(0, 0));
    ASSERT_TRUE(s.writtenAt(vp.width - 1, vp.height - 1));
    ASSERT_NE(s.contentHash(), Surface(vp.width, vp.height).contentHash());

    // The held value (Surface(w, h) holds Color(), 1.0f): written blocks
    // only.
    s.reset(Color(), 1.0f);
    expectClearState(s, Color(), 1.0f);

    // Another value takes the full-clear path, which then becomes the
    // held value for the next sparse reset.
    const Color sky{0.2f, 0.4f, 0.6f, 1.0f};
    drawOpaqueStencilAndOver(s, vp, grid);
    s.reset(sky, 0.75f);
    expectClearState(s, sky, 0.75f);
    drawOpaqueStencilAndOver(s, vp, grid);
    s.reset(sky, 0.75f);
    expectClearState(s, sky, 0.75f);
}

INSTANTIATE_TEST_SUITE_P(Jobs, BlockResetTest, ::testing::Values(1u, 4u),
                         [](const auto &info) {
                             return "jobs" + std::to_string(info.param);
                         });

TEST(SurfaceCache, TakeIsLastInFirstOutAndDropsOtherSizes)
{
    SurfaceCache cache;
    Surface a = cache.take(8, 4);
    EXPECT_EQ(a.contentHash(), Surface(8, 4).contentHash());
    Surface b = cache.take(8, 4);
    EXPECT_EQ(cache.size(), 0u);

    // The surface given back last is handed out first.
    const Color *a_pixels = a.color().data().data();
    const Color *b_pixels = b.color().data().data();
    cache.give(std::move(a));
    cache.give(std::move(b));
    EXPECT_EQ(cache.size(), 2u);
    Surface first = cache.take(8, 4);
    Surface second = cache.take(8, 4);
    EXPECT_EQ(first.color().data().data(), b_pixels);
    EXPECT_EQ(second.color().data().data(), a_pixels);
    EXPECT_EQ(cache.size(), 0u);

    // A surface whose color was taken by a result reports 0x0 and is
    // dropped, as is a surface of another size.
    Image taken = first.takeColor();
    EXPECT_EQ(taken.width(), 8);
    EXPECT_EQ(first.width(), 0);
    EXPECT_EQ(first.height(), 0);
    cache.give(std::move(first));
    cache.give(Surface(4, 8));
    EXPECT_EQ(cache.size(), 0u);

    // A take of another size drops what the cache held.
    cache.give(std::move(second));
    EXPECT_EQ(cache.size(), 1u);
    Surface c = cache.take(16, 4);
    EXPECT_EQ(c.width(), 16);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SurfaceCache, TakenSurfacesKeepTheirStateUntilReset)
{
    // The cache neither checks nor clears what it holds: the taker resets
    // it, and the surface's own held clear value makes that exact.
    SurfaceCache cache;
    Surface dirty = cache.take(8, 4);
    dirty.clear({0.5f, 0.5f, 0.5f, 1.0f}, 0.0f);
    DrawStats st;
    dirty.applyFragment(frag(2, 3, 0.5f), opaqueState(DepthFunc::Always), 5,
                        0.5f, st);
    const std::uint64_t dirty_hash = dirty.contentHash();
    cache.give(std::move(dirty));

    Surface again = cache.take(8, 4);
    EXPECT_EQ(again.contentHash(), dirty_hash);
    EXPECT_EQ(again.writerAt(2, 3), 5u);
    again.reset(Color(), 1.0f);
    EXPECT_EQ(again.contentHash(), Surface(8, 4).contentHash());
    EXPECT_EQ(again.writerAt(2, 3), noWriter);
}

TEST(Blend, OverMatchesFormula)
{
    Color src{1.0f, 0.0f, 0.0f, 0.25f};
    Color dst{0.0f, 1.0f, 0.0f, 1.0f};
    Color out = blendPixel(BlendOp::Over, src, dst);
    EXPECT_NEAR(out.r, 0.25f, 1e-6f);
    EXPECT_NEAR(out.g, 0.75f, 1e-6f);
    EXPECT_NEAR(out.a, 1.0f, 1e-6f);
}

TEST(Blend, AdditiveAccumulates)
{
    Color out = blendPixel(BlendOp::Additive, {0.5f, 0.5f, 0.5f, 0.5f},
                           {0.2f, 0.2f, 0.2f, 1.0f});
    EXPECT_NEAR(out.r, 0.45f, 1e-6f);
}

TEST(Blend, MultiplyModulates)
{
    Color out = blendPixel(BlendOp::Multiply, {0.5f, 1.0f, 0.0f, 1.0f},
                           {0.8f, 0.5f, 0.9f, 1.0f});
    EXPECT_NEAR(out.r, 0.4f, 1e-6f);
    EXPECT_NEAR(out.g, 0.5f, 1e-6f);
    EXPECT_NEAR(out.b, 0.0f, 1e-6f);
}

} // namespace
} // namespace chopin
