/**
 * @file
 * The SIMD determinism contract, enforced fragment for fragment: the quad
 * rasterizer must produce *bit-identical* output (coverage, order, z and
 * color down to the float bit pattern) at every lane width and on the
 * native vector backend. If any of these tests fails, frame hashes would
 * differ between scalar and SIMD builds — the one thing DESIGN.md §14
 * promises cannot happen.
 *
 * The reference is ScalarLanes<1>: the classic one-pixel-at-a-time loop,
 * compiled from the same templated kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "gfx/raster.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

ScreenTriangle
tri(float x0, float y0, float x1, float y1, float x2, float y2)
{
    ScreenTriangle t;
    t.v[0] = {{x0, y0}, 0.25f, {1.0f, 0.125f, 0.0f, 1.0f}};
    t.v[1] = {{x1, y1}, 0.5f, {0.0f, 1.0f, 0.375f, 0.5f}};
    t.v[2] = {{x2, y2}, 0.875f, {0.0625f, 0.0f, 1.0f, 0.75f}};
    return t;
}

template <typename Lanes>
std::vector<Fragment>
rasterAs(const ScreenTriangle &t, const Viewport &vp, const PixelRect &clip)
{
    std::vector<Fragment> out;
    rasterizeTriangleInRectAs<Lanes>(
        t, vp, clip, [&out](const Fragment &f) { out.push_back(f); });
    return out;
}

std::uint32_t
bits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

void
expectBitIdentical(const std::vector<Fragment> &ref,
                   const std::vector<Fragment> &got, const char *label)
{
    ASSERT_EQ(ref.size(), got.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const Fragment &a = ref[i];
        const Fragment &b = got[i];
        ASSERT_EQ(a.x, b.x) << label << " frag " << i;
        ASSERT_EQ(a.y, b.y) << label << " frag " << i;
        ASSERT_EQ(bits(a.z), bits(b.z)) << label << " frag " << i;
        ASSERT_EQ(bits(a.color.r), bits(b.color.r)) << label << " frag " << i;
        ASSERT_EQ(bits(a.color.g), bits(b.color.g)) << label << " frag " << i;
        ASSERT_EQ(bits(a.color.b), bits(b.color.b)) << label << " frag " << i;
        ASSERT_EQ(bits(a.color.a), bits(b.color.a)) << label << " frag " << i;
    }
}

/** Every lane width and the native backend against the width-1 reference. */
void
expectAllWidthsMatch(const ScreenTriangle &t, const Viewport &vp,
                     const PixelRect &clip)
{
    using simd::ScalarLanes;
    std::vector<Fragment> ref = rasterAs<ScalarLanes<1>>(t, vp, clip);
    expectBitIdentical(ref, rasterAs<ScalarLanes<2>>(t, vp, clip), "W=2");
    expectBitIdentical(ref, rasterAs<ScalarLanes<3>>(t, vp, clip), "W=3");
    expectBitIdentical(ref, rasterAs<ScalarLanes<4>>(t, vp, clip), "W=4");
    expectBitIdentical(ref, rasterAs<ScalarLanes<8>>(t, vp, clip), "W=8");
    expectBitIdentical(ref, rasterAs<simd::NativeLanes>(t, vp, clip),
                       simd::kNativeBackend);
}

PixelRect
fullRect(const Viewport &vp)
{
    return {0, 0, vp.width - 1, vp.height - 1};
}

TEST(RasterSimd, RandomTrianglesAllLaneWidths)
{
    // Viewport widths deliberately not multiples of any lane width, so
    // every row ends in a partial quad.
    Viewport vps[] = {{64, 64}, {53, 37}, {31, 9}};
    for (const Viewport &vp : vps) {
        Rng rng(0x5eedu + static_cast<unsigned>(vp.width));
        for (int iter = 0; iter < 60; ++iter) {
            float w = static_cast<float>(vp.width);
            float h = static_cast<float>(vp.height);
            ScreenTriangle t =
                tri(rng.nextFloat(-8.0f, w + 8.0f),
                    rng.nextFloat(-8.0f, h + 8.0f),
                    rng.nextFloat(-8.0f, w + 8.0f),
                    rng.nextFloat(-8.0f, h + 8.0f),
                    rng.nextFloat(-8.0f, w + 8.0f),
                    rng.nextFloat(-8.0f, h + 8.0f));
            expectAllWidthsMatch(t, vp, fullRect(vp));
        }
    }
}

TEST(RasterSimd, SliverTriangles)
{
    Viewport vp{64, 64};
    // Sub-pixel-tall and sub-pixel-wide slivers spanning many quads: the
    // accept mask is sparse and irregular, maximizing masked-lane traffic.
    expectAllWidthsMatch(tri(0.3f, 10.7f, 63.9f, 11.1f, 0.9f, 11.3f), vp,
                         fullRect(vp));
    expectAllWidthsMatch(tri(20.1f, 0.2f, 20.6f, 63.8f, 20.9f, 0.4f), vp,
                         fullRect(vp));
    expectAllWidthsMatch(tri(0.1f, 0.1f, 63.9f, 62.8f, 1.0f, 1.2f), vp,
                         fullRect(vp));
}

TEST(RasterSimd, TopLeftTiesOnPixelCenters)
{
    Viewport vp{32, 32};
    // Vertices at half-integer coordinates put pixel centers *exactly* on
    // the edges (e == 0): coverage is decided purely by the top-left rule,
    // which the masked cmpEq path must reproduce per lane.
    expectAllWidthsMatch(tri(0.5f, 0.5f, 16.5f, 0.5f, 0.5f, 16.5f), vp,
                         fullRect(vp));
    expectAllWidthsMatch(tri(16.5f, 0.5f, 16.5f, 16.5f, 0.5f, 16.5f), vp,
                         fullRect(vp));
    // Axis-aligned box edges crossing quad boundaries at x = 4 and x = 8.
    expectAllWidthsMatch(tri(4.5f, 2.5f, 8.5f, 2.5f, 4.5f, 9.5f), vp,
                         fullRect(vp));
}

TEST(RasterSimd, SharedEdgeAtQuadBoundaryCoversExactlyOnce)
{
    Viewport vp{64, 64};
    // A quad split along a diagonal whose vertices sit on lane-width
    // multiples: fragments from the two triangles must partition the
    // pixels at every lane width (fill convention is width-invariant).
    ScreenTriangle upper = tri(8.0f, 8.0f, 24.0f, 8.0f, 8.0f, 24.0f);
    ScreenTriangle lower = tri(24.0f, 8.0f, 24.0f, 24.0f, 8.0f, 24.0f);
    for (int w : {1, 2, 4, 8}) {
        std::vector<Fragment> a, b;
        switch (w) {
          case 1:
            a = rasterAs<simd::ScalarLanes<1>>(upper, vp, fullRect(vp));
            b = rasterAs<simd::ScalarLanes<1>>(lower, vp, fullRect(vp));
            break;
          case 2:
            a = rasterAs<simd::ScalarLanes<2>>(upper, vp, fullRect(vp));
            b = rasterAs<simd::ScalarLanes<2>>(lower, vp, fullRect(vp));
            break;
          case 4:
            a = rasterAs<simd::ScalarLanes<4>>(upper, vp, fullRect(vp));
            b = rasterAs<simd::ScalarLanes<4>>(lower, vp, fullRect(vp));
            break;
          default:
            a = rasterAs<simd::ScalarLanes<8>>(upper, vp, fullRect(vp));
            b = rasterAs<simd::ScalarLanes<8>>(lower, vp, fullRect(vp));
            break;
        }
        std::vector<std::pair<int, int>> pixels;
        for (const Fragment &f : a)
            pixels.emplace_back(f.x, f.y);
        for (const Fragment &f : b)
            pixels.emplace_back(f.x, f.y);
        std::sort(pixels.begin(), pixels.end());
        ASSERT_EQ(std::adjacent_find(pixels.begin(), pixels.end()),
                  pixels.end())
            << "double-covered pixel at lane width " << w;
        EXPECT_EQ(pixels.size(), 16u * 16u) << "lane width " << w;
    }
}

TEST(RasterSimd, ClipRectsNotMultiplesOfLaneWidth)
{
    Viewport vp{64, 64};
    ScreenTriangle t = tri(1.2f, 1.7f, 60.4f, 7.3f, 9.8f, 58.6f);
    // Clip widths 1..13 force every tail-mask shape, including quads that
    // start mid-triangle and rects narrower than one quad.
    for (int w = 1; w <= 13; ++w) {
        PixelRect clip{11, 3, 11 + w - 1, 50};
        expectAllWidthsMatch(t, vp, clip);
    }
}

TEST(RasterSimd, OnePixelClipsTileTheTriangle)
{
    Viewport vp{16, 16};
    ScreenTriangle t = tri(0.8f, 0.4f, 14.6f, 2.1f, 3.2f, 14.9f);
    std::vector<Fragment> ref =
        rasterAs<simd::NativeLanes>(t, vp, fullRect(vp));

    // Rasterizing through every 1x1 clip rect must reproduce the full-rect
    // pass exactly (absolute-coordinate evaluation: no dependence on where
    // a quad starts).
    std::vector<Fragment> tiled;
    for (int y = 0; y < vp.height; ++y)
        for (int x = 0; x < vp.width; ++x) {
            PixelRect clip{x, y, x, y};
            std::vector<Fragment> one =
                rasterAs<simd::NativeLanes>(t, vp, clip);
            tiled.insert(tiled.end(), one.begin(), one.end());
        }
    expectBitIdentical(ref, tiled, "1x1 tiling");
}

TEST(RasterSimd, SpanSinkExpandsToFragmentSink)
{
    Viewport vp{48, 48};
    Rng rng(7u);
    for (int iter = 0; iter < 20; ++iter) {
        ScreenTriangle t = tri(rng.nextFloat(0.0f, 48.0f),
                               rng.nextFloat(0.0f, 48.0f),
                               rng.nextFloat(0.0f, 48.0f),
                               rng.nextFloat(0.0f, 48.0f),
                               rng.nextFloat(0.0f, 48.0f),
                               rng.nextFloat(0.0f, 48.0f));
        std::vector<Fragment> per_frag =
            rasterAs<simd::NativeLanes>(t, vp, fullRect(vp));
        std::vector<Fragment> from_spans;
        rasterizeTriangleInRectAs<simd::NativeLanes>(
            t, vp, fullRect(vp), [&](const FragmentSpan &span) {
                std::uint32_t rest = span.mask;
                while (rest != 0) {
                    int lane = std::countr_zero(rest);
                    rest &= rest - 1;
                    from_spans.push_back(span.fragmentAt(lane));
                }
            });
        expectBitIdentical(per_frag, from_spans, "span expansion");
    }
}

TEST(RasterSimd, CoverageSinkMatchesFragmentCount)
{
    Viewport vp{40, 40};
    Rng rng(11u);
    for (int iter = 0; iter < 20; ++iter) {
        ScreenTriangle t = tri(rng.nextFloat(-4.0f, 44.0f),
                               rng.nextFloat(-4.0f, 44.0f),
                               rng.nextFloat(-4.0f, 44.0f),
                               rng.nextFloat(-4.0f, 44.0f),
                               rng.nextFloat(-4.0f, 44.0f),
                               rng.nextFloat(-4.0f, 44.0f));
        std::size_t frags =
            rasterAs<simd::NativeLanes>(t, vp, fullRect(vp)).size();
        EXPECT_EQ(countCoverage(t, vp), frags);

        std::uint64_t masked = 0;
        rasterizeTriangleInRectAs<simd::ScalarLanes<4>>(
            t, vp, fullRect(vp), [&](const CoverageSpan &span) {
                masked += static_cast<std::uint64_t>(
                    std::popcount(span.mask));
            });
        EXPECT_EQ(masked, frags);
    }
}

TEST(RasterSimd, TypeErasedSinkMatchesTemplatedSink)
{
    // The renderer's entry point is the same kernel at native width, and
    // a sink erased behind std::function sees the same fragments as a
    // lambda the kernel instantiates against directly.
    Viewport vp{32, 32};
    ScreenTriangle t = tri(2.3f, 1.9f, 29.7f, 6.4f, 8.8f, 30.2f);
    std::vector<Fragment> direct =
        rasterAs<simd::NativeLanes>(t, vp, fullRect(vp));
    std::vector<Fragment> erased;
    std::function<void(const Fragment &)> sink =
        [&erased](const Fragment &f) { erased.push_back(f); };
    rasterizeTriangleInRect(t, vp, fullRect(vp), sink);
    expectBitIdentical(direct, erased, "std::function sink");
}

} // namespace
} // namespace chopin
