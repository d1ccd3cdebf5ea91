#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "gfx/raster.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

ScreenTriangle
tri(float x0, float y0, float x1, float y1, float x2, float y2,
    float z = 0.5f)
{
    ScreenTriangle t;
    t.v[0] = {{x0, y0}, z, {1, 0, 0, 1}};
    t.v[1] = {{x1, y1}, z, {0, 1, 0, 1}};
    t.v[2] = {{x2, y2}, z, {0, 0, 1, 1}};
    return t;
}

/** Rasterize @p t over the whole viewport, one fragment at a time. */
template <typename Sink>
void
rasterizeFull(const ScreenTriangle &t, const Viewport &vp, Sink &&sink)
{
    PixelRect full{0, 0, vp.width - 1, vp.height - 1};
    rasterizeTriangleInRect(t, vp, full, std::forward<Sink>(sink));
}

TEST(Raster, AxisAlignedRightTriangleCoverage)
{
    // Legs from (0,0) to (4,0) to (0,4): covers the pixels strictly inside
    // the hypotenuse; with pixel centers at +0.5 that is 6 pixels.
    Viewport vp{16, 16};
    std::set<std::pair<int, int>> covered;
    rasterizeFull(tri(0, 0, 4, 0, 0, 4), vp, [&](const Fragment &f) {
        covered.insert({f.x, f.y});
    });
    std::set<std::pair<int, int>> expected{
        {0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {0, 2}};
    EXPECT_EQ(covered, expected);
}

TEST(Raster, FullPixelQuadCoverageCount)
{
    Viewport vp{64, 64};
    // A 8x8-pixel square split into two triangles must cover exactly 64
    // pixels with no double coverage (top-left rule on the shared edge).
    std::map<std::pair<int, int>, int> hits;
    auto sink = [&](const Fragment &f) { hits[{f.x, f.y}] += 1; };
    rasterizeFull(tri(8, 8, 16, 8, 8, 16), vp, sink);
    rasterizeFull(tri(16, 8, 16, 16, 8, 16), vp, sink);
    EXPECT_EQ(hits.size(), 64u);
    for (const auto &[px, count] : hits)
        EXPECT_EQ(count, 1) << "pixel " << px.first << "," << px.second;
}

TEST(Raster, WindingDoesNotChangeCoverage)
{
    Viewport vp{32, 32};
    std::uint64_t ccw = countCoverage(tri(2, 2, 20, 3, 5, 25), vp);
    std::uint64_t cw = countCoverage(tri(2, 2, 5, 25, 20, 3), vp);
    EXPECT_EQ(ccw, cw);
    EXPECT_GT(ccw, 0u);
}

TEST(Raster, DegenerateTriangleCoversNothing)
{
    Viewport vp{32, 32};
    EXPECT_EQ(countCoverage(tri(1, 1, 5, 5, 9, 9), vp), 0u); // collinear
    EXPECT_EQ(countCoverage(tri(3, 3, 3, 3, 3, 3), vp), 0u); // point
}

TEST(Raster, ClampsToViewport)
{
    Viewport vp{8, 8};
    std::uint64_t n = 0;
    rasterizeFull(tri(-100, -100, 300, -100, -100, 300), vp,
                  [&](const Fragment &f) {
                      ++n;
                      ASSERT_GE(f.x, 0);
                      ASSERT_LT(f.x, vp.width);
                      ASSERT_GE(f.y, 0);
                      ASSERT_LT(f.y, vp.height);
                  });
    EXPECT_EQ(n, 64u); // the whole viewport is inside the triangle
}

TEST(Raster, DepthInterpolationAtVertexAndCenter)
{
    Viewport vp{32, 32};
    ScreenTriangle t = tri(0, 0, 16, 0, 0, 16);
    t.v[0].z = 0.0f;
    t.v[1].z = 1.0f;
    t.v[2].z = 1.0f;
    float z_origin = -1.0f;
    rasterizeFull(t, vp, [&](const Fragment &f) {
        if (f.x == 0 && f.y == 0)
            z_origin = f.z;
        ASSERT_GE(f.z, 0.0f);
        ASSERT_LE(f.z, 1.0f);
    });
    // Pixel (0,0) center is (0.5,0.5), barely away from vertex 0.
    EXPECT_NEAR(z_origin, 0.0625f, 1e-3f);
}

TEST(Raster, ColorInterpolationIsBarycentric)
{
    Viewport vp{32, 32};
    ScreenTriangle t = tri(0, 0, 16, 0, 0, 16);
    rasterizeFull(t, vp, [&](const Fragment &f) {
        float sum = f.color.r + f.color.g + f.color.b;
        ASSERT_NEAR(sum, 1.0f, 1e-4f); // weights sum to one
    });
}

/** Property: a triangulated mesh covers each interior pixel exactly once. */
class FillConventionTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FillConventionTest, SharedEdgesNeverDoubleCover)
{
    Rng rng(GetParam());
    Viewport vp{64, 64};
    // A random convex quad split along its diagonal.
    for (int iter = 0; iter < 20; ++iter) {
        float cx = rng.nextFloat(16, 48), cy = rng.nextFloat(16, 48);
        // Four points in sorted angular order around the center => a
        // convex quad whose diagonal split shares one edge.
        float angles[4];
        for (float &a : angles)
            a = rng.nextFloat(0.0f, 6.2831853f);
        std::sort(std::begin(angles), std::end(angles));
        // A common radius keeps the quad convex (points on a circle), so
        // the diagonal split genuinely partitions it.
        float r = rng.nextFloat(4.0f, 14.0f);
        Vec2 p[4];
        for (int i = 0; i < 4; ++i)
            p[i] = {cx + r * std::cos(angles[i]),
                    cy + r * std::sin(angles[i])};
        std::map<std::pair<int, int>, int> hits;
        auto sink = [&](const Fragment &f) { hits[{f.x, f.y}] += 1; };
        rasterizeFull(tri(p[0].x, p[0].y, p[1].x, p[1].y, p[2].x, p[2].y),
                      vp, sink);
        rasterizeFull(tri(p[0].x, p[0].y, p[2].x, p[2].y, p[3].x, p[3].y),
                      vp, sink);
        for (const auto &[px, count] : hits)
            ASSERT_EQ(count, 1)
                << "double-covered pixel " << px.first << "," << px.second
                << " (iter " << iter << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FillConventionTest,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace chopin
