#include <gtest/gtest.h>

#include "gfx/geometry.hh"

namespace chopin
{
namespace
{

/** NDC-space triangle with w=1 (the trace generator's convention). */
Triangle
ndcTri(Vec3 a, Vec3 b, Vec3 c)
{
    Triangle t;
    t.v[0] = {a, {1, 0, 0, 1}};
    t.v[1] = {b, {0, 1, 0, 1}};
    t.v[2] = {c, {0, 0, 1, 1}};
    return t;
}

TEST(Geometry, NdcMapsToViewport)
{
    Viewport vp{200, 100};
    std::vector<ScreenTriangle> out;
    DrawStats stats;
    // NDC (-1,-1) is bottom-left => screen (0, height); (1,1) => (width, 0).
    processPrimitive(ndcTri({-1, -1, 0}, {1, -1, 0}, {-1, 1, 0}),
                     Mat4::identity(), vp, false, out, stats);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0].v[0].pos.x, 0.0f, 1e-4f);
    EXPECT_NEAR(out[0].v[0].pos.y, 100.0f, 1e-4f);
    EXPECT_NEAR(out[0].v[1].pos.x, 200.0f, 1e-4f);
    EXPECT_NEAR(out[0].v[2].pos.y, 0.0f, 1e-4f);
    // NDC z=0 maps to screen depth 0.5.
    EXPECT_NEAR(out[0].v[0].z, 0.5f, 1e-5f);
    EXPECT_EQ(stats.verts_shaded, 3u);
    EXPECT_EQ(stats.tris_in, 1u);
    EXPECT_EQ(stats.tris_rasterized, 1u);
}

TEST(Geometry, BackfaceCullingDropsClockwiseScreenTriangles)
{
    Viewport vp{100, 100};
    std::vector<ScreenTriangle> out;
    DrawStats stats;
    // This NDC winding is counter-clockwise on screen (y flip).
    Triangle front = ndcTri({-0.5f, -0.5f, 0}, {0.5f, -0.5f, 0},
                            {0, 0.5f, 0});
    processPrimitive(front, Mat4::identity(), vp, true, out, stats);
    bool front_survives = !out.empty();

    out.clear();
    DrawStats stats2;
    Triangle back = ndcTri({-0.5f, -0.5f, 0}, {0, 0.5f, 0},
                           {0.5f, -0.5f, 0});
    processPrimitive(back, Mat4::identity(), vp, true, out, stats2);
    bool back_survives = !out.empty();

    // Exactly one of the two windings survives culling.
    EXPECT_NE(front_survives, back_survives);
    EXPECT_EQ(stats.tris_culled + stats2.tris_culled, 1u);
}

TEST(Geometry, FullyOffscreenTriangleIsClipped)
{
    Viewport vp{100, 100};
    std::vector<ScreenTriangle> out;
    DrawStats stats;
    processPrimitive(ndcTri({2, 2, 0}, {3, 2, 0}, {2, 3, 0}),
                     Mat4::identity(), vp, false, out, stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.tris_clipped, 1u);
    EXPECT_EQ(stats.tris_rasterized, 0u);
}

TEST(Geometry, BehindNearPlaneIsClipped)
{
    Viewport vp{100, 100};
    std::vector<ScreenTriangle> out;
    DrawStats stats;
    // All vertices behind the near plane: z < -w.
    processPrimitive(ndcTri({0, 0, -3}, {1, 0, -3}, {0, 1, -3}),
                     Mat4::identity(), vp, false, out, stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.tris_clipped, 1u);
}

TEST(Geometry, PartialNearClipSplitsIntoTwo)
{
    Viewport vp{100, 100};
    std::vector<ScreenTriangle> out;
    DrawStats stats;
    // One vertex behind the near plane with a perspective transform; the
    // clipper must emit a quad = two triangles.
    Mat4 proj = Mat4::perspective(1.2f, 1.0f, 0.1f, 100.0f);
    Triangle t;
    t.v[0] = {{-1, -1, -5}, {1, 0, 0, 1}};
    t.v[1] = {{1, -1, -5}, {0, 1, 0, 1}};
    t.v[2] = {{0, 1, 0.5f}, {0, 0, 1, 1}}; // behind the camera
    processPrimitive(t, proj, vp, false, out, stats);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(stats.tris_rasterized, 2u);
}

TEST(Geometry, ModelMatrixApplied)
{
    Viewport vp{100, 100};
    std::vector<ScreenTriangle> out;
    DrawStats stats;
    Mat4 shift = Mat4::translate(0.5f, 0, 0);
    processPrimitive(ndcTri({0, 0, 0}, {0.2f, 0, 0}, {0, 0.2f, 0}), shift,
                     vp, false, out, stats);
    ASSERT_EQ(out.size(), 1u);
    // NDC x=0.5 => screen x=75 of 100.
    EXPECT_NEAR(out[0].v[0].pos.x, 75.0f, 1e-3f);
}

TEST(Geometry, BoundingBoxClamped)
{
    ScreenTriangle t;
    t.v[0] = {{-5, -5}, 0, {}};
    t.v[1] = {{50, 8}, 0, {}};
    t.v[2] = {{8, 50}, 0, {}};
    int x0, y0, x1, y1;
    t.boundingBox(32, 32, x0, y0, x1, y1);
    EXPECT_EQ(x0, 0);
    EXPECT_EQ(y0, 0);
    EXPECT_EQ(x1, 31);
    EXPECT_EQ(y1, 31);
}

TEST(Geometry, ScreenAreaMatchesAnalytic)
{
    ScreenTriangle t;
    t.v[0] = {{0, 0}, 0, {}};
    t.v[1] = {{10, 0}, 0, {}};
    t.v[2] = {{0, 8}, 0, {}};
    EXPECT_NEAR(signedScreenArea2(t) * 0.5f, 40.0, 1e-4);
    EXPECT_GT(signedScreenArea2(t), 0.0f); // this winding is CCW on screen
}

} // namespace
} // namespace chopin
