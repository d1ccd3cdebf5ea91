#include <gtest/gtest.h>

#include <set>

#include "trace/generator.hh"
#include "util/check.hh"

namespace chopin
{
namespace
{

class ProfileTest : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Generate at 1/8 scale: full structure, quick runtime. */
    FrameTrace
    scaled()
    {
        return generateTrace(scaleProfile(benchmarkProfile(GetParam()), 8));
    }
};

TEST_P(ProfileTest, TableIIIStatisticsMatchExactly)
{
    const BenchmarkProfile &p = benchmarkProfile(GetParam());
    FrameTrace t = generateTrace(p);
    EXPECT_EQ(t.draws.size(), static_cast<std::size_t>(p.num_draws));
    EXPECT_EQ(t.totalTriangles(), p.num_triangles);
    EXPECT_EQ(t.viewport.width, p.width);
    EXPECT_EQ(t.viewport.height, p.height);
    EXPECT_EQ(t.name, p.name);
}

TEST_P(ProfileTest, GenerationIsDeterministic)
{
    FrameTrace a = scaled();
    FrameTrace b = scaled();
    ASSERT_EQ(a.draws.size(), b.draws.size());
    for (std::size_t i = 0; i < a.draws.size(); ++i) {
        ASSERT_EQ(a.draws[i].triangles.size(), b.draws[i].triangles.size());
        ASSERT_TRUE(a.draws[i].state == b.draws[i].state);
        for (std::size_t k = 0; k < a.draws[i].triangles.size(); ++k) {
            ASSERT_EQ(a.draws[i].triangles[k].v[0].pos.x,
                      b.draws[i].triangles[k].v[0].pos.x);
            ASSERT_EQ(a.draws[i].triangles[k].v[2].pos.z,
                      b.draws[i].triangles[k].v[2].pos.z);
        }
    }
}

TEST_P(ProfileTest, ContainsAllGroupBoundaryStateChanges)
{
    FrameTrace t = scaled();
    bool rt_switch = false, write_toggle = false, func_change = false,
         blend_change = false;
    for (std::size_t i = 1; i < t.draws.size(); ++i) {
        const RasterState &prev = t.draws[i - 1].state;
        const RasterState &cur = t.draws[i].state;
        rt_switch |= prev.render_target != cur.render_target;
        write_toggle |= prev.depth_write != cur.depth_write;
        func_change |= prev.depth_func != cur.depth_func;
        blend_change |= prev.blend_op != cur.blend_op;
    }
    EXPECT_TRUE(rt_switch) << "event 2 never occurs";
    EXPECT_TRUE(write_toggle) << "event 3 never occurs";
    EXPECT_TRUE(func_change) << "event 4 never occurs";
    EXPECT_TRUE(blend_change) << "event 5 never occurs";
}

TEST_P(ProfileTest, TransparentDrawsAreBackToFrontAndLast)
{
    FrameTrace t = scaled();
    bool seen_transparent = false;
    float last_over_depth = 2.0f;
    for (const DrawCommand &d : t.draws) {
        if (d.texture_rt >= 0)
            continue; // blended RT composites legitimately sit mid-frame
        if (isTransparent(d.state.blend_op)) {
            seen_transparent = true;
            EXPECT_FALSE(d.state.depth_write);
            if (d.state.blend_op == BlendOp::Over &&
                !d.triangles.empty()) {
                float depth = d.triangles[0].v[0].pos.z;
                EXPECT_LE(depth, last_over_depth + 0.05f)
                    << "over-blended draws must be roughly back-to-front";
                last_over_depth = depth;
            }
        } else if (d.state.render_target == 0) {
            EXPECT_FALSE(seen_transparent)
                << "opaque main-target draw after the transparent tail";
        }
    }
    EXPECT_TRUE(seen_transparent);
}

TEST_P(ProfileTest, EveryDrawHasTriangles)
{
    FrameTrace t = scaled();
    for (const DrawCommand &d : t.draws)
        EXPECT_GE(d.triangles.size(), 1u);
}

TEST_P(ProfileTest, DrawSizesAreHeavyTailed)
{
    FrameTrace t = scaled();
    std::uint64_t max_tris = 0;
    for (const DrawCommand &d : t.draws)
        max_tris = std::max<std::uint64_t>(max_tris, d.triangles.size());
    double mean = static_cast<double>(t.totalTriangles()) /
                  static_cast<double>(t.draws.size());
    EXPECT_GT(static_cast<double>(max_tris), 4.0 * mean);
}

TEST_P(ProfileTest, UsesMultipleRenderTargets)
{
    FrameTrace t = scaled();
    std::set<std::uint32_t> rts;
    for (const DrawCommand &d : t.draws)
        rts.insert(d.state.render_target);
    EXPECT_EQ(rts.size(), t.num_render_targets);
    EXPECT_GE(t.num_render_targets, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileTest,
                         ::testing::Values("cod2", "cry", "grid", "mirror",
                                           "nfs", "stal", "ut3", "wolf"));

TEST(Profiles, AllEightExist)
{
    EXPECT_EQ(allBenchmarkProfiles().size(), 8u);
}

TEST(Profiles, UnknownNameIsFatal)
{
    EXPECT_EXIT(
        {
            setCliCheckTool("trace_gen");
            benchmarkProfile("doom");
        },
        ::testing::ExitedWithCode(2),
        "^trace_gen: error: unknown benchmark 'doom' \\(expected one of: "
        "cod2 cry grid mirror nfs stal ut3 wolf\\)\n$");
}

TEST(Profiles, ScalingKeepsStructureFeasible)
{
    for (int divisor : {1, 2, 4, 16, 64, 1000}) {
        BenchmarkProfile p =
            scaleProfile(benchmarkProfile("cod2"), divisor);
        FrameTrace t = generateTrace(p); // must not fatal/panic
        EXPECT_EQ(t.totalTriangles(), p.num_triangles);
    }
}

TEST(Generator, DifferentSeedsGiveDifferentGeometry)
{
    BenchmarkProfile p = scaleProfile(benchmarkProfile("wolf"), 8);
    FrameTrace a = generateTrace(p);
    p.seed += 1;
    FrameTrace b = generateTrace(p);
    ASSERT_EQ(a.draws.size(), b.draws.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.draws.size() && !differs; ++i)
        differs = a.draws[i].triangles.size() != b.draws[i].triangles.size();
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace chopin
