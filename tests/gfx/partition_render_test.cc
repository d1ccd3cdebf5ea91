#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "gfx/renderer.hh"
#include "stats/metrics.hh"
#include "trace/generator.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

/** A draw with one sizable screen-space triangle per quadrant. Its summed
 *  bounding boxes cover about 94k pixels at 512x512, past the renderer's
 *  rasterParallelThreshold (8192), so at more than one job it rasterizes
 *  binned. */
std::vector<Triangle>
quadrantTriangles()
{
    std::vector<Triangle> tris;
    auto add = [&](float cx, float cy) {
        Triangle t;
        // Front-facing (NDC clockwise) triangle around (cx, cy).
        t.v[0] = {{cx - 0.3f, cy - 0.3f, 0.0f}, {1, 0, 0, 1}};
        t.v[1] = {{cx, cy + 0.3f, 0.0f}, {0, 1, 0, 1}};
        t.v[2] = {{cx + 0.3f, cy - 0.3f, 0.0f}, {0, 0, 1, 1}};
        tris.push_back(t);
    };
    add(-0.5f, -0.5f);
    add(0.5f, -0.5f);
    add(-0.5f, 0.5f);
    add(0.5f, 0.5f);
    return tris;
}

/** One PartitionTest case: GPUs sharing the screen, host pool jobs. */
struct PartitionCase
{
    unsigned gpus = 1;
    unsigned jobs = 1;
};

/** Test-name suffix: the GPU count, plus the job count when not 1. */
void
PrintTo(const PartitionCase &c, std::ostream *os)
{
    *os << c.gpus;
    if (c.jobs != 1)
        *os << "_jobs" << c.jobs;
}

class PartitionTest : public ::testing::TestWithParam<PartitionCase>
{
  protected:
    void SetUp() override { setGlobalJobs(GetParam().jobs); }
    void TearDown() override { setGlobalJobs(1); }

    Viewport vp{512, 512};
    TileGrid grid{vp.width, vp.height, GetParam().gpus};
    std::vector<Triangle> tris = quadrantTriangles();

    DrawInput
    input() const
    {
        DrawInput in;
        in.triangles = tris;
        in.mvp = Mat4::identity();
        return in;
    }
};

/** Everything one partitioned draw produces. */
struct PartitionedRun
{
    PartitionedDraw draw;
    std::vector<std::uint8_t> touched;
    std::uint64_t content_hash = 0;
    bool binned = false;
};

PartitionedRun
runPartitioned(const Viewport &vp, const DrawInput &in, const TileGrid &grid,
               GeometryCharging charging)
{
    PartitionedRun run;
    Surface target(vp.width, vp.height);
    run.touched.assign(static_cast<std::size_t>(grid.tileCount()), 0);
    run.draw =
        renderDrawPartitioned(target, vp, in, grid, charging, &run.touched);
    run.content_hash = target.contentHash();
    // The binned path leaves its nonempty bins in this thread's scratch;
    // the serial path never fills them.
    run.binned = !threadRenderScratch().dense_bins.empty();
    return run;
}

TEST_P(PartitionTest, FragmentCountsPartitionExactly)
{
    unsigned n = GetParam().gpus;
    DrawInput in = input();

    // Unpartitioned reference.
    Surface ref(vp.width, vp.height);
    DrawStats ref_stats = renderDraw(ref, vp, in);

    Surface part(vp.width, vp.height);
    PartitionedDraw pd = renderDrawPartitioned(
        part, vp, in, grid, GeometryCharging::Duplicated, nullptr);

    ASSERT_EQ(pd.per_gpu.size(), n);
    DrawStats sum;
    for (const DrawStats &s : pd.per_gpu) {
        sum.frags_generated += s.frags_generated;
        sum.frags_written += s.frags_written;
        sum.frags_shaded += s.frags_shaded;
        // Duplicated charging: every GPU does full geometry.
        EXPECT_EQ(s.verts_shaded, ref_stats.verts_shaded);
        EXPECT_EQ(s.tris_in, ref_stats.tris_in);
    }
    EXPECT_EQ(sum.frags_generated, ref_stats.frags_generated);
    EXPECT_EQ(sum.frags_written, ref_stats.frags_written);
    EXPECT_EQ(sum.frags_shaded, ref_stats.frags_shaded);

    // The shared surface is pixel-identical to the reference render.
    EXPECT_EQ(compareImages(ref.color(), part.color()).differing_pixels, 0);
}

TEST_P(PartitionTest, RasterWorkSplitsIntoTraversalAndReject)
{
    Surface part(vp.width, vp.height);
    PartitionedDraw pd = renderDrawPartitioned(
        part, vp, input(), grid, GeometryCharging::Duplicated, nullptr);
    for (const DrawStats &s : pd.per_gpu) {
        // Every triangle is either traversed or coarse-rejected per GPU.
        EXPECT_EQ(s.tris_rasterized + s.tris_coarse_rejected, 4u);
    }
}

TEST_P(PartitionTest, OwnersOnlyChargesGeometryToOwners)
{
    unsigned n = GetParam().gpus;
    Surface part(vp.width, vp.height);
    PartitionedDraw pd = renderDrawPartitioned(
        part, vp, input(), grid, GeometryCharging::OwnersOnly, nullptr);

    std::uint64_t total_tris_in = 0;
    std::uint64_t total_owned = 0;
    for (unsigned g = 0; g < n; ++g) {
        total_tris_in += pd.per_gpu[g].tris_in;
        total_owned += pd.owned_tris[g];
        // Under sort-first nobody coarse-rejects: non-owners never receive
        // the primitive.
        EXPECT_EQ(pd.per_gpu[g].tris_coarse_rejected, 0u);
        EXPECT_EQ(pd.per_gpu[g].tris_in, pd.owned_tris[g]);
    }
    // Primitives spanning several GPUs' tiles are duplicated to each owner.
    EXPECT_GE(total_owned, 4u);
    EXPECT_EQ(total_tris_in, total_owned);
    if (n == 1) {
        EXPECT_EQ(total_owned, 4u);
    }
}

TEST_P(PartitionTest, PerOwnerStatsMatchTheSerialRun)
{
    // The binned path charges each bucket to the owner of its tile after
    // the join; the serial path charges each fragment to the owner of its
    // pixel. Both must give every GPU the same stats, the same touched
    // tiles and the same pixels. At one job this compares two serial runs
    // on the same warmed scratch.
    unsigned jobs = GetParam().jobs;
    DrawInput in = input();
    for (GeometryCharging charging :
         {GeometryCharging::Duplicated, GeometryCharging::OwnersOnly}) {
        setGlobalJobs(1);
        PartitionedRun serial = runPartitioned(vp, in, grid, charging);
        setGlobalJobs(jobs);
        PartitionedRun run = runPartitioned(vp, in, grid, charging);

        EXPECT_FALSE(serial.binned);
        EXPECT_EQ(run.binned, jobs > 1);
        ASSERT_EQ(run.draw.per_gpu.size(), GetParam().gpus);
        for (unsigned g = 0; g < GetParam().gpus; ++g)
            EXPECT_TRUE(metricsEqual(run.draw.per_gpu[g],
                                     serial.draw.per_gpu[g]))
                << "GPU " << g << ": "
                << ::testing::PrintToString(metricsDiff(
                       run.draw.per_gpu[g], serial.draw.per_gpu[g]));
        EXPECT_EQ(run.draw.owned_tris, serial.draw.owned_tris);
        EXPECT_EQ(run.touched, serial.touched);
        EXPECT_EQ(run.content_hash, serial.content_hash);
    }
}

INSTANTIATE_TEST_SUITE_P(
    GpuCounts, PartitionTest,
    ::testing::Values(PartitionCase{1, 1}, PartitionCase{2, 1},
                      PartitionCase{3, 1}, PartitionCase{4, 1},
                      PartitionCase{8, 1}, PartitionCase{1, 4},
                      PartitionCase{2, 4}, PartitionCase{3, 4},
                      PartitionCase{4, 4}, PartitionCase{8, 4}));

TEST(PartitionRender, MatchesUnpartitionedOnRealTrace)
{
    FrameTrace trace = generateBenchmark("wolf", 32);
    Viewport vp = trace.viewport;
    TileGrid grid(vp.width, vp.height, 4);

    Surface ref(vp.width, vp.height);
    ref.clear(trace.clear_color, trace.clear_depth);
    Surface part(vp.width, vp.height);
    part.clear(trace.clear_color, trace.clear_depth);

    for (const DrawCommand &cmd : trace.draws) {
        if (cmd.state.render_target != 0)
            continue;
        DrawInput in;
        in.triangles = cmd.triangles;
        in.mvp = trace.view_proj * cmd.model;
        in.state = cmd.state;
        in.draw_id = cmd.id;
        in.alpha_ref = cmd.alpha_ref;
        in.backface_cull = cmd.backface_cull;
        renderDraw(ref, vp, in);
        renderDrawPartitioned(part, vp, in, grid,
                              GeometryCharging::Duplicated, nullptr);
    }
    EXPECT_EQ(compareImages(ref.color(), part.color()).differing_pixels, 0);
}

} // namespace
} // namespace chopin
