/**
 * @file
 * SimContext::bind, the render-target switch every SFR scheme shares.
 * Rebinding the bound pair is free. A switch waits for every GPU to
 * drain, then broadcasts each owner's dirty tiles of the old render target
 * to the other GPUs as sync traffic. The back buffer, and any render
 * target of a one-GPU system, broadcasts nothing.
 *
 * chargeOwnersOnly, the one rule by which SimContext charges GPUpd's
 * partitioned draws: it must agree with the renderer's own OwnersOnly
 * charging, which stays in gfx as the reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "sfr/context.hh"
#include "stats/metrics.hh"
#include "trace/generator.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

constexpr unsigned kGpus = 4;

/** A 256x128 frame (eight 64x64 tiles) with two render targets. Draw 0
 *  writes render target 1, draw 1 writes render target 0; each is 32
 *  copies of a triangle over the lower-left half of the left half of the
 *  screen, which spans tiles of more than one owner. */
FrameTrace
twoTargetTrace()
{
    FrameTrace trace;
    trace.name = "two-targets";
    trace.viewport = {256, 128};
    trace.num_render_targets = 2;
    for (std::uint32_t rt : {1u, 0u}) {
        DrawCommand cmd;
        cmd.id = static_cast<DrawId>(trace.draws.size());
        cmd.state.render_target = rt;
        cmd.backface_cull = false;
        Triangle tri;
        tri.v[0] = {{-1.0f, -1.0f, 0.5f}, {1, 0, 0, 1}};
        tri.v[1] = {{0.0f, -1.0f, 0.5f}, {0, 1, 0, 1}};
        tri.v[2] = {{-1.0f, 1.0f, 0.5f}, {0, 0, 1, 1}};
        cmd.triangles.assign(32, tri);
        trace.draws.push_back(cmd);
    }
    return trace;
}

SystemConfig
configWith(unsigned gpus)
{
    SystemConfig cfg;
    cfg.num_gpus = gpus;
    return cfg;
}

/** Render draw @p i of the context's trace into its render target and
 *  submit it to every GPU at @p t, as Duplication does. */
void
drawAt(SimContext &ctx, std::size_t i, Tick t)
{
    const DrawCommand &cmd = ctx.trace.draws[i];
    ctx.submitPartitioned(
        cmd.id, ctx.renderPartitioned(cmd, GeometryCharging::Duplicated), t);
}

bool
anyDirty(const std::vector<std::uint8_t> &flags)
{
    return std::any_of(flags.begin(), flags.end(),
                       [](std::uint8_t f) { return f != 0; });
}

TEST(SimContextBind, RebindingTheBoundPairIsFree)
{
    FrameTrace trace = twoTargetTrace();
    SystemConfig cfg = configWith(kGpus);
    SimContext ctx(cfg, trace, cfg.link);
    // The bound pair starts at (0, 0).
    EXPECT_EQ(ctx.bind(0, 0, 77), 77u);

    ctx.bind(1, 0, 0);
    drawAt(ctx, 0, 0);
    ASSERT_GT(ctx.maxPipeFinish(), 10u);
    ASSERT_TRUE(anyDirty(ctx.rt_dirty[1]));
    // Rebinding does not wait for the GPUs, even with dirty tiles.
    EXPECT_EQ(ctx.bind(1, 0, 10), 10u);
    EXPECT_EQ(ctx.net.traffic().total, 0u);
    EXPECT_EQ(ctx.breakdown.sync, 0u);
    EXPECT_TRUE(anyDirty(ctx.rt_dirty[1]));
}

/** A switch away from a dirty render target 1 at @p issue_at(drained),
 *  where drained is when the GPUs finish its draw. */
void
expectBroadcastFromDrainedGpus(Tick (*issue_at)(Tick drained))
{
    FrameTrace trace = twoTargetTrace();
    SystemConfig cfg = configWith(kGpus);
    SimContext ctx(cfg, trace, cfg.link);
    ctx.bind(1, 0, 0);
    drawAt(ctx, 0, 0);

    // Bytes each GPU owns of render target 1's dirty tiles: color + depth.
    std::vector<Bytes> owned(kGpus, 0);
    for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
        if (!ctx.rt_dirty[1][tile])
            continue;
        GpuId owner = ctx.grid.ownerOfTile(tile % ctx.grid.tilesX(),
                                           tile / ctx.grid.tilesX());
        owned[owner] += static_cast<Bytes>(ctx.grid.pixelsInTile(tile)) * 8;
    }
    ASSERT_GE(std::count_if(owned.begin(), owned.end(),
                            [](Bytes b) { return b != 0; }),
              2);

    Tick drained = ctx.maxPipeFinish();
    Tick t = issue_at(drained);
    Tick start = std::max(t, drained);

    // The broadcast: every owner sends its bytes to every other GPU, all
    // at the start time, in source then destination order.
    Interconnect ref(kGpus, cfg.link);
    Tick expected_end = start;
    Bytes sent = 0;
    for (GpuId src = 0; src < kGpus; ++src) {
        for (GpuId dst = 0; dst < kGpus; ++dst) {
            if (dst == src || owned[src] == 0)
                continue;
            expected_end = std::max(
                expected_end,
                ref.transfer(src, dst, owned[src], start, TrafficClass::Sync));
            sent += owned[src];
        }
    }

    Tick end = ctx.bind(0, 0, t);
    EXPECT_EQ(end, expected_end);
    EXPECT_GT(end, start);
    EXPECT_EQ(ctx.breakdown.sync, end - start);
    const TrafficStats &traffic = ctx.net.traffic();
    EXPECT_EQ(traffic.total, sent);
    EXPECT_EQ(traffic.ofClass(TrafficClass::Sync), sent);
    for (GpuId src = 0; src < kGpus; ++src) {
        for (GpuId dst = 0; dst < kGpus; ++dst) {
            if (dst != src) {
                EXPECT_EQ(ctx.net.linkBytes(src, dst), owned[src])
                    << src << " -> " << dst;
            }
        }
    }
    EXPECT_FALSE(anyDirty(ctx.rt_dirty[1]));
}

TEST(SimContextBind, SwitchWaitsForTheGpusThenBroadcastsDirtyTiles)
{
    expectBroadcastFromDrainedGpus([](Tick drained) { return drained / 2; });
}

TEST(SimContextBind, SwitchAfterTheGpusDrainedBroadcastsAtIssueTime)
{
    expectBroadcastFromDrainedGpus(
        [](Tick drained) { return drained + 1000; });
}

TEST(SimContextBind, DepthBufferSwitchAlsoBroadcasts)
{
    FrameTrace trace = twoTargetTrace();
    SystemConfig cfg = configWith(kGpus);
    SimContext ctx(cfg, trace, cfg.link);
    ctx.bind(1, 0, 0);
    drawAt(ctx, 0, 0);
    Tick drained = ctx.maxPipeFinish();
    EXPECT_GT(ctx.bind(1, 1, 0), drained);
    EXPECT_GT(ctx.net.traffic().ofClass(TrafficClass::Sync), 0u);
    EXPECT_FALSE(anyDirty(ctx.rt_dirty[1]));
}

TEST(SimContextBind, SwitchAwayFromTheBackBufferMovesNothing)
{
    FrameTrace trace = twoTargetTrace();
    SystemConfig cfg = configWith(kGpus);
    SimContext ctx(cfg, trace, cfg.link);
    drawAt(ctx, 1, 0);
    ASSERT_TRUE(anyDirty(ctx.rt_dirty[0]));
    Tick drained = ctx.maxPipeFinish();
    ASSERT_GT(drained, 5u);
    // The switch still waits for the GPUs, but nothing is sent.
    EXPECT_EQ(ctx.bind(1, 0, 5), drained);
    EXPECT_EQ(ctx.net.traffic().total, 0u);
    EXPECT_EQ(ctx.breakdown.sync, 0u);
    EXPECT_FALSE(anyDirty(ctx.rt_dirty[0]));
}

TEST(SimContextBind, OneGpuMovesNothing)
{
    FrameTrace trace = twoTargetTrace();
    SystemConfig cfg = configWith(1);
    SimContext ctx(cfg, trace, cfg.link);
    ctx.bind(1, 0, 0);
    drawAt(ctx, 0, 0);
    ASSERT_TRUE(anyDirty(ctx.rt_dirty[1]));
    Tick drained = ctx.maxPipeFinish();
    ASSERT_GT(drained, 5u);
    EXPECT_EQ(ctx.bind(0, 0, 5), drained);
    EXPECT_EQ(ctx.net.traffic().total, 0u);
    EXPECT_EQ(ctx.breakdown.sync, 0u);
    EXPECT_FALSE(anyDirty(ctx.rt_dirty[1]));
}

/** One OwnersOnlyCharging case: GPUs sharing the screen, host pool jobs
 *  (the cases of gfx's PartitionTest). */
struct ChargingCase
{
    unsigned gpus = 1;
    unsigned jobs = 1;
};

/** Test-name suffix: the GPU count, plus the job count when not 1. */
void
PrintTo(const ChargingCase &c, std::ostream *os)
{
    *os << c.gpus;
    if (c.jobs != 1)
        *os << "_jobs" << c.jobs;
}

class OwnersOnlyCharging : public ::testing::TestWithParam<ChargingCase>
{
  protected:
    void SetUp() override { setGlobalJobs(GetParam().jobs); }
    void TearDown() override { setGlobalJobs(1); }
};

TEST_P(OwnersOnlyCharging, DerivedFromDuplicatedMatchesTheOwnersOnlyRender)
{
    // Every draw of a real frame, on every render target, rendered once
    // under Duplicated and re-charged, and once under OwnersOnly.
    unsigned n = GetParam().gpus;
    FrameTrace trace = generateBenchmark("wolf", 32);
    Viewport vp = trace.viewport;
    TileGrid grid(vp.width, vp.height, n);
    std::size_t tiles = static_cast<std::size_t>(grid.tileCount());
    std::vector<Surface> dup_rts;
    std::vector<Surface> owners_rts;
    for (std::uint32_t r = 0; r < trace.num_render_targets; ++r) {
        dup_rts.emplace_back(vp.width, vp.height);
        dup_rts.back().clear(trace.clear_color, trace.clear_depth);
        owners_rts.emplace_back(vp.width, vp.height);
        owners_rts.back().clear(trace.clear_color, trace.clear_depth);
    }

    std::uint64_t culled = 0;
    std::uint64_t clipped = 0;
    for (const DrawCommand &cmd : trace.draws) {
        auto input = [&](const std::vector<Surface> &rts) {
            DrawInput in;
            in.triangles = cmd.triangles;
            in.mvp = trace.view_proj * cmd.model;
            in.state = cmd.state;
            in.draw_id = cmd.id;
            in.alpha_ref = cmd.alpha_ref;
            in.backface_cull = cmd.backface_cull;
            if (cmd.texture_rt >= 0)
                in.texture =
                    &rts[static_cast<std::size_t>(cmd.texture_rt)].color();
            return in;
        };
        std::uint32_t rt = cmd.state.render_target;
        std::vector<std::uint8_t> dup_touched(tiles, 0);
        std::vector<std::uint8_t> owners_touched(tiles, 0);
        PartitionedDraw derived = renderDrawPartitioned(
            dup_rts[rt], vp, input(dup_rts), grid,
            GeometryCharging::Duplicated, &dup_touched);
        for (const DrawStats &s : derived.per_gpu) {
            culled += s.tris_culled;
            clipped += s.tris_clipped;
        }
        chargeOwnersOnly(derived);
        PartitionedDraw owners = renderDrawPartitioned(
            owners_rts[rt], vp, input(owners_rts), grid,
            GeometryCharging::OwnersOnly, &owners_touched);

        ASSERT_EQ(derived.per_gpu.size(), n);
        ASSERT_EQ(owners.per_gpu.size(), n);
        EXPECT_EQ(derived.owned_tris, owners.owned_tris) << "draw " << cmd.id;
        for (unsigned g = 0; g < n; ++g)
            EXPECT_TRUE(metricsEqual(derived.per_gpu[g], owners.per_gpu[g]))
                << "draw " << cmd.id << ", GPU " << g << ": "
                << ::testing::PrintToString(
                       metricsDiff(derived.per_gpu[g], owners.per_gpu[g]));
        EXPECT_EQ(dup_touched, owners_touched) << "draw " << cmd.id;
    }
    // The frame has primitives of both kinds the re-charge rewrites.
    EXPECT_GT(culled, 0u);
    EXPECT_GT(clipped, 0u);
    for (std::uint32_t r = 0; r < trace.num_render_targets; ++r)
        EXPECT_EQ(dup_rts[r].contentHash(), owners_rts[r].contentHash())
            << "render target " << r;
}

INSTANTIATE_TEST_SUITE_P(
    GpuCounts, OwnersOnlyCharging,
    ::testing::Values(ChargingCase{1, 1}, ChargingCase{2, 1},
                      ChargingCase{3, 1}, ChargingCase{4, 1},
                      ChargingCase{8, 1}, ChargingCase{1, 4},
                      ChargingCase{2, 4}, ChargingCase{3, 4},
                      ChargingCase{4, 4}, ChargingCase{8, 4}));

} // namespace
} // namespace chopin
