/**
 * @file
 * Conventional primitive-duplication SFR (Section III-A): the driver
 * broadcasts every draw to every GPU; each GPU runs full geometry
 * processing on all primitives and rasterizes only its own interleaved
 * 64x64 tiles. Render-target/depth-buffer switches trigger the consistency
 * broadcast of Section V.
 *
 * This is the paper's normalization baseline for every evaluation figure.
 */

#include <algorithm>

#include "sfr/context.hh"
#include "sfr/partition_render.hh"
#include "sfr/schemes.hh"

namespace chopin
{

FrameResult
runDuplication(const SystemConfig &cfg, const FrameTrace &trace,
               Tracer *tracer, Image *image)
{
    SimContext ctx(cfg, trace, cfg.link, tracer);

    Tick t = 0;
    std::uint32_t bound_rt = 0;
    std::uint32_t bound_db = 0;
    for (const DrawCommand &cmd : trace.draws) {
        if (cmd.state.render_target != bound_rt ||
            cmd.state.depth_buffer != bound_db) {
            // All GPUs must drain before the consistency broadcast.
            Tick sync_start = std::max(t, ctx.maxPipeFinish());
            t = ctx.syncBroadcast(bound_rt, sync_start);
            bound_rt = cmd.state.render_target;
            bound_db = cmd.state.depth_buffer;
        }

        Surface &target = ctx.rts[cmd.state.render_target];
        PartitionedDraw part = renderDrawPartitioned(
            target, ctx.vp, cmd, trace.view_proj, ctx.grid,
            GeometryCharging::Duplicated,
            &ctx.rt_dirty[cmd.state.render_target], ctx.textureFor(cmd));

        for (unsigned g = 0; g < cfg.num_gpus; ++g) {
            ctx.totals += part.per_gpu[g];
            ctx.pipes[g].submitDraw(
                cmd.id, ctx.applyCullRetention(part.per_gpu[g]), t);
        }
        t += cfg.timing.driver_issue_cycles;
    }

    return ctx.finish(Scheme::Duplication, ctx.maxPipeFinish(), image);
}

} // namespace chopin
