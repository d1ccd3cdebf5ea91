/**
 * @file
 * Single-GPU reference renderer: executes the trace strictly in order on
 * one pipeline. Its image is the correctness oracle for every multi-GPU
 * scheme, and its cycle count anchors the Fig. 2 geometry-fraction study.
 */

#include <algorithm>

#include "gfx/renderer.hh"
#include "sfr/context.hh"
#include "sfr/schemes.hh"

namespace chopin
{

FrameResult
runSingleGpu(const SystemConfig &cfg, const FrameTrace &trace,
             Tracer *tracer, Image *image)
{
    SystemConfig one = cfg;
    one.num_gpus = 1;
    SimContext ctx(one, trace, cfg.link, tracer);

    Tick t = 0;
    for (const DrawCommand &cmd : trace.draws) {
        Surface &target = ctx.rts[cmd.state.render_target];
        DrawStats stats =
            renderDraw(target, ctx.vp, ctx.drawInput(cmd), RenderFilter{},
                       &ctx.rt_dirty[cmd.state.render_target], &ctx.grid);
        ctx.totals += stats;
        ctx.pipes[0].submitDraw(cmd.id, ctx.applyCullRetention(stats), t);
        t += cfg.timing.driver_issue_cycles;
    }

    return ctx.finish(Scheme::SingleGpu, ctx.maxPipeFinish(), image);
}

} // namespace chopin
