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

#include "sfr/context.hh"
#include "sfr/schemes.hh"

namespace chopin
{

FrameResult
runDuplication(const SystemConfig &cfg, const FrameTrace &trace,
               Tracer *tracer, Image *image, FunctionalLog *log)
{
    SimContext ctx(cfg, trace, cfg.link, tracer, log);

    Tick t = 0;
    for (const DrawCommand &cmd : trace.draws) {
        t = ctx.bind(cmd.state.render_target, cmd.state.depth_buffer, t);
        ctx.submitPartitioned(
            cmd.id, ctx.renderPartitioned(cmd, GeometryCharging::Duplicated),
            t);
        t += cfg.timing.driver_issue_cycles;
    }

    return ctx.finish(Scheme::Duplication, ctx.maxPipeFinish(), image);
}

} // namespace chopin
