/**
 * @file
 * GPUpd (Kim et al., MICRO 2017), the prior state-of-the-art the paper
 * compares against (Section III-A, Fig. 3 top).
 *
 * Pipeline per batch of primitives:
 *   1. cooperative projection: each GPU projects 1/N of the batch to screen
 *      space (position-only shading, runs on the shader cores and therefore
 *      competes with the geometry stage);
 *   2. sequential primitive distribution: GPU0 streams the primitive IDs it
 *      projected to their destination GPUs, then GPU1, then GPU2, ... —
 *      the serialization the paper identifies as GPUpd's bottleneck
 *      (Fig. 4);
 *   3. normal SFR pipeline on the received primitives: a GPU runs geometry
 *      processing only for primitives overlapping its own tiles (primitives
 *      spanning several GPUs' tiles are duplicated to each).
 *
 * Both published optimizations are modelled: batching (projection and
 * distribution of batch b+1 overlap rendering of batch b) and runahead
 * (rendering may begin as soon as a batch's distribution completes).
 */

#include <algorithm>

#include "gfx/renderer.hh"
#include "sfr/context.hh"
#include "sfr/schemes.hh"

namespace chopin
{

FrameResult
runGpupd(const SystemConfig &cfg, const FrameTrace &trace, bool ideal,
         Tracer *tracer, Image *image, FunctionalLog *log)
{
    SimContext ctx(cfg, trace, ideal ? LinkParams::ideal() : cfg.link,
                   tracer, log);
    unsigned n = cfg.num_gpus;

    // Form draw-level batches of at least gpupd_batch_prims primitives.
    struct Batch
    {
        std::uint32_t first = 0;
        std::uint32_t last = 0; // inclusive
        std::uint64_t tris = 0;
    };
    std::vector<Batch> batches;
    for (std::uint32_t i = 0; i < trace.draws.size(); ++i) {
        std::uint64_t tris = trace.draws[i].triangleCount();
        if (batches.empty() ||
            batches.back().tris >= cfg.gpupd_batch_prims) {
            batches.push_back({i, i, tris});
        } else {
            batches.back().last = i;
            batches.back().tris += tris;
        }
    }

    Tick t = 0; // driver cursor

    for (const Batch &batch : batches) {
        // --- Phase 1: cooperative projection (parallel). ------------------
        Tick proj_base = t;
        std::uint64_t share = (batch.tris + n - 1) / n;
        Tick proj_cycles = cfg.timing.projectionCycles(share);
        Tick proj_done_all = proj_base;
        for (unsigned g = 0; g < n; ++g) {
            Tick done =
                ctx.pipes[g].submitGeometryWork(proj_base, proj_cycles);
            proj_done_all = std::max(proj_done_all, done);
        }
        // Attribute only the projection work itself; waiting behind earlier
        // geometry work is pipeline time, not projection overhead.
        ctx.breakdown.prim_projection += proj_cycles;
        if (ctx.tracer != nullptr && proj_done_all > proj_base)
            ctx.tracer->span(ctx.phase_track, "gpupd", "projection",
                             proj_base, proj_done_all,
                             {{"tris", batch.tris}});

        // --- Functional rendering + destination-set computation. ----------
        // (Projection determines each primitive's destination GPUs; the
        // partitioned renderer computes the same sets functionally.)
        std::vector<PartitionedDraw> parts;
        parts.reserve(batch.last - batch.first + 1);
        std::vector<Bytes> ids_to(n, 0); // primitive-ID bytes per destination
        for (std::uint32_t i = batch.first; i <= batch.last; ++i) {
            parts.push_back(ctx.renderPartitioned(
                trace.draws[i], GeometryCharging::OwnersOnly));
            for (unsigned g = 0; g < n; ++g)
                ids_to[g] += parts.back().owned_tris[g] * 4; // 4B per ID
        }

        // --- Phase 2: sequential primitive distribution. -------------------
        // Source GPUs take turns; each forwards the IDs its projected slice
        // produced (approximately 1/N of every destination's primitives).
        Tick dist_start = proj_done_all;
        Tick phase = dist_start;
        for (unsigned src = 0; src < n; ++src) {
            Tick phase_end = phase;
            for (unsigned dst = 0; dst < n; ++dst) {
                if (dst == src)
                    continue;
                Bytes bytes = ids_to[dst] / n;
                if (bytes == 0)
                    continue;
                Tick arrival = ctx.net.transfer(src, dst, bytes, phase,
                                                TrafficClass::PrimDist);
                phase_end = std::max(phase_end, arrival);
            }
            phase = phase_end; // next source waits (sequential exchange)
        }
        Tick dist_end = phase;
        ctx.breakdown.prim_distribution += dist_end - dist_start;
        if (ctx.tracer != nullptr && dist_end > dist_start)
            ctx.tracer->span(ctx.phase_track, "gpupd", "distribution",
                             dist_start, dist_end);

        // --- Phase 3: normal pipeline on received primitives. -------------
        Tick issue = dist_end;
        if (!cfg.gpupd_runahead) {
            // Without runahead, rendering waits for all earlier batches.
            issue = std::max(issue, ctx.maxPipeFinish());
        }
        for (std::uint32_t i = batch.first; i <= batch.last; ++i) {
            const DrawCommand &cmd = trace.draws[i];
            issue = ctx.bind(cmd.state.render_target, cmd.state.depth_buffer,
                             issue);
            ctx.submitPartitioned(cmd.id, parts[i - batch.first], issue);
            issue += cfg.timing.driver_issue_cycles;
        }

        // The driver can start the next batch's projection immediately
        // (batching); the pipelines themselves serialize contention.
        t = cfg.gpupd_runahead ? dist_end : std::max(issue,
                                                     ctx.maxPipeFinish());
    }

    return ctx.finish(ideal ? Scheme::GpupdIdeal : Scheme::Gpupd,
                      ctx.maxPipeFinish(), image);
}

} // namespace chopin
