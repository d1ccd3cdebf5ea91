#include "sfr/context.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "gfx/renderer.hh"
#include "util/check.hh"

namespace chopin
{

SimContext::SimContext(const SystemConfig &config, const FrameTrace &frame,
                       const LinkParams &link, Tracer *trace_sink,
                       FunctionalLog *functional_log)
    : cfg(config), trace(frame), vp(frame.viewport),
      grid(vp.width, vp.height, config.num_gpus, config.tile_size,
           config.tile_assignment),
      net(config.num_gpus, link), tracer(trace_sink), log(functional_log),
      replaying(functional_log != nullptr && functional_log->recorded)
{
    CHOPIN_CHECK(cfg.num_gpus >= 1 && cfg.num_gpus <= maxGpus,
                 "num_gpus must be in [1, ", maxGpus, "], got ", cfg.num_gpus);
    CHOPIN_DCHECK(grid.ownersPartitionScreen(),
                  "tile grid does not partition the ", vp.width, "x",
                  vp.height, " screen across ", cfg.num_gpus, " GPUs");
    pipes.reserve(cfg.num_gpus);
    for (unsigned g = 0; g < cfg.num_gpus; ++g)
        pipes.emplace_back(cfg.timing);
    if (tracer != nullptr) {
        // Register tracks in a fixed order (scheme phases first, then the
        // per-GPU pipeline stages, then the egress ports) so trace files
        // have a stable layout regardless of which model emits first.
        phase_track = tracer->track("sfr.phases");
        for (unsigned g = 0; g < cfg.num_gpus; ++g)
            pipes[g].attachTracer(tracer, g);
        net.setTracer(tracer);
    }

    CHOPIN_CHECK(!replaying || tracer == nullptr,
                 "a replay from a functional log takes no tracer");
    CHOPIN_CHECK(log == nullptr || replaying ||
                     (log->draws.empty() && log->groups.empty()),
                 "a functional log records one run");

    rt_dirty.resize(trace.num_render_targets);
    for (std::vector<std::uint8_t> &dirty : rt_dirty)
        dirty.assign(static_cast<std::size_t>(grid.tileCount()), 0);
    if (replaying)
        return;
    SurfaceCache &cache = threadRenderScratch().surfaces;
    rts.reserve(trace.num_render_targets);
    for (std::uint32_t r = 0; r < trace.num_render_targets; ++r) {
        rts.push_back(cache.take(vp.width, vp.height));
        rts[r].reset(trace.clear_color, trace.clear_depth);
    }
}

Tick
SimContext::maxPipeFinish() const
{
    Tick t = 0;
    for (const GpuPipeline &p : pipes)
        t = std::max(t, p.finishTime());
    return t;
}

Tick
SimContext::bind(std::uint32_t rt, std::uint32_t db, Tick t)
{
    if (rt == bound_rt && db == bound_db)
        return t;
    // All GPUs must drain before the consistency broadcast.
    Tick end = syncBroadcast(bound_rt, std::max(t, maxPipeFinish()));
    bound_rt = rt;
    bound_db = db;
    return end;
}

PartitionedDraw
SimContext::renderPartitioned(const DrawCommand &cmd,
                              GeometryCharging charging)
{
    std::uint32_t rt = cmd.state.render_target;
    PartitionedDraw part;
    if (replaying) {
        CHOPIN_CHECK(replay_draw < log->draws.size() &&
                         log->draws[replay_draw].id == cmd.id,
                     "draw ", cmd.id, " is not the next logged draw");
        const LoggedDraw &logged = log->draws[replay_draw++];
        for (std::uint32_t t : logged.touched_tiles)
            rt_dirty[rt][t] = 1;
        part = logged.part;
    } else if (log == nullptr) {
        part = renderDrawPartitioned(rts[rt], vp, drawInput(cmd), grid,
                                     GeometryCharging::Duplicated,
                                     &rt_dirty[rt]);
    } else {
        // Touched tiles are logged per draw: a scheme may render draws
        // ahead of the render-target switches between them (GPUpd renders
        // a whole batch first), and a replay must flag them at the same
        // point of its own schedule.
        std::vector<std::uint8_t> touched(
            static_cast<std::size_t>(grid.tileCount()), 0);
        LoggedDraw rec;
        rec.id = cmd.id;
        rec.part = renderDrawPartitioned(rts[rt], vp, drawInput(cmd), grid,
                                         GeometryCharging::Duplicated,
                                         &touched);
        for (std::size_t t = 0; t < touched.size(); ++t) {
            if (!touched[t])
                continue;
            rec.touched_tiles.push_back(static_cast<std::uint32_t>(t));
            rt_dirty[rt][t] = 1;
        }
        part = rec.part;
        log->draws.push_back(std::move(rec));
    }
    if (charging == GeometryCharging::OwnersOnly)
        chargeOwnersOnly(part);
    return part;
}

void
chargeOwnersOnly(PartitionedDraw &part)
{
    for (std::size_t g = 0; g < part.per_gpu.size(); ++g) {
        DrawStats &s = part.per_gpu[g];
        std::uint64_t owned = part.owned_tris[g];
        CHOPIN_DCHECK(s.tris_rasterized <= owned);
        s.verts_shaded = 3 * owned;
        s.tris_in = owned;
        s.tris_clipped = 0;
        s.tris_culled = owned - s.tris_rasterized;
        s.tris_coarse_rejected = 0;
    }
}

void
SimContext::submitPartitioned(DrawId id, const PartitionedDraw &part, Tick t)
{
    for (unsigned g = 0; g < cfg.num_gpus; ++g) {
        totals += part.per_gpu[g];
        pipes[g].submitDraw(id, applyCullRetention(part.per_gpu[g]), t);
    }
}

Tick
SimContext::syncBroadcast(std::uint32_t rt, Tick now)
{
    CHOPIN_CHECK(rt < rt_dirty.size());
    if (cfg.num_gpus == 1 || rt == 0) {
        // The back buffer (render target 0) is scanned out, never sampled
        // mid-frame; only intermediate render targets (shadow maps, bloom
        // buffers) need cross-GPU consistency before they are consumed.
        std::fill(rt_dirty[rt].begin(), rt_dirty[rt].end(), 0);
        return now;
    }

    // Bytes each GPU owns of the dirty region: color + depth, 8 B/pixel.
    std::vector<Bytes> bytes(cfg.num_gpus, 0);
    const std::vector<std::uint8_t> &dirty = rt_dirty[rt];
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (!dirty[t])
            continue;
        GpuId owner = grid.ownerOfTile(t % grid.tilesX(), t / grid.tilesX());
        bytes[owner] += static_cast<Bytes>(grid.pixelsInTile(t)) * 8;
    }

    Tick end = now;
    for (GpuId src = 0; src < cfg.num_gpus; ++src) {
        if (bytes[src] == 0)
            continue;
        for (GpuId dst = 0; dst < cfg.num_gpus; ++dst) {
            if (dst == src)
                continue;
            Tick arrival = net.transfer(src, dst, bytes[src], now,
                                        TrafficClass::Sync);
            end = std::max(end, arrival);
        }
    }
    std::fill(rt_dirty[rt].begin(), rt_dirty[rt].end(), 0);
    breakdown.sync += end - now;
    if (tracer != nullptr && end > now)
        tracer->span(phase_track, "sfr", "sync rt" + std::to_string(rt),
                     now, end);
    return end;
}

DrawStats
SimContext::applyCullRetention(const DrawStats &stats)
{
    if (cfg.cull_retention <= 0.0)
        return stats;
    DrawStats s = stats;
    std::uint64_t retained = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(s.frags_early_fail) *
                     cfg.cull_retention));
    retained = std::min(retained, s.frags_early_fail);
    // Retained fragments run the shader and reach the ROP as if they had
    // passed; they remain visually culled (timing-only knob, Fig. 16).
    s.frags_shaded += retained;
    s.frags_written += retained;
    retained_culled += retained;
    return s;
}

DrawInput
SimContext::drawInput(const DrawCommand &cmd) const
{
    DrawInput in;
    in.triangles = cmd.triangles;
    in.mvp = trace.view_proj * cmd.model;
    in.state = cmd.state;
    in.draw_id = cmd.id;
    in.alpha_ref = cmd.alpha_ref;
    in.backface_cull = cmd.backface_cull;
    if (cmd.texture_rt >= 0) {
        CHOPIN_CHECK(static_cast<std::size_t>(cmd.texture_rt) < rts.size(),
                     "draw ", cmd.id, " samples nonexistent render target ",
                     cmd.texture_rt);
        CHOPIN_CHECK(static_cast<std::uint32_t>(cmd.texture_rt) !=
                         cmd.state.render_target,
                     "draw ", cmd.id, " samples its own render target");
        in.texture = &rts[static_cast<std::size_t>(cmd.texture_rt)].color();
    }
    return in;
}

FrameResult
SimContext::finish(Scheme scheme, Tick end, Image *image)
{
    // Frame-boundary invariants: traffic accounting must conserve bytes
    // across the injection and delivery paths, and every message must have
    // arrived within the frame's reported cycle count.
    net.checkFlowConservation();
    net.checkDrained(end);

    FrameResult r;
    r.scheme = scheme;
    r.num_gpus = cfg.num_gpus;
    r.cycles = end;
    r.breakdown = breakdown;
    // Schemes only ever account the four overhead categories; everything
    // else is normal pipeline work, so breakdown.total() is the accounted
    // overhead here (normal_pipeline is still zero).
    CHOPIN_CHECK(breakdown.normal_pipeline == 0,
                 "normal_pipeline is derived, not accounted by schemes");
    Tick accounted = breakdown.total();
    r.breakdown.normal_pipeline = end > accounted ? end - accounted : 0;
    r.traffic = net.traffic();
    r.totals = totals;
    for (const GpuPipeline &p : pipes) {
        r.geom_busy += p.geomBusy();
        r.raster_busy += p.rasterBusy();
        r.frag_busy += p.fragBusy();
    }
    if (!pipes.empty())
        r.draw_timings = pipes[0].drawTimings();
    r.retained_culled = retained_culled;
    if (replaying) {
        CHOPIN_CHECK(image == nullptr, "a replay renders no image");
        CHOPIN_CHECK(log->cls == functionalClass(scheme),
                     toString(scheme), " cannot replay a log of another "
                     "functional class");
        CHOPIN_CHECK(replay_draw == log->draws.size(),
                     "a replay consumed ", replay_draw, " of ",
                     log->draws.size(), " logged draws");
        r.frame_hash = log->frame_hash;
        r.content_hash = log->content_hash;
        log->replays += 1;
        return r;
    }
    r.frame_hash = frameHash(rts[0].color());
    r.content_hash = rts[0].contentHashFrom(r.frame_hash);
    if (log != nullptr) {
        log->cls = functionalClass(scheme);
        log->frame_hash = r.frame_hash;
        log->content_hash = r.content_hash;
        log->recorded = true;
    }
    if (image != nullptr)
        *image = rts[0].takeColor();

    // Hand every render target back as it is (the constructor resets
    // them). One whose color image was just taken reports 0x0, and the
    // cache drops it.
    SurfaceCache &cache = threadRenderScratch().surfaces;
    for (Surface &s : rts)
        cache.give(std::move(s));
    rts.clear();
    return r;
}

} // namespace chopin
