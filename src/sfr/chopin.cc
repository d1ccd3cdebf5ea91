/**
 * @file
 * CHOPIN: sort-last split-frame rendering with parallel image composition
 * (Section IV of the paper, Fig. 6/7 workflow).
 *
 * Per composition group:
 *  - small or non-composable groups revert to primitive duplication
 *    (Fig. 7's threshold check);
 *  - opaque groups distribute whole draw commands across GPUs (via the
 *    draw-command scheduler), render full-screen sub-images with private
 *    depth, and compose the sub-images out-of-order at the region owners;
 *  - transparent groups split draws into contiguous equal-triangle chunks
 *    to preserve the blend order, then merge adjacent sub-images
 *    asynchronously using the associativity of the blend operator.
 */

#include <algorithm>
#include <array>
#include <bit>

#include "comp/operators.hh"
#include "gfx/renderer.hh"
#include "sfr/comp_scheduler.hh"
#include "sfr/context.hh"
#include "sfr/grouping.hh"
#include "sfr/schemes.hh"
#include "util/log.hh"
#include "util/thread_pool.hh"
#include "util/types.hh"

namespace chopin
{

namespace
{

/** Bitwise equality (tells -0.0 from 0.0 and matches NaN payloads). */
template <typename T>
bool
sameBits(const T &a, const T &b)
{
    using Bytes = std::array<unsigned char, sizeof(T)>;
    return std::bit_cast<Bytes>(a) == std::bit_cast<Bytes>(b);
}

/** Per-run state for the CHOPIN scheme. */
struct ChopinRun
{
    SimContext &ctx;
    const ChopinOptions &opts;
    DrawCommandScheduler sched;
    /** Per-GPU sub-images, taken from the thread's surface cache. */
    std::vector<Surface> subs;
    /** Per sub-image, the tiles it has written since its last reset. */
    std::vector<std::vector<std::uint8_t>> sub_touched;
    /** The value every sub-image was last reset to; a cached surface
     *  arrives in Surface(w, h) state, which is this default. */
    Color sub_clear_color;
    float sub_clear_depth = 1.0f;
    Tick t = 0;

    ChopinRun(SimContext &sim_ctx, const ChopinOptions &run_opts)
        : ctx(sim_ctx), opts(run_opts),
          sched(ctx.pipes, opts.policy, ctx.cfg.sched_update_tris)
    {
        SurfaceCache &cache = threadRenderScratch().surfaces;
        subs.reserve(ctx.cfg.num_gpus);
        sub_touched.resize(ctx.cfg.num_gpus);
        for (unsigned g = 0; g < ctx.cfg.num_gpus; ++g) {
            subs.push_back(cache.take(ctx.vp.width, ctx.vp.height));
            sub_touched[g].assign(
                static_cast<std::size_t>(ctx.grid.tileCount()), 0);
        }
    }

    /**
     * Reset every sub-image to color @p c and depth @p z (no writer,
     * unwritten, stencil 0) and clear its touched-tile flags.
     *
     * Touched-tile invariant: renderDraw flags the tile of every fragment
     * it writes, and Surface::applyFragment changes a pixel only on that
     * written path, so every pixel that differs from the last reset value
     * lies in a tile flagged since that reset. When (@p c, @p z) equals
     * that value bit for bit, clearing just the flagged tiles restores the
     * whole sub-image. Any other value — reversed-Z groups clear depth to
     * 0, Multiply groups clear color to 1s — takes a full clear.
     */
    void
    resetSubs(const Color &c, float z)
    {
        bool same = sameBits(c, sub_clear_color) &&
                    sameBits(z, sub_clear_depth);
        // Per-GPU fan-out: worker g writes only subs[g] and its flags.
        const TileGrid &grid = ctx.grid;
        globalPool().parallelFor(subs.size(), [&](std::size_t g) {
            if (same) {
                for (int tile = 0; tile < grid.tileCount(); ++tile)
                    if (sub_touched[g][tile])
                        subs[g].clearRect(grid.tileRect(tile), c, z);
            } else {
                subs[g].clear(c, z);
            }
            std::fill(sub_touched[g].begin(), sub_touched[g].end(), 0);
        });
        sub_clear_color = c;
        sub_clear_depth = z;
    }

    /** Give the sub-images back to the thread's surface cache in
     *  Surface(w, h) state. */
    void
    releaseSubs()
    {
        resetSubs(Color(), 1.0f);
        SurfaceCache &cache = threadRenderScratch().surfaces;
        for (Surface &sub : subs)
            cache.give(std::move(sub));
        subs.clear();
    }

    /** Duplication fallback for one group (Fig. 7, left branch). */
    void
    runDuplicated(const CompositionGroup &group)
    {
        for (std::uint32_t i = group.first_draw; i <= group.last_draw; ++i) {
            const DrawCommand &cmd = ctx.trace.draws[i];
            Surface &target = ctx.rts[cmd.state.render_target];
            PartitionedDraw part = renderDrawPartitioned(
                target, ctx.vp, ctx.drawInput(cmd), ctx.grid,
                GeometryCharging::Duplicated,
                &ctx.rt_dirty[cmd.state.render_target]);
            for (unsigned g = 0; g < ctx.cfg.num_gpus; ++g) {
                ctx.totals += part.per_gpu[g];
                ctx.pipes[g].submitDraw(
                    cmd.id, ctx.applyCullRetention(part.per_gpu[g]), t);
            }
            t += ctx.cfg.timing.driver_issue_cycles;
        }
    }

    /**
     * Run a distributed group's draws into the per-GPU sub-images, every
     * GPU at once, in three phases:
     *
     *  1. Assign the draws in draw order, submitting each one's geometry
     *     half at its issue time. Opaque draws go where sched.schedule()
     *     says; it reads only geometry progress, so it sees what it would
     *     see if each earlier draw had been submitted whole. Transparent
     *     draws take contiguous equal-triangle chunks, which preserve the
     *     input order: GPU g renders draws strictly earlier than GPU g+1
     *     (Fig. 7).
     *  2. Render each GPU's draws, in draw order, into its sub-image on a
     *     pool worker. Rendering is purely functional: it touches neither
     *     the scheduler nor the pipes.
     *  3. In draw order, add each draw's stats to the totals and submit
     *     its back end, which claims the same stage times and emits the
     *     same spans as submitDraw().
     */
    void
    runDistributedDraws(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        std::uint32_t count = group.drawCount();
        std::vector<GpuId> assignment(count, 0);
        std::uint64_t chunk_share =
            std::max<std::uint64_t>(1, group.triangles / n);
        std::uint64_t acc = 0;
        GpuId chunk = 0;
        for (std::uint32_t k = 0; k < count; ++k) {
            const DrawCommand &cmd = ctx.trace.draws[group.first_draw + k];
            std::uint64_t tris = cmd.triangleCount();
            GpuId g = group.transparent() ? chunk : sched.schedule(tris, t);
            if (group.transparent()) {
                sched.accountExternal(g, tris);
                acc += tris;
                if (acc >= chunk_share * (chunk + 1) && chunk + 1 < n)
                    ++chunk;
            }
            assignment[k] = g;
            // Before any pixel work a draw's stats hold what geometry
            // processing counts per input primitive; submitBackEnd checks
            // that the rendered stats agree.
            DrawStats geometry;
            geometry.tris_in = tris;
            geometry.verts_shaded = 3 * tris;
            ctx.pipes[g].submitGeometry(cmd.id, geometry, t);
            t += ctx.cfg.timing.driver_issue_cycles;
        }

        std::vector<DrawStats> draw_stats(count);
        // Worker g writes only subs[g], sub_touched[g] and the stats slots
        // of its own draws. ctx is aliased only for the immutable
        // trace/viewport inputs; render workers never reach ctx.tracer.
        globalPool().parallelFor(n, [&](std::size_t g) {
            for (std::uint32_t k = 0; k < count; ++k) {
                if (assignment[k] != g)
                    continue;
                const DrawCommand &cmd =
                    ctx.trace.draws[group.first_draw + k];
                draw_stats[k] =
                    renderDraw(subs[g], ctx.vp, ctx.drawInput(cmd),
                               RenderFilter{}, &sub_touched[g], &ctx.grid);
            }
        });

        for (std::uint32_t k = 0; k < count; ++k) {
            ctx.totals += draw_stats[k];
            ctx.pipes[assignment[k]].submitBackEnd(
                ctx.applyCullRetention(draw_stats[k]));
        }
    }

    /** Build the composition job skeleton from per-GPU readiness. */
    CompositionJob
    makeJob(Tick group_start) const
    {
        unsigned n = ctx.cfg.num_gpus;
        CompositionJob job;
        job.num_gpus = n;
        job.screen_pixels = static_cast<std::uint64_t>(ctx.vp.width) *
                            static_cast<std::uint64_t>(ctx.vp.height);
        job.ready.resize(n);
        job.pair_pixels.assign(static_cast<std::size_t>(n) * n, 0);
        job.self_pixels.assign(n, 0);
        job.subimage_pixels.assign(n, 0);
        for (unsigned g = 0; g < n; ++g)
            job.ready[g] =
                std::max(group_start, ctx.pipes[g].finishTime());
        return job;
    }

    /**
     * Fill the job's pixel counts. Untouched 64x64 tiles are filtered out
     * entirely (Section VI-C: "we also filter out the screen tiles that
     * are not rendered by any draw command"); within a touched tile the
     * payload moves at DMA-burst granularity — any 8x8 sub-tile containing
     * a written pixel is transferred whole. This sits between idealized
     * per-pixel masking and naive whole-tile transfers, matching how ROPs
     * move compressed tile storage.
     */
    void
    fillJobPixels(CompositionJob &job)
    {
        constexpr int sub = 8; // sub-tile (burst) edge in pixels
        unsigned n = ctx.cfg.num_gpus;
        CompPayload payload = ctx.cfg.comp_payload;
        // Per-GPU fan-out: GPU g's pass reads only subs[g] and accumulates
        // only into job slots indexed by g (subimage/self/pair rows), so
        // the counts are schedule-invariant. ctx is captured by reference
        // but the workers read only ctx.cfg/grid (set up before the
        // fan-out, immutable during it) and never reach ctx.tracer.
        globalPool().parallelFor(n, [&](std::size_t gi) {
            unsigned g = static_cast<unsigned>(gi);
            for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
                if (!sub_touched[g][tile])
                    continue;
                GpuId owner = ctx.grid.ownerOfTile(
                    tile % ctx.grid.tilesX(), tile / ctx.grid.tilesX());
                PixelRect r = ctx.grid.tileRect(tile);
                std::uint64_t px = 0;
                switch (payload) {
                  case CompPayload::FullTiles:
                    px = static_cast<std::uint64_t>(
                        ctx.grid.pixelsInTile(tile));
                    break;
                  case CompPayload::WrittenPixels:
                    for (int y = r.y0; y <= r.y1; ++y)
                        for (int x = r.x0; x <= r.x1; ++x)
                            px += subs[g].writtenAt(x, y) ? 1 : 0;
                    break;
                  case CompPayload::SubTiles:
                    for (int sy = r.y0; sy <= r.y1; sy += sub) {
                        for (int sx = r.x0; sx <= r.x1; sx += sub) {
                            int ex = std::min(sx + sub, r.x1 + 1);
                            int ey = std::min(sy + sub, r.y1 + 1);
                            bool any = false;
                            for (int y = sy; y < ey && !any; ++y)
                                for (int x = sx; x < ex && !any; ++x)
                                    any = subs[g].writtenAt(x, y);
                            if (any)
                                px += static_cast<std::uint64_t>(ex - sx) *
                                      static_cast<std::uint64_t>(ey - sy);
                        }
                    }
                    break;
                }
                job.subimage_pixels[g] += px;
                if (owner == g)
                    job.self_pixels[g] += px;
                else
                    job.pair_pixels[static_cast<std::size_t>(g) * n +
                                    owner] += px;
            }
        });
    }

    /** Distributed execution of an opaque group. */
    void
    runDistributedOpaque(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        DepthFunc eff_func =
            group.depth_test ? group.depth_func : DepthFunc::Always;
        float clear_z =
            (group.depth_test && !prefersSmaller(group.depth_func)) ? 0.0f
                                                                    : 1.0f;
        resetSubs(Color(), clear_z);

        Tick group_start = t;
        runDistributedDraws(group);

        CompositionJob job = makeJob(group_start);
        fillJobPixels(job);
        Tick max_ready =
            *std::max_element(job.ready.begin(), job.ready.end());

        CompositionTiming timing =
            opts.comp_scheduler
                ? composeOpaqueScheduled(job, ctx.net, ctx.cfg.timing)
                : composeOpaqueDirectSend(job, ctx.net, ctx.cfg.timing);
        ctx.breakdown.composition +=
            timing.end > max_ready ? timing.end - max_ready : 0;
        if (ctx.tracer != nullptr && timing.end > max_ready)
            ctx.tracer->span(ctx.phase_track, "chopin", "compose opaque",
                             max_ready, timing.end,
                             {{"pair_pixels", job.pairPixels()}});
        t = std::max(t, timing.end);

        // Functional composition: out-of-order per-pixel selection. The
        // order of sub-images is irrelevant (opaqueWins is a total order).
        // Tile-major traversal of the serial g-major loop, parallel over
        // tiles: tiles are disjoint pixel sets and each pixel still folds
        // the sub-images in ascending GPU order, so the result (and each
        // dirty flag, single-writer per tile) is schedule-invariant.
        Surface &target = ctx.rts[group.render_target];
        std::vector<std::uint8_t> &dirty = ctx.rt_dirty[group.render_target];
        globalPool().parallelFor(
            static_cast<std::size_t>(ctx.grid.tileCount()),
            // ctx is aliased only for grid geometry reads here; the tile
            // workers never reach ctx.tracer.
            [&](std::size_t tile_index) {
                int tile = static_cast<int>(tile_index);
                for (unsigned g = 0; g < n; ++g) {
                    if (!sub_touched[g][tile])
                        continue;
                    dirty[tile] = 1;
                    PixelRect r = ctx.grid.tileRect(tile);
                    for (int y = r.y0; y <= r.y1; ++y) {
                        for (int x = r.x0; x <= r.x1; ++x) {
                            if (!subs[g].writtenAt(x, y))
                                continue;
                            OpaquePixel in{subs[g].color().at(x, y),
                                           subs[g].depthAt(x, y),
                                           subs[g].writerAt(x, y)};
                            OpaquePixel cur{target.color().at(x, y),
                                            target.depthAt(x, y),
                                            target.writerAt(x, y)};
                            if (!opaqueWins(eff_func, in, cur))
                                continue;
                            target.color().at(x, y) = in.color;
                            if (group.depth_test && group.depth_write)
                                target.setDepth(x, y, in.depth);
                            target.setWriter(x, y, in.writer);
                            target.markWritten(x, y);
                        }
                    }
                }
            });
    }

    /** Distributed execution of a transparent group. */
    void
    runDistributedTransparent(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        BlendOp op = group.blend_op;
        resetSubs(transparentIdentity(op), 1.0f);

        Tick group_start = t;
        runDistributedDraws(group);

        CompositionJob job = makeJob(group_start);
        fillJobPixels(job);
        Tick max_ready =
            *std::max_element(job.ready.begin(), job.ready.end());

        // Asynchronous adjacent (tree) composition is part of base CHOPIN
        // (Section III-B): associativity lets adjacent sub-images merge as
        // soon as both are available, with or without the composition
        // scheduler. The left-fold chain remains in the library as the
        // serial-sink reference baseline.
        CompositionTiming timing =
            composeTransparentTree(job, ctx.net, ctx.cfg.timing);
        ctx.breakdown.composition +=
            timing.end > max_ready ? timing.end - max_ready : 0;
        if (ctx.tracer != nullptr && timing.end > max_ready)
            ctx.tracer->span(ctx.phase_track, "chopin",
                             "compose transparent", max_ready, timing.end,
                             {{"pair_pixels", job.pairPixels()}});
        t = std::max(t, timing.end);

        // Functional merge: fold sub-images front (highest GPU id = latest
        // draws) to back, then apply over the background.
        // Tile-parallel: the fold is per-pixel (front-to-back over the
        // sub-images) and tiles are disjoint, so each tile merges
        // independently with bit-identical float sequences.
        Surface &target = ctx.rts[group.render_target];
        std::vector<std::uint8_t> &dirty = ctx.rt_dirty[group.render_target];
        const TileGrid &grid = ctx.grid;
        globalPool().parallelFor(
            static_cast<std::size_t>(grid.tileCount()),
            [&](std::size_t tile_index) {
                int tile = static_cast<int>(tile_index);
                bool touched = false;
                for (unsigned g = 0; g < n && !touched; ++g)
                    touched = sub_touched[g][tile] != 0;
                if (!touched)
                    return;
                dirty[tile] = 1;
                PixelRect r = grid.tileRect(tile);
                for (int y = r.y0; y <= r.y1; ++y) {
                    for (int x = r.x0; x <= r.x1; ++x) {
                        bool any = false;
                        Color merged = transparentIdentity(op);
                        for (int g = static_cast<int>(n) - 1; g >= 0; --g) {
                            if (!subs[g].writtenAt(x, y))
                                continue;
                            any = true;
                            merged = mergeTransparent(
                                op, merged, subs[g].color().at(x, y));
                        }
                        if (!any)
                            continue;
                        target.color().at(x, y) = finalizeTransparent(
                            op, merged, target.color().at(x, y));
                        target.markWritten(x, y);
                    }
                }
            });
    }
};

} // namespace

FrameResult
runChopin(const SystemConfig &cfg, const FrameTrace &trace,
          const ChopinOptions &opts, Tracer *tracer, Image *image)
{
    SimContext ctx(cfg, trace, opts.ideal ? LinkParams::ideal() : cfg.link,
                   tracer);
    ChopinRun run(ctx, opts);

    std::vector<CompositionGroup> groups = formGroups(trace);
    std::uint64_t groups_distributed = 0;
    std::uint64_t tris_distributed = 0;

    std::uint32_t bound_rt = 0;
    std::uint32_t bound_db = 0;
    for (const CompositionGroup &group : groups) {
        if (group.render_target != bound_rt ||
            group.depth_buffer != bound_db) {
            Tick sync_start = std::max(run.t, ctx.maxPipeFinish());
            run.t = ctx.syncBroadcast(bound_rt, sync_start);
            bound_rt = group.render_target;
            bound_db = group.depth_buffer;
        }

        if (!groupDistributable(group, cfg.group_threshold)) {
            run.runDuplicated(group);
            continue;
        }
        groups_distributed += 1;
        tris_distributed += group.triangles;
        if (group.transparent())
            run.runDistributedTransparent(group);
        else
            run.runDistributedOpaque(group);
    }

    Tick end = std::max(run.t, ctx.maxPipeFinish());
    Scheme scheme = Scheme::Chopin;
    if (opts.ideal)
        scheme = Scheme::ChopinIdeal;
    else if (opts.policy == DrawPolicy::RoundRobin)
        scheme = Scheme::ChopinRoundRobin;
    else if (opts.comp_scheduler)
        scheme = Scheme::ChopinCompSched;

    run.releaseSubs();
    FrameResult r = ctx.finish(scheme, end, image);
    r.groups_total = groups.size();
    r.groups_distributed = groups_distributed;
    r.tris_distributed = tris_distributed;
    r.sched_status_bytes = run.sched.statusTraffic();
    return r;
}

FrameResult
runScheme(Scheme scheme, const SystemConfig &cfg, const FrameTrace &trace,
          Tracer *tracer, Image *image)
{
    switch (scheme) {
      case Scheme::SingleGpu:
        return runSingleGpu(cfg, trace, tracer, image);
      case Scheme::Duplication:
        return runDuplication(cfg, trace, tracer, image);
      case Scheme::Gpupd:
        return runGpupd(cfg, trace, false, tracer, image);
      case Scheme::GpupdIdeal:
        return runGpupd(cfg, trace, true, tracer, image);
      case Scheme::ChopinRoundRobin:
        return runChopin(cfg, trace,
                         {DrawPolicy::RoundRobin, false, false}, tracer,
                         image);
      case Scheme::Chopin:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, false, false},
                         tracer, image);
      case Scheme::ChopinCompSched:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, true, false},
                         tracer, image);
      case Scheme::ChopinIdeal:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, true, true},
                         tracer, image);
    }
    panic("unknown scheme");
}

} // namespace chopin
