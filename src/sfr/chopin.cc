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
#include <cstdint>
#include <optional>

#include "comp/operators.hh"
#include "gfx/renderer.hh"
#include "sfr/comp_scheduler.hh"
#include "sfr/context.hh"
#include "sfr/grouping.hh"
#include "sfr/schemes.hh"
#include "util/check.hh"
#include "util/thread_pool.hh"
#include "util/types.hh"

namespace chopin
{

namespace
{

/** Call @p fn(x, y, bit) for every set bit of @p mask, the written mask
 *  of 8x8 block (@p bx, @p by), in ascending bit order. */
template <typename Fn>
void
forEachWritten(std::uint64_t mask, int bx, int by, Fn &&fn)
{
    while (mask != 0) {
        int bit = std::countr_zero(mask);
        mask &= mask - 1;
        fn(bx * Surface::blockEdge + (bit & 7),
           by * Surface::blockEdge + (bit >> 3), bit);
    }
}

/** Per-run state for the CHOPIN scheme. */
struct ChopinRun
{
    SimContext &ctx;
    const ChopinOptions &opts;
    DrawCommandScheduler sched;
    /** Per-GPU sub-images, taken from the thread's surface cache (none
     *  while replaying). */
    std::vector<Surface> subs;
    /** Blocks per tile edge: the merges and the payload count walk each
     *  tile's 8x8 blocks. */
    int tile_blocks = 0;
    /** Blocks per row and per column of every sub-image. */
    int blocks_x = 0;
    int blocks_y = 0;
    Tick t = 0;
    /** The next logged group a replay reads. */
    std::size_t replay_group = 0;
    /** The distributed group being scheduled: its assignment, and unless
     *  the run replays, its functional results. Reused from group to group
     *  (a recording run copies each group into the log). */
    LoggedGroup current;
    /** Per GPU, the tiles its sub-image wrote: [g * tileCount() + tile]. */
    std::vector<std::uint8_t> touched;

    ChopinRun(SimContext &sim_ctx, const ChopinOptions &run_opts)
        : ctx(sim_ctx), opts(run_opts),
          sched(ctx.pipes, opts.policy, ctx.cfg.sched_update_tris)
    {
        // The merges run tile-parallel and store into the render target's
        // written masks, so no 8x8 block may straddle two tiles.
        CHOPIN_CHECK(ctx.grid.tileSize() % Surface::blockEdge == 0,
                     "tile size ", ctx.grid.tileSize(),
                     " is not a multiple of the ", Surface::blockEdge,
                     "-pixel written-mask block");
        tile_blocks = ctx.grid.tileSize() / Surface::blockEdge;
        if (ctx.replaying)
            return;
        SurfaceCache &cache = threadRenderScratch().surfaces;
        subs.reserve(ctx.cfg.num_gpus);
        for (unsigned g = 0; g < ctx.cfg.num_gpus; ++g)
            subs.push_back(cache.take(ctx.vp.width, ctx.vp.height));
        blocks_x = subs.front().blocksX();
        blocks_y = subs.front().blocksY();
    }

    /** Half-open block ranges [bx0, bx1) x [by0, by1) of tile @p tile. */
    struct TileBlocks
    {
        int bx0, bx1, by0, by1;
    };

    TileBlocks
    blocksOf(int tile) const
    {
        const TileGrid &grid = ctx.grid;
        int bx0 = (tile % grid.tilesX()) * tile_blocks;
        int by0 = (tile / grid.tilesX()) * tile_blocks;
        return {bx0, std::min(bx0 + tile_blocks, blocks_x), by0,
                std::min(by0 + tile_blocks, blocks_y)};
    }

    /** Give the sub-images back to the thread's surface cache as they are
     *  (their next taker resets them). */
    void
    releaseSubs()
    {
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
            ctx.submitPartitioned(
                cmd.id,
                ctx.renderPartitioned(cmd, GeometryCharging::Duplicated), t);
            t += ctx.cfg.timing.driver_issue_cycles;
        }
    }

    /**
     * Distributed execution of one group (Fig. 7, right branch): spread
     * the draws over the GPUs, render one sub-image per GPU, compose.
     *
     *  1. Assign the draws in draw order, submitting each one's geometry
     *     half at its issue time. Opaque draws go where sched.schedule()
     *     says; it reads only geometry progress, so it sees what it would
     *     see if each earlier draw had been submitted whole. Transparent
     *     draws take contiguous equal-triangle chunks, which preserve the
     *     input order: GPU g renders draws strictly earlier than GPU g+1.
     *  2. Render the group (renderGroup()), or while replaying take the
     *     next logged group, whose assignment must equal this one.
     *  3. In draw order, add each draw's stats to the totals and submit
     *     its back end, which claims the same stage times and emits the
     *     same spans as submitDraw().
     *  4. Time the composition from each GPU's readiness, flag the tiles
     *     the merge writes dirty, then merge the sub-images into the
     *     render target.
     *
     * @return false when a replay's assignment differs from the log's;
     *         the run is then void.
     */
    bool
    runDistributed(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        bool transparent = group.transparent();

        Tick group_start = t;
        std::uint32_t count = group.drawCount();
        std::vector<GpuId> &assignment = current.assignment;
        assignment.assign(count, 0);
        std::uint64_t chunk_share =
            std::max<std::uint64_t>(1, group.triangles / n);
        std::uint64_t acc = 0;
        GpuId chunk = 0;
        for (std::uint32_t k = 0; k < count; ++k) {
            const DrawCommand &cmd = ctx.trace.draws[group.first_draw + k];
            std::uint64_t tris = cmd.triangleCount();
            GpuId g = transparent ? chunk : sched.schedule(tris, t);
            if (transparent) {
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

        const LoggedGroup *functional = &current;
        if (ctx.replaying) {
            CHOPIN_CHECK(replay_group < ctx.log->groups.size(),
                         "a replay reached more distributed groups than "
                         "the log holds");
            functional = &ctx.log->groups[replay_group++];
            if (functional->assignment != assignment)
                return false;
        } else {
            renderGroup(group);
        }

        const PayloadRows &rows =
            functional->payload[static_cast<std::size_t>(
                ctx.cfg.comp_payload)];
        CompositionJob job;
        job.num_gpus = n;
        job.screen_pixels = static_cast<std::uint64_t>(ctx.vp.width) *
                            static_cast<std::uint64_t>(ctx.vp.height);
        job.ready.resize(n);
        job.pair_pixels = rows.pair_pixels;
        job.self_pixels = rows.self_pixels;
        job.subimage_pixels = rows.subimage_pixels;

        for (std::uint32_t k = 0; k < count; ++k) {
            const DrawStats &stats = functional->draw_stats[k];
            ctx.totals += stats;
            ctx.pipes[functional->assignment[k]].submitBackEnd(
                ctx.applyCullRetention(stats));
        }
        for (unsigned g = 0; g < n; ++g)
            job.ready[g] = std::max(group_start, ctx.pipes[g].finishTime());
        Tick max_ready =
            *std::max_element(job.ready.begin(), job.ready.end());

        // Asynchronous adjacent (tree) composition of transparent groups
        // is part of base CHOPIN (Section III-B): associativity lets
        // adjacent sub-images merge as soon as both are available, with or
        // without the composition scheduler. The left-fold chain remains
        // in the library as the serial-sink reference baseline.
        CompositionTiming timing;
        if (transparent)
            timing = composeTransparentTree(job, ctx.net, ctx.cfg.timing);
        else if (opts.comp_scheduler)
            timing = composeOpaqueScheduled(job, ctx.net, ctx.cfg.timing);
        else
            timing = composeOpaqueDirectSend(job, ctx.net, ctx.cfg.timing);
        if (timing.end > max_ready) {
            ctx.breakdown.composition += timing.end - max_ready;
            if (ctx.tracer != nullptr)
                ctx.tracer->span(ctx.phase_track, "chopin",
                                 transparent ? "compose transparent"
                                             : "compose opaque",
                                 max_ready, timing.end,
                                 {{"pair_pixels", job.pairPixels()}});
        }
        t = std::max(t, timing.end);

        std::vector<std::uint8_t> &dirty = ctx.rt_dirty[group.render_target];
        for (std::uint32_t tile : functional->merged_tiles)
            dirty[tile] = 1;
        if (ctx.replaying)
            return true;
        if (transparent)
            foldTransparent(group);
        else
            selectOpaque(group);
        if (ctx.log != nullptr)
            ctx.log->groups.push_back(current);
        return true;
    }

    /**
     * The functional half of a distributed group, on one pool worker per
     * GPU: reset the GPU's sub-image to the group's clear value, render
     * the GPU's draws (per current.assignment) into it in draw order, and
     * count its composition payload. Every GPU resets, drawn to or not,
     * because the merges read every GPU's masks. The work is purely
     * functional: it touches neither the scheduler nor the pipes. Fills
     * current's draw stats, payload rows and merged tiles: the tiles in
     * which any sub-image holds a written pixel.
     */
    void
    renderGroup(const CompositionGroup &group)
    {
        LoggedGroup &out = current;
        unsigned n = ctx.cfg.num_gpus;
        bool transparent = group.transparent();
        // Opaque sub-images clear to depth 0 under a depth test that
        // prefers larger values (reversed Z); transparent ones clear to the
        // blend operator's identity.
        Color clear_color =
            transparent ? transparentIdentity(group.blend_op) : Color();
        float clear_z = (!transparent && group.depth_test &&
                         !prefersSmaller(group.depth_func))
                            ? 0.0f
                            : 1.0f;

        std::uint32_t count = group.drawCount();
        out.draw_stats.assign(count, DrawStats{});
        for (PayloadRows &rows : out.payload) {
            rows.pair_pixels.assign(static_cast<std::size_t>(n) * n, 0);
            rows.self_pixels.assign(n, 0);
            rows.subimage_pixels.assign(n, 0);
        }
        std::size_t tiles = static_cast<std::size_t>(ctx.grid.tileCount());
        touched.assign(n * tiles, 0);
        // Worker g writes only subs[g], the stats slots of its own draws,
        // row g of every payload mode and row g of touched. ctx is aliased
        // only for the immutable cfg/grid/trace/viewport inputs; workers
        // never reach ctx.tracer.
        globalPool().parallelFor(n, [&](std::size_t gi) {
            unsigned g = static_cast<unsigned>(gi);
            subs[g].reset(clear_color, clear_z);
            for (std::uint32_t k = 0; k < count; ++k) {
                if (out.assignment[k] != g)
                    continue;
                const DrawCommand &cmd =
                    ctx.trace.draws[group.first_draw + k];
                out.draw_stats[k] =
                    renderDraw(subs[g], ctx.vp, ctx.drawInput(cmd));
            }
            countPayload(g, out.payload, &touched[g * tiles]);
        });

        out.merged_tiles.clear();
        for (std::size_t tile = 0; tile < tiles; ++tile)
            for (unsigned g = 0; g < n; ++g)
                if (touched[g * tiles + tile]) {
                    out.merged_tiles.push_back(
                        static_cast<std::uint32_t>(tile));
                    break;
                }
    }

    /**
     * Count GPU @p g's composition payload into row g of @p payload under
     * every CompPayload mode, and flag in @p written the tiles in which
     * its sub-image holds a written pixel. Untouched 64x64 tiles are
     * filtered out entirely (Section VI-C: "we also filter out the screen
     * tiles that are not rendered by any draw command"); within a touched
     * tile the payload moves at DMA-burst granularity by default — any
     * 8x8 sub-tile containing a written pixel is transferred whole. This
     * sits between idealized per-pixel masking and naive whole-tile
     * transfers, matching how ROPs move compressed tile storage. The
     * sub-tiles are the sub-images' 8x8 written-mask blocks, so every count
     * comes from the masks.
     */
    void
    countPayload(unsigned g,
                 std::array<PayloadRows, compPayloadModes> &payload,
                 std::uint8_t *written) const
    {
        unsigned n = ctx.cfg.num_gpus;
        int width = ctx.vp.width;
        int height = ctx.vp.height;
        const Surface &sub = subs[g];
        for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
            TileBlocks tb = blocksOf(tile);
            std::array<std::uint64_t, compPayloadModes> px{};
            bool any = false;
            for (int by = tb.by0; by < tb.by1; ++by) {
                for (int bx = tb.bx0; bx < tb.bx1; ++bx) {
                    std::uint64_t mask =
                        sub.blockMask(by * sub.blocksX() + bx);
                    if (mask == 0)
                        continue;
                    any = true;
                    int x0 = bx * Surface::blockEdge;
                    int y0 = by * Surface::blockEdge;
                    px[static_cast<std::size_t>(
                        CompPayload::WrittenPixels)] +=
                        static_cast<std::uint64_t>(std::popcount(mask));
                    px[static_cast<std::size_t>(CompPayload::SubTiles)] +=
                        static_cast<std::uint64_t>(
                            std::min(Surface::blockEdge, width - x0)) *
                        static_cast<std::uint64_t>(
                            std::min(Surface::blockEdge, height - y0));
                }
            }
            if (!any)
                continue;
            written[tile] = 1;
            px[static_cast<std::size_t>(CompPayload::FullTiles)] =
                static_cast<std::uint64_t>(ctx.grid.pixelsInTile(tile));
            GpuId owner = ctx.grid.ownerOfTile(tile % ctx.grid.tilesX(),
                                               tile / ctx.grid.tilesX());
            for (std::size_t m = 0; m < compPayloadModes; ++m) {
                PayloadRows &rows = payload[m];
                rows.subimage_pixels[g] += px[m];
                if (owner == g)
                    rows.self_pixels[g] += px[m];
                else
                    rows.pair_pixels[static_cast<std::size_t>(g) * n +
                                     owner] += px[m];
            }
        }
    }

    /**
     * Functional composition of an opaque group: out-of-order per-pixel
     * selection. The order of sub-images is irrelevant (opaqueWins is a
     * total order). Parallel over tiles, walking each GPU's written bits in
     * ascending GPU order: tiles are disjoint pixel sets (and, with tile
     * sizes a multiple of 8, disjoint mask words of the target), and each
     * pixel still folds the sub-images in ascending GPU order, so the
     * result is schedule-invariant.
     */
    void
    selectOpaque(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        DepthFunc eff_func =
            group.depth_test ? group.depth_func : DepthFunc::Always;
        Surface &target = ctx.rts[group.render_target];
        bool write_depth = group.depth_test && group.depth_write;
        globalPool().parallelFor(
            static_cast<std::size_t>(ctx.grid.tileCount()),
            // ctx is aliased only for grid geometry reads here; the tile
            // workers never reach ctx.tracer.
            [&](std::size_t tile_index) {
                int tile = static_cast<int>(tile_index);
                TileBlocks tb = blocksOf(tile);
                for (unsigned g = 0; g < n; ++g) {
                    const Surface &sub = subs[g];
                    for (int by = tb.by0; by < tb.by1; ++by) {
                        for (int bx = tb.bx0; bx < tb.bx1; ++bx) {
                            std::uint64_t mask =
                                sub.blockMask(by * sub.blocksX() + bx);
                            if (mask == 0)
                                continue;
                            forEachWritten(mask, bx, by, [&](int x, int y,
                                                             int) {
                                OpaquePixel in{sub.color().at(x, y),
                                               sub.depthAt(x, y),
                                               sub.writerAt(x, y)};
                                OpaquePixel cur{target.color().at(x, y),
                                                target.depthAt(x, y),
                                                target.writerAt(x, y)};
                                if (opaqueWins(eff_func, in, cur))
                                    target.storeOpaque(x, y, in.color,
                                                       in.depth, in.writer,
                                                       write_depth);
                            });
                        }
                    }
                }
            });
    }

    /**
     * Functional composition of a transparent group: fold the sub-images
     * front (highest GPU id = latest draws) to back, then apply over the
     * background. Tile-parallel over the union of the GPUs' written bits:
     * the fold is per-pixel (front-to-back over the sub-images) and tiles
     * are disjoint, so each tile merges independently with bit-identical
     * float sequences.
     */
    void
    foldTransparent(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        BlendOp op = group.blend_op;
        Surface &target = ctx.rts[group.render_target];
        const Color identity = transparentIdentity(op);
        globalPool().parallelFor(
            static_cast<std::size_t>(ctx.grid.tileCount()),
            [&](std::size_t tile_index) {
                int tile = static_cast<int>(tile_index);
                TileBlocks tb = blocksOf(tile);
                // One block's mask per GPU.
                std::array<std::uint64_t, maxGpus> masks{};
                for (int by = tb.by0; by < tb.by1; ++by) {
                    for (int bx = tb.bx0; bx < tb.bx1; ++bx) {
                        int b = by * subs.front().blocksX() + bx;
                        std::uint64_t any = 0;
                        for (unsigned g = 0; g < n; ++g) {
                            masks[g] = subs[g].blockMask(b);
                            any |= masks[g];
                        }
                        if (any == 0)
                            continue;
                        forEachWritten(any, bx, by, [&](int x, int y,
                                                        int bit) {
                            Color merged = identity;
                            for (int g = static_cast<int>(n) - 1; g >= 0;
                                 --g)
                                if ((masks[g] >> bit) & 1U)
                                    merged = mergeTransparent(
                                        op, merged, subs[g].color().at(x, y));
                            target.storeBlended(
                                x, y,
                                finalizeTransparent(op, merged,
                                                    target.color().at(x, y)));
                        });
                    }
                }
            });
    }
};

/**
 * One CHOPIN pass over the frame, recording into or replaying from @p log
 * when one is given. A replay returns nullopt on the first distributed
 * group whose assignment differs from the log's.
 */
std::optional<FrameResult>
chopinPass(const SystemConfig &cfg, const FrameTrace &trace,
           const ChopinOptions &opts, Tracer *tracer, Image *image,
           FunctionalLog *log)
{
    SimContext ctx(cfg, trace, opts.ideal ? LinkParams::ideal() : cfg.link,
                   tracer, log);
    ChopinRun run(ctx, opts);

    std::vector<CompositionGroup> groups = formGroups(trace);
    std::uint64_t groups_distributed = 0;
    std::uint64_t tris_distributed = 0;

    for (const CompositionGroup &group : groups) {
        run.t = ctx.bind(group.render_target, group.depth_buffer, run.t);
        if (!groupDistributable(group, cfg.group_threshold)) {
            run.runDuplicated(group);
            continue;
        }
        groups_distributed += 1;
        tris_distributed += group.triangles;
        if (!run.runDistributed(group))
            return std::nullopt;
    }
    CHOPIN_CHECK(!ctx.replaying || run.replay_group == log->groups.size(),
                 "a replay consumed ", run.replay_group, " of ",
                 log->groups.size(), " logged groups");

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

} // namespace

FrameResult
runChopin(const SystemConfig &cfg, const FrameTrace &trace,
          const ChopinOptions &opts, Tracer *tracer, Image *image,
          FunctionalLog *log)
{
    if (log != nullptr && log->recorded) {
        if (std::optional<FrameResult> r =
                chopinPass(cfg, trace, opts, tracer, image, log))
            return std::move(*r);
        // This run schedules a group differently from the recording run,
        // so the log does not hold its sub-images: render fresh.
        log = nullptr;
    }
    return chopinPass(cfg, trace, opts, tracer, image, log).value();
}

FrameResult
runScheme(Scheme scheme, const SystemConfig &cfg, const FrameTrace &trace,
          Tracer *tracer, Image *image, FunctionalLog *log)
{
    switch (scheme) {
      case Scheme::SingleGpu:
        CHOPIN_CHECK(log == nullptr, "SingleGpu joins no functional family");
        return runSingleGpu(cfg, trace, tracer, image);
      case Scheme::Duplication:
        return runDuplication(cfg, trace, tracer, image, log);
      case Scheme::Gpupd:
        return runGpupd(cfg, trace, false, tracer, image, log);
      case Scheme::GpupdIdeal:
        return runGpupd(cfg, trace, true, tracer, image, log);
      case Scheme::ChopinRoundRobin:
        return runChopin(cfg, trace,
                         {DrawPolicy::RoundRobin, false, false}, tracer,
                         image, log);
      case Scheme::Chopin:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, false, false},
                         tracer, image, log);
      case Scheme::ChopinCompSched:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, true, false},
                         tracer, image, log);
      case Scheme::ChopinIdeal:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, true, true},
                         tracer, image, log);
    }
    CHOPIN_CHECK(false, "unknown scheme ", static_cast<int>(scheme));
}

} // namespace chopin
