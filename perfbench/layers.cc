#include "layers.hh"

#include <bit>
#include <cmath>
#include <filesystem>

#include "core/sweep.hh"
#include "gfx/raster.hh"
#include "gfx/renderer.hh"
#include "gfx/tiles.hh"
#include "gpu/pipeline.hh"
#include "net/interconnect.hh"
#include "sim/event_queue.hh"

namespace perfbench
{

using namespace chopin;

namespace
{

using Scope = SpanLog::Scope;

double
elapsedSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0);
}

/** Outcome of replaying one frame's draw list through renderDraw. */
struct Replay
{
    std::uint64_t frame_hash = 0;
    std::uint64_t content_hash = 0;
    std::vector<DrawStats> stats;    ///< per draw, in draw order
    std::vector<OpaquePixel> opaque; ///< final render target 0
};

/**
 * What runSingleGpu does functionally, call by call: allocate and clear
 * one surface per render target, renderDraw every draw in order (with the
 * same tile grid, textures and dirty-tile flags), then hash target 0.
 */
Replay
replayFrame(const FrameTrace &tr, const SystemConfig &cfg, SpanLog &log,
            bool serial, RunOutput &out, bool keep_pixels)
{
    Scope whole(log, serial ? "gfx.replay_j1" : "gfx.replay_jn");
    const Viewport vp = tr.viewport;
    TileGrid grid(vp.width, vp.height, 1, cfg.tile_size, cfg.tile_assignment);
    std::vector<Surface> rts;
    std::vector<std::vector<std::uint8_t>> dirty(
        tr.num_render_targets,
        std::vector<std::uint8_t>(static_cast<std::size_t>(grid.tileCount()),
                                  0));
    {
        Scope s(log, "gfx.surface_alloc");
        rts.reserve(tr.num_render_targets);
        for (std::uint32_t r = 0; r < tr.num_render_targets; ++r)
            rts.emplace_back(vp.width, vp.height);
    }
    {
        Scope s(log, "gfx.clear");
        for (Surface &rt : rts)
            rt.clear(tr.clear_color, tr.clear_depth);
    }
    const double px = static_cast<double>(vp.width) * vp.height;
    out.counts["gfx.surface_px"] += px * tr.num_render_targets;

    Replay r;
    r.stats.reserve(tr.draws.size());
    const char *draw_span = serial ? "gfx.render_draw_j1" : "gfx.render_draw_jn";
    for (const DrawCommand &cmd : tr.draws) {
        DrawInput in;
        in.triangles = cmd.triangles;
        in.mvp = tr.view_proj * cmd.model;
        in.state = cmd.state;
        in.draw_id = cmd.id;
        in.alpha_ref = cmd.alpha_ref;
        in.backface_cull = cmd.backface_cull;
        in.texture = cmd.texture_rt >= 0
                         ? &rts[static_cast<std::size_t>(cmd.texture_rt)].color()
                         : nullptr;
        std::uint32_t rt = cmd.state.render_target;
        Scope s(log, draw_span);
        r.stats.push_back(renderDraw(rts[rt], vp, in, RenderFilter{},
                                     &dirty[rt], &grid));
    }
    {
        Scope s(log, "gfx.frame_hash");
        r.frame_hash = frameHash(rts[0].color());
    }
    {
        Scope s(log, "gfx.content_hash");
        r.content_hash = rts[0].contentHash();
    }
    out.counts["gfx.hash_px"] += px;
    if (keep_pixels) {
        const Surface &s0 = rts[0];
        r.opaque.resize(static_cast<std::size_t>(vp.width) * vp.height);
        for (int y = 0; y < vp.height; ++y)
            for (int x = 0; x < vp.width; ++x) {
                OpaquePixel &p = r.opaque[static_cast<std::size_t>(y) *
                                              vp.width + x];
                p.color = s0.color().at(x, y);
                p.depth = s0.depthAt(x, y);
                p.writer = s0.writerAt(x, y);
            }
    }
    return r;
}

/** Geometry and raster stages alone, each call in its own span. */
void
geometryRasterProbe(const FrameTrace &tr, SpanLog &log, RunOutput &out)
{
    const Viewport vp = tr.viewport;
    const PixelRect full{0, 0, vp.width - 1, vp.height - 1};
    std::vector<ScreenTriangle> slab;
    std::uint64_t pixels = 0;
    std::uint32_t fold = 0;
    auto sink = [&](const FragmentSpan &span) {
        pixels += static_cast<std::uint32_t>(std::popcount(span.mask));
        fold ^= std::bit_cast<std::uint32_t>(span.z[0]);
    };
    for (const DrawCommand &cmd : tr.draws) {
        const Mat4 mvp = tr.view_proj * cmd.model;
        slab.resize(2 * cmd.triangles.size() + 2);
        std::size_t count = 0;
        DrawStats st;
        {
            Scope s(log, "gfx.geometry");
            for (const Triangle &t : cmd.triangles)
                processPrimitive(t, mvp, vp, cmd.backface_cull, slab.data(),
                                 count, st);
        }
        out.counts["gfx.geometry_tris"] +=
            static_cast<double>(cmd.triangles.size());
        Scope s(log, "gfx.raster");
        for (std::size_t i = 0; i < count; ++i)
            rasterizeTriangleInRect(slab[i], vp, full, sink);
    }
    out.counts["gfx.raster_px"] += static_cast<double>(pixels);
    // Keeps the interpolated lanes observable, so they are computed.
    out.counts["gfx.raster_fold"] = static_cast<double>(fold & 1u);
}

/** Replay the recorded per-draw stats through one GPU's timing model. */
void
gpuProbe(const FrameTrace &tr, const SystemConfig &cfg,
         const std::vector<DrawStats> &stats, Tick expected_cycles,
         SpanLog &log, RunOutput &out)
{
    constexpr int reps = 5;
    for (int rep = 0; rep < reps; ++rep) {
        GpuPipeline pipe(cfg.timing);
        Tick t = 0;
        {
            Scope s(log, "gpu.submit");
            for (std::size_t i = 0; i < stats.size(); ++i) {
                pipe.submitDraw(tr.draws[i].id, stats[i], t);
                t += cfg.timing.driver_issue_cycles;
            }
        }
        out.counts["gpu.draws_submitted"] += static_cast<double>(stats.size());
        if (rep == 0)
            out.checks.expect(pipe.finishTime() == expected_cycles,
                              tr.name + ": timing replay cycles differ from "
                                        "SingleGpu");
    }
}

void
eventProbe(SpanLog &log, RunOutput &out)
{
    constexpr int events = 1 << 16;
    for (int rep = 0; rep < 3; ++rep) {
        EventQueue eq;
        eq.reserve(events);
        std::uint64_t sum = 0;
        {
            Scope s(log, "sim.events");
            for (int i = 0; i < events; ++i)
                eq.schedule(static_cast<Tick>(i % 1024),
                            [&sum, i] { sum += static_cast<unsigned>(i); });
            eq.run();
        }
        out.counts["sim.events"] += events;
        out.checks.expect(sum == std::uint64_t(events) * (events - 1) / 2,
                          "event queue dropped events");
    }
}

/** All-pairs transfers of one GPU's share of a full-screen sub-image. */
void
netProbe(const FrameTrace &tr, const SystemConfig &cfg, SpanLog &log,
         RunOutput &out)
{
    const unsigned n = cfg.num_gpus;
    const Bytes bytes = static_cast<Bytes>(tr.viewport.width) *
                        static_cast<Bytes>(tr.viewport.height) * 8 / n;
    constexpr int rounds = 200;
    Interconnect net(n, cfg.link);
    Tick now = 0;
    std::uint64_t transfers = 0;
    {
        Scope s(log, "net.transfer");
        for (int r = 0; r < rounds; ++r) {
            for (GpuId src = 0; src < n; ++src)
                for (GpuId dst = 0; dst < n; ++dst)
                    if (src != dst) {
                        now = std::max(now, net.transfer(src, dst, bytes, now,
                                                         TrafficClass::Composition));
                        ++transfers;
                    }
        }
    }
    out.counts["net.transfers"] += static_cast<double>(transfers);
    out.checks.expect(net.traffic().messages == transfers,
                      "interconnect message count");
}

/** Composition operators over pixel pairs (row y against row y+1). */
void
compProbe(const Replay &rp, int width, SpanLog &log, RunOutput &out)
{
    const std::size_t n = rp.opaque.size();
    const std::size_t w = static_cast<std::size_t>(width);
    if (n <= w)
        return;
    const std::size_t pairs = n - w;
    std::vector<OpaquePixel> composed(pairs);
    std::vector<Color> merged(pairs);
    for (int rep = 0; rep < 3; ++rep) {
        {
            Scope s(log, "comp.opaque");
            for (std::size_t i = 0; i < pairs; ++i)
                composed[i] = composeOpaque(DepthFunc::LessEqual, rp.opaque[i],
                                            rp.opaque[i + w]);
        }
        {
            Scope s(log, "comp.transparent");
            for (std::size_t i = 0; i < pairs; ++i)
                merged[i] = mergeTransparent(BlendOp::Over, rp.opaque[i].color,
                                             rp.opaque[i + w].color);
        }
        out.counts["comp.px"] += static_cast<double>(pairs);
    }
    // Keep both outputs observable.
    double sink = 0.0;
    for (std::size_t i = 0; i < pairs; i += 997)
        sink += composed[i].depth + merged[i].a;
    out.counts["comp.sink"] = std::isfinite(sink) ? 1.0 : 0.0;
}

/** The sweep engine on a small grid: cold store then warm reload. */
void
miniSweep(const RunConfig &rc, const TourInputs &in, SpanLog &log,
          RunOutput &out)
{
    const std::string dir = rc.work_dir + "/tour_cache";
    std::filesystem::remove_all(dir);
    std::vector<Scenario> grid;
    const std::size_t nb = std::min<std::size_t>(2, in.sweep_benches.size());
    for (Scheme s : {Scheme::Duplication, Scheme::Gpupd, Scheme::Chopin,
                     Scheme::ChopinCompSched})
        for (std::size_t b = 0; b < nb; ++b)
            grid.push_back(Scenario{s, in.sweep_benches[b], in.cfg});

    SweepOptions opts;
    opts.sweep_jobs = rc.jobs;
    opts.scale = in.scale;
    opts.cache_dir = dir;
    std::vector<FrameAccounting> cold;
    {
        SweepRunner runner(opts);
        double rss0 = currentRssKb();
        {
            Scope s(log, "core.cold_point");
            runner.prefetch(grid);
        }
        SweepStats st = runner.stats();
        out.counts["core.computed"] += static_cast<double>(st.computed);
        out.counts["core.memo_hits"] += static_cast<double>(st.memo_hits);
        out.counts["core.rss_growth_kb"] += currentRssKb() - rss0;
        for (const Scenario &s : grid)
            cold.push_back(runner.run(s));
    }
    SweepRunner warm(opts);
    {
        Scope s(log, "core.warm_point");
        warm.prefetch(grid);
    }
    SweepStats st = warm.stats();
    out.counts["core.disk_hits"] += static_cast<double>(st.disk_hits);
    out.counts["core.disk_rejected"] += static_cast<double>(st.disk_rejected);
    out.counts["core.memo_hits"] += static_cast<double>(st.memo_hits);
    out.counts["core.warm_lookups"] += static_cast<double>(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const FrameAccounting &w = warm.run(grid[i]);
        out.checks.expect(metricsEqual(w, cold[i]),
                          "tour sweep: warm result differs from cold");
    }
    std::filesystem::remove_all(dir);
}

/** Scenario parallelism alone: serial runner vs a jobs-wide runner. */
void
subGridSpeedup(const RunConfig &rc, const TourInputs &in, SpanLog &log,
               RunOutput &out)
{
    std::vector<Scenario> grid;
    const std::size_t nb = std::min<std::size_t>(4, in.sweep_benches.size());
    for (Scheme s : {Scheme::Duplication, Scheme::ChopinCompSched})
        for (std::size_t b = 0; b < nb; ++b)
            grid.push_back(Scenario{s, in.sweep_benches[b], in.cfg});
    std::vector<FrameAccounting> serial;
    {
        setGlobalJobs(1);
        SweepOptions opts;
        opts.sweep_jobs = 1;
        opts.scale = in.scale;
        SweepRunner runner(opts);
        {
            Scope s(log, "core.subgrid_j1");
            runner.prefetch(grid);
        }
        for (const Scenario &s : grid)
            serial.push_back(runner.run(s));
        setGlobalJobs(rc.jobs);
    }
    SweepOptions opts;
    opts.sweep_jobs = rc.jobs;
    opts.scale = in.scale;
    SweepRunner runner(opts);
    {
        Scope s(log, "core.subgrid_jn");
        runner.prefetch(grid);
    }
    for (std::size_t i = 0; i < grid.size(); ++i)
        out.checks.expect(metricsEqual<FrameAccounting>(runner.run(grid[i]),
                                                        serial[i]),
                          "sweep results differ between sweep_jobs 1 and N");
}

void
parallelForProbe(const RunConfig &rc, SpanLog &log, RunOutput &out)
{
    constexpr int calls = 4000;
    ThreadPool &pool = globalPool();
    const std::size_t n = static_cast<std::size_t>(rc.jobs) * 4;
    {
        Scope s(log, "util.parallel_for");
        for (int i = 0; i < calls; ++i)
            pool.parallelFor(n, 1, [](std::size_t, std::size_t) {});
    }
    out.counts["util.parallel_for_calls"] += calls;
}

} // namespace

const std::vector<Scheme> &
frameSchemes()
{
    static const std::vector<Scheme> schemes{
        Scheme::SingleGpu, Scheme::Duplication, Scheme::Gpupd,
        Scheme::Chopin, Scheme::ChopinCompSched};
    return schemes;
}

const char *
schemeSpan(Scheme s)
{
    switch (s) {
      case Scheme::SingleGpu: return "sfr.run.single";
      case Scheme::Duplication: return "sfr.run.dup";
      case Scheme::Gpupd: return "sfr.run.gpupd";
      case Scheme::Chopin: return "sfr.run.chopin";
      case Scheme::ChopinCompSched: return "sfr.run.chopin_cs";
      default: return "sfr.run.other";
    }
}

const std::vector<SequenceScheme> &
sequenceModes()
{
    static const std::vector<SequenceScheme> modes{
        SequenceScheme::PureSfr, SequenceScheme::PureAfr,
        SequenceScheme::HybridAfrSfr};
    return modes;
}

const char *
sequenceSpan(SequenceScheme m)
{
    switch (m) {
      case SequenceScheme::PureSfr: return "sfr.seq.pure_sfr";
      case SequenceScheme::PureAfr: return "sfr.seq.pure_afr";
      case SequenceScheme::HybridAfrSfr: return "sfr.seq.hybrid";
    }
    return "sfr.seq.other";
}

SequenceOptions
sequenceOptions(SequenceScheme m)
{
    SequenceOptions opt;
    opt.scheme = m;
    opt.intra_scheme = Scheme::ChopinCompSched;
    opt.afr_groups = 2;
    return opt;
}

double
paperGapPct(const std::map<SimKey, FrameAccounting> &refs, double *gmean_out)
{
    double log_sum = 0.0;
    int n = 0;
    for (const auto &[key, dup] : refs) {
        if (key.second != Scheme::Duplication)
            continue;
        auto cs = refs.find({key.first, Scheme::ChopinCompSched});
        if (cs == refs.end() || cs->second.cycles == 0)
            continue;
        log_sum += std::log(static_cast<double>(dup.cycles) /
                            static_cast<double>(cs->second.cycles));
        ++n;
    }
    double g = n == 0 ? 0.0 : std::exp(log_sum / n);
    if (gmean_out != nullptr)
        *gmean_out = g;
    return std::fabs(g - paperSpeedup) / paperSpeedup * 100.0;
}

void
runLayerTour(const RunConfig &rc, TourInputs &in, SpanLog &log,
             RunOutput &out)
{
    setGlobalJobs(rc.jobs);

    // trace: materialize every frame of every sequence into one scratch.
    for (const SequenceTrace *seq : in.seqs) {
        for (int rep = 0; rep < 3; ++rep) {
            FrameTrace scratch;
            seq->materializeFrame(0, scratch); // first call copies the base
            for (std::size_t k = 0; k < seq->frameCount(); ++k) {
                Scope s(log, "trace.materialize");
                seq->materializeFrame(k, scratch);
            }
        }
    }

    // sfr: every scheme on every input, at the run's job count where the
    // workload has not already done so, then serially (the jobs-1 leg must
    // reproduce every registered metric). core: each serial result goes
    // straight into a ResultCache, so only its accounting stays in memory.
    const std::string entries = rc.work_dir + "/tour_entries";
    std::filesystem::remove_all(entries);
    ResultCache cache(entries, resultCacheVersion());
    std::vector<FrameAccounting> stored;
    for (std::size_t i = 0; i < in.frames.size(); ++i) {
        const FrameTrace &tr = *in.frames[i];
        for (Scheme s : frameSchemes()) {
            if (in.refs.count({i, s}) != 0)
                continue;
            log.nextOp();
            Scope sp(log, schemeSpan(s));
            in.refs[{i, s}] = runScheme(s, in.cfg, tr);
        }
        const std::uint64_t ref_hash = in.refs[{i, Scheme::SingleGpu}].frame_hash;
        setGlobalJobs(1);
        for (Scheme s : frameSchemes()) {
            log.nextOp();
            std::int64_t t0 = nowNs();
            FrameResult r;
            {
                Scope sp(log, "sfr.run_j1");
                r = runScheme(s, in.cfg, tr);
            }
            out.counts["sfr.j1_host_ns"] += elapsedSince(t0);
            out.counts["sfr.j1_sim_cycles"] += static_cast<double>(r.cycles);
            out.checks.expect(metricsEqual<FrameAccounting>(r, in.refs[{i, s}]),
                              tr.name + "/" + toString(s) +
                                  ": jobs-1 metrics differ from jobs-N");
            out.checks.expect(r.frame_hash == ref_hash,
                              tr.name + "/" + toString(s) +
                                  ": frame hash differs from SingleGpu");
            {
                Scope sp(log, "core.cache_store");
                out.checks.expect(cache.store(stored.size() + 1, r),
                                  "cache store");
            }
            stored.push_back(r);
        }
        setGlobalJobs(rc.jobs);
        std::vector<CompositionGroup> groups;
        for (int rep = 0; rep < 10; ++rep) {
            Scope s(log, "sfr.formgroups");
            groups = formGroups(tr);
        }
        out.checks.expect(!groups.empty(), tr.name + ": no composition groups");
    }

    // Counts from the jobs-N results.
    for (const auto &[key, r] : in.refs) {
        if (key.second == Scheme::SingleGpu) {
            out.counts["gfx.tris_rasterized"] +=
                static_cast<double>(r.totals.tris_rasterized);
            out.counts["gfx.frags_generated"] +=
                static_cast<double>(r.totals.frags_generated);
            out.counts["gfx.frags_written"] +=
                static_cast<double>(r.totals.frags_written);
            out.counts["gfx.frags_early_fail"] +=
                static_cast<double>(r.totals.frags_early_fail);
            continue;
        }
        out.counts["net.bytes_total"] += static_cast<double>(r.traffic.total);
        out.counts["net.comp_bytes"] += static_cast<double>(
            r.traffic.ofClass(TrafficClass::Composition));
        out.counts["net.messages"] += static_cast<double>(r.traffic.messages);
        if (key.second == Scheme::ChopinCompSched) {
            out.counts["sfr.groups_distributed"] +=
                static_cast<double>(r.groups_distributed);
            out.counts["sfr.tris_distributed"] +=
                static_cast<double>(r.tris_distributed);
        }
    }
    out.counts["sfr.paper_gap_pct"] = paperGapPct(in.refs);

    // gfx replay at jobs 1 and N, stage probes, timing model, composition.
    for (std::size_t i = 0; i < in.frames.size(); ++i) {
        const FrameTrace &tr = *in.frames[i];
        const FrameAccounting &single = in.refs[{i, Scheme::SingleGpu}];
        setGlobalJobs(1);
        Replay serial = replayFrame(tr, in.cfg, log, true, out, i == 0);
        setGlobalJobs(rc.jobs);
        Replay parallel = replayFrame(tr, in.cfg, log, false, out, false);
        DrawStats sum;
        for (const DrawStats &st : serial.stats)
            sum += st;
        out.counts["gfx.replay_frags"] += static_cast<double>(sum.frags_generated);
        out.checks.expect(serial.content_hash == single.content_hash &&
                              serial.frame_hash == single.frame_hash,
                          tr.name + ": gfx replay differs from SingleGpu");
        out.checks.expect(parallel.content_hash == serial.content_hash,
                          tr.name + ": gfx replay differs across jobs");
        geometryRasterProbe(tr, log, out);
        gpuProbe(tr, in.cfg, serial.stats, single.cycles, log, out);
        if (i == 0)
            compProbe(serial, tr.viewport.width, log, out);
    }
    if (!in.frames.empty())
        netProbe(*in.frames.front(), in.cfg, log, out);
    eventProbe(log, out);

    // sfr streams where the workload does not run them itself.
    if (in.run_sequences) {
        for (const SequenceTrace *seq : in.seqs)
            for (SequenceScheme m : sequenceModes()) {
                log.nextOp();
                SequenceResult r;
                {
                    Scope s(log, sequenceSpan(m));
                    r = runSequence(sequenceOptions(m), in.cfg, *seq);
                }
                out.checks.expect(r.frames.size() == seq->frameCount(),
                                  "tour stream: frame count");
            }
    }

    // core: reload every stored entry, then the sweep-engine probes.
    out.counts["core.cache_entry_kb"] =
        stored.empty() ? 0.0
                       : static_cast<double>(dirBytes(entries)) / 1024.0 /
                             static_cast<double>(stored.size());
    for (std::size_t k = 0; k < stored.size(); ++k) {
        FrameResult back;
        CacheLoad outcome;
        {
            Scope s(log, "core.cache_load");
            outcome = cache.load(k + 1, back);
        }
        out.checks.expect(outcome == CacheLoad::Hit &&
                              metricsEqual<FrameAccounting>(back, stored[k]),
                          "cache load round trip");
    }
    std::filesystem::remove_all(entries);
    if (in.run_mini_sweep)
        miniSweep(rc, in, log, out);
    subGridSpeedup(rc, in, log, out);
    parallelForProbe(rc, log, out);
}

void
assembleLayers(const SpanLog &log, RunOutput &out)
{
    auto count = [&](const std::string &k) {
        auto it = out.counts.find(k);
        return it == out.counts.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    auto medMs = [&](const char *span) { return median(log.durations(span)) / 1e6; };
    std::vector<Metric> &m = out.per_layer;
    auto add = [&](const char *name, const char *unit, double v) {
        m.push_back({name, unit, v});
    };

    const double render_j1 = log.total("gfx.render_draw_j1");
    const double render_jn = log.total("gfx.render_draw_jn");
    const double geom = log.total("gfx.geometry");
    const double raster = log.total("gfx.raster");
    const double frags = count("gfx.replay_frags");
    const double surface_px = count("gfx.surface_px");
    const double hash_px = count("gfx.hash_px");

    add("trace.generate_ms", "ms", medMs("trace.generate"));
    add("trace.materialize_us", "us", medMs("trace.materialize") * 1e3);

    add("gfx.geometry_ns_per_tri", "ns", ratio(geom, count("gfx.geometry_tris")));
    add("gfx.raster_ns_per_px", "ns", ratio(raster, count("gfx.raster_px")));
    add("gfx.render_ns_per_frag", "ns", ratio(render_j1, frags));
    add("gfx.apply_bin_ns_per_frag", "ns",
        ratio(render_j1 - geom - raster, frags));
    add("gfx.replay_frags", "count", frags);
    add("gfx.render_parallel_speedup", "x", ratio(render_j1, render_jn));
    add("gfx.render_j1_ms", "ms", render_j1 / 1e6);
    add("gfx.surface_alloc_ns_per_px", "ns",
        ratio(log.total("gfx.surface_alloc"), surface_px));
    add("gfx.clear_ns_per_px", "ns", ratio(log.total("gfx.clear"), surface_px));
    add("gfx.surface_px", "count", surface_px);
    add("gfx.frame_hash_ns_per_px", "ns",
        ratio(log.total("gfx.frame_hash"), hash_px));
    add("gfx.content_hash_ns_per_px", "ns",
        ratio(log.total("gfx.content_hash"), hash_px));
    add("gfx.hash_px", "count", hash_px);
    add("gfx.tris_rasterized", "count", count("gfx.tris_rasterized"));
    add("gfx.frags_generated", "count", count("gfx.frags_generated"));
    add("gfx.frags_written", "count", count("gfx.frags_written"));
    add("gfx.early_z_cull_ratio", "ratio",
        ratio(count("gfx.frags_early_fail"), count("gfx.frags_generated")));

    add("gpu.submit_ns_per_draw", "ns",
        ratio(log.total("gpu.submit"), count("gpu.draws_submitted")));
    add("gpu.draws_submitted", "count", count("gpu.draws_submitted"));

    add("sim.event_ns", "ns", ratio(log.total("sim.events"), count("sim.events")));
    add("sim.events", "count", count("sim.events"));

    add("net.transfer_ns", "ns",
        ratio(log.total("net.transfer"), count("net.transfers")));
    add("net.transfers", "count", count("net.transfers"));
    add("net.bytes_total", "bytes", count("net.bytes_total"));
    add("net.comp_bytes", "bytes", count("net.comp_bytes"));
    add("net.messages", "count", count("net.messages"));

    add("comp.opaque_ns_per_px", "ns",
        ratio(log.total("comp.opaque"), count("comp.px")));
    add("comp.transparent_ns_per_px", "ns",
        ratio(log.total("comp.transparent"), count("comp.px")));
    add("comp.px", "count", count("comp.px"));

    const double single_ms = medMs("sfr.run.single");
    const double chopin_ms = medMs("sfr.run.chopin");
    add("sfr.single_ms", "ms", single_ms);
    add("sfr.dup_ms", "ms", medMs("sfr.run.dup"));
    add("sfr.gpupd_ms", "ms", medMs("sfr.run.gpupd"));
    add("sfr.chopin_ms", "ms", chopin_ms);
    add("sfr.chopin_cs_ms", "ms", medMs("sfr.run.chopin_cs"));
    add("sfr.chopin_over_single", "x", ratio(chopin_ms, single_ms));
    add("sfr.formgroups_us", "us", medMs("sfr.formgroups") * 1e3);
    add("sfr.groups_distributed", "count", count("sfr.groups_distributed"));
    add("sfr.tris_distributed", "count", count("sfr.tris_distributed"));
    add("sfr.host_ns_per_sim_cycle", "ns",
        ratio(count("sfr.j1_host_ns"), count("sfr.j1_sim_cycles")));
    add("sfr.sim_cycles_j1", "cycles", count("sfr.j1_sim_cycles"));
    add("sfr.seq_pure_sfr_ms", "ms", medMs("sfr.seq.pure_sfr"));
    add("sfr.seq_pure_afr_ms", "ms", medMs("sfr.seq.pure_afr"));
    add("sfr.seq_hybrid_ms", "ms", medMs("sfr.seq.hybrid"));
    add("sfr.paper_gap_pct", "%", count("sfr.paper_gap_pct"));

    const double computed = count("core.computed");
    const double cold_ns = log.total("core.cold_point");
    const double warm_ns = log.total("core.warm_point");
    add("core.cache_store_ms", "ms", medMs("core.cache_store"));
    add("core.cache_load_ms", "ms", medMs("core.cache_load"));
    add("core.cache_entry_kb", "KB", count("core.cache_entry_kb"));
    add("core.result_kb", "KB", ratio(count("core.rss_growth_kb"), computed));
    add("core.computed", "count", computed);
    add("core.memo_hits", "count", count("core.memo_hits"));
    add("core.disk_hits", "count", count("core.disk_hits"));
    add("core.disk_rejected", "count", count("core.disk_rejected"));
    add("core.warm_lookups", "count", count("core.warm_lookups"));
    add("core.warm_hit_ratio", "ratio",
        ratio(count("core.disk_hits"), count("core.warm_lookups")));
    add("core.cold_scen_per_s", "1/s", ratio(computed * 1e9, cold_ns));
    add("core.warm_scen_per_s", "1/s",
        ratio(count("core.warm_lookups") * 1e9, warm_ns));
    const double sub_j1 = log.total("core.subgrid_j1");
    add("core.sweep_parallel_speedup", "x",
        ratio(sub_j1, log.total("core.subgrid_jn")));
    add("core.subgrid_j1_ms", "ms", sub_j1 / 1e6);

    add("util.parallel_for_us", "us",
        ratio(log.total("util.parallel_for") / 1e3,
              count("util.parallel_for_calls")));
    add("util.parallel_for_calls", "count", count("util.parallel_for_calls"));

    const double untraced = count("bench.untraced_op_ms");
    const double traced = count("bench.traced_op_ms");
    add("bench.trace_overhead_pct", "%", ratio(traced, untraced) * 100.0 - 100.0);
    add("bench.untraced_op_ms", "ms", untraced);
    add("bench.spans", "count", static_cast<double>(log.spans().size()));

    for (const Metric &x : m)
        out.checks.expect(std::isfinite(x.value),
                          "per-layer metric " + x.name + " is not finite");
}

} // namespace perfbench
