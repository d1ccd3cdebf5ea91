/**
 * @file
 * System configuration and per-frame result types shared by every SFR
 * scheme. SystemConfig mirrors Table II of the paper plus the knobs its
 * sensitivity studies sweep (Figs. 16, 18, 19, 20, 21, 22).
 */

#ifndef CHOPIN_SFR_CONFIG_HH
#define CHOPIN_SFR_CONFIG_HH

#include <string>
#include <vector>

#include "gfx/state.hh"
#include "gfx/tiles.hh"
#include "gpu/pipeline.hh"
#include "gpu/timing.hh"
#include "net/interconnect.hh"
#include "stats/metrics.hh"
#include "util/types.hh"

namespace chopin
{

/** The SFR scheme variants the paper evaluates. */
enum class Scheme
{
    SingleGpu,          ///< 1-GPU reference (oracle + normalization base)
    Duplication,        ///< conventional SFR: primitives duplicated everywhere
    Gpupd,              ///< GPUpd with batching + runahead
    GpupdIdeal,         ///< GPUpd with ideal links (Fig. 5)
    ChopinRoundRobin,   ///< CHOPIN, round-robin draw scheduling (Fig. 8)
    Chopin,             ///< CHOPIN, draw scheduler, naive direct-send compose
    ChopinCompSched,    ///< CHOPIN + image-composition scheduler
    ChopinIdeal,        ///< CHOPIN with ideal links (Fig. 5)
};

std::string toString(Scheme s);

/**
 * Composition payload granularity (ablation knob; see DESIGN.md §2.5).
 * SubTiles is the default and the granularity that reproduces Fig. 17's
 * absolute traffic volumes.
 */
enum class CompPayload
{
    WrittenPixels, ///< idealized per-pixel masking
    SubTiles,      ///< 8x8 DMA-burst granularity (default)
    FullTiles,     ///< whole 64x64 touched tiles
};

std::string toString(CompPayload p);

/** The largest supported GPU count: the tile grid's per-triangle GPU
 *  masks and the composition scheduler's pair masks hold one bit per GPU
 *  in 64 bits. */
inline constexpr unsigned maxGpus = 64;

/** Full system configuration (Table II defaults). */
struct SystemConfig
{
    unsigned num_gpus = 8;
    TimingParams timing;
    LinkParams link;
    int tile_size = 64;
    /** SFR screen partitioning policy (the paper interleaves). */
    TileAssignment tile_assignment = TileAssignment::Interleaved;

    // --- CHOPIN knobs -----------------------------------------------------
    /** Composition-group primitive threshold below which CHOPIN reverts to
     *  primitive duplication (Table II: 4096; swept in Fig. 22). */
    std::uint64_t group_threshold = 4096;
    /** Draw-scheduler feedback staleness: processed-triangle counters are
     *  visible in multiples of this (Fig. 18: 1 / 256 / 512 / 1024). */
    std::uint64_t sched_update_tris = 1;
    /** Fraction of early-depth-culled fragments artificially retained and
     *  processed anyway (Fig. 16's hypothetical-workload knob). */
    double cull_retention = 0.0;
    /** Composition transfer granularity (ablation knob). */
    CompPayload comp_payload = CompPayload::SubTiles;

    // --- GPUpd knobs ------------------------------------------------------
    /** Primitives per projection/distribution batch (the paper's batching
     *  optimization). Bounded by on-chip buffering for projected results
     *  (~32 B/primitive => 64 KB at 2048); removing the bound is exactly
     *  the "unlimited on-chip memory" part of the Fig. 5 idealization —
     *  see bench/ablation_gpupd_batching. */
    std::uint64_t gpupd_batch_prims = 2048;
    /** Overlap rendering with later batches' projection/distribution (the
     *  paper's runahead optimization). */
    bool gpupd_runahead = true;

    /**
     * Canonical fingerprint over *every* field that can influence a
     * simulation, including the nested TimingParams and LinkParams. This is
     * the only sanctioned config cache key (bench harnesses and the sweep
     * engine's result cache both use it); a unit test perturbs each public
     * field and asserts the fingerprint moves, so adding a field without
     * extending the implementation fails the suite instead of causing
     * silent stale-hit aliasing.
     */
    std::uint64_t fingerprint() const;
};

/** Where a frame's cycles went (Fig. 14's stacked categories). */
struct CycleBreakdown
{
    Tick normal_pipeline = 0;   ///< geometry/raster/fragment rendering
    Tick prim_projection = 0;   ///< GPUpd projection phase
    Tick prim_distribution = 0; ///< GPUpd sequential ID exchange
    Tick composition = 0;       ///< CHOPIN parallel image composition
    Tick sync = 0;              ///< render-target consistency broadcasts

    Tick
    total() const
    {
        return normal_pipeline + prim_projection + prim_distribution +
               composition + sync;
    }

    CycleBreakdown &
    operator+=(const CycleBreakdown &o)
    {
        normal_pipeline += o.normal_pipeline;
        prim_projection += o.prim_projection;
        prim_distribution += o.prim_distribution;
        composition += o.composition;
        sync += o.sync;
        return *this;
    }

    /** Metric registry visitation (stats/metrics.hh). */
    template <typename Self, typename V>
    static void
    visitMetrics(Self &self, V &&v)
    {
        v.field({"breakdown.normal_pipeline", "cycles"},
                self.normal_pipeline);
        v.field({"breakdown.prim_projection", "cycles"},
                self.prim_projection);
        v.field({"breakdown.prim_distribution", "cycles"},
                self.prim_distribution);
        v.field({"breakdown.composition", "cycles"}, self.composition);
        v.field({"breakdown.sync", "cycles"}, self.sync);
    }
};

/**
 * Every scalar counter a frame simulation accounts — the registry-visible
 * part of FrameResult. Deliberately a flat, trivially-copyable struct of
 * 64-bit fields (no padding): the round-trip test in
 * tests/stats/metrics_test.cc serializes it through visitMetrics and
 * memcmp-verifies the reconstruction byte-for-byte, so a field added here
 * without a visitMetrics registration fails the suite instead of silently
 * dropping out of the result cache and the determinism comparisons.
 */
struct FrameAccounting
{
    std::uint64_t num_gpus = 1;

    Tick cycles = 0; ///< frame latency in GPU cycles
    CycleBreakdown breakdown;
    TrafficStats traffic;

    /** Functional totals summed over all GPUs (Fig. 15/16 data). */
    DrawStats totals;

    /** Per-stage busy cycles summed over all GPUs (Fig. 2 data). */
    Tick geom_busy = 0;
    Tick raster_busy = 0;
    Tick frag_busy = 0;

    /** CHOPIN group statistics (Fig. 22 discussion). */
    std::uint64_t groups_total = 0;
    std::uint64_t groups_distributed = 0;
    std::uint64_t tris_distributed = 0;

    /** Fragments artificially retained past the early-z cull (Fig. 16). */
    std::uint64_t retained_culled = 0;
    /** Draw-scheduler status-message traffic (Section VI-D). */
    Bytes sched_status_bytes = 0;

    /** FNV-1a hash of the final frame's pixel bits (frameHash(image)). */
    std::uint64_t frame_hash = 0;
    /** Full surface-state hash of render target 0 (color + depth +
     *  written mask); stricter than frame_hash — the determinism tests and
     *  the perf harness compare both across --jobs values. */
    std::uint64_t content_hash = 0;

    /** Geometry-stage share of all pipeline work (Fig. 2's metric). */
    double
    geometryFraction() const
    {
        Tick work = geom_busy + raster_busy + frag_busy;
        return work == 0 ? 0.0
                         : static_cast<double>(geom_busy) /
                               static_cast<double>(work);
    }

    /** Metric registry visitation (stats/metrics.hh). */
    template <typename Self, typename V>
    static void
    visitMetrics(Self &self, V &&v)
    {
        v.field({"num_gpus", "count"}, self.num_gpus);
        v.field({"cycles", "cycles"}, self.cycles);
        CycleBreakdown::visitMetrics(self.breakdown, v);
        TrafficStats::visitMetrics(self.traffic, v);
        DrawStats::visitMetrics(self.totals, v);
        v.field({"geom_busy", "cycles"}, self.geom_busy);
        v.field({"raster_busy", "cycles"}, self.raster_busy);
        v.field({"frag_busy", "cycles"}, self.frag_busy);
        v.field({"groups_total", "count"}, self.groups_total);
        v.field({"groups_distributed", "count"}, self.groups_distributed);
        v.field({"tris_distributed", "count"}, self.tris_distributed);
        v.field({"retained_culled", "count"}, self.retained_culled);
        v.field({"sched_status_bytes", "bytes"}, self.sched_status_bytes);
        v.field({"frame_hash", "hash"}, self.frame_hash);
        v.field({"content_hash", "hash"}, self.content_hash);
    }
};

/**
 * Result of simulating one frame under one scheme: the registered
 * accounting (FrameAccounting base — all counters read as before, e.g.
 * `r.cycles`, `r.traffic.total`) plus the per-draw timings. That is
 * exactly what the figures consume. The final image is not part of a
 * result: frame_hash and content_hash identify it, and a caller that
 * needs its pixels (the image oracle, render_trace) passes an Image out
 * parameter to the scheme runner (sfr/schemes.hh).
 */
struct FrameResult : FrameAccounting
{
    Scheme scheme = Scheme::SingleGpu;

    /** Per-draw timing records of GPU 0 (Fig. 9 data; SingleGpu runs). */
    std::vector<DrawTiming> draw_timings;
};

} // namespace chopin

#endif // CHOPIN_SFR_CONFIG_HH
