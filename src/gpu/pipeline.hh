/**
 * @file
 * The per-GPU rendering pipeline timing model.
 *
 * Three serialized stages — geometry, raster, fragment — process draw
 * commands at batch granularity with FIFO busy-until semantics: a batch
 * enters a stage when both the previous stage has finished it and the stage
 * is free. Frame latency is the fragment-stage completion of the last
 * batch; per-stage busy totals give the breakdowns of Fig. 2 and Fig. 14.
 *
 * Geometry-stage completions are recorded as (time, cumulative triangles)
 * checkpoints: this is the "number of processed triangles" feedback CHOPIN's
 * draw-command scheduler consumes (Fig. 10), queryable at any simulated
 * time with any staleness interval (Fig. 18).
 *
 * The geometry stage never waits on raster or fragment, and its cost
 * depends only on a draw's triangle count. So a draw can be submitted in
 * two halves: submitGeometry() when it is scheduled, and submitBackEnd()
 * once it has been rendered. CHOPIN assigns a whole group this way before
 * rendering any of it (DESIGN.md §7 rule 4).
 */

#ifndef CHOPIN_GPU_PIPELINE_HH
#define CHOPIN_GPU_PIPELINE_HH

#include <vector>

#include "gpu/timing.hh"
#include "sim/resource.hh"
#include "stats/metrics.hh"
#include "stats/tracer.hh"
#include "util/types.hh"

namespace chopin
{

/** Timing record of one draw execution (Fig. 9's raw data). */
struct DrawTiming
{
    DrawId id = 0;
    std::uint64_t tris = 0;
    Tick issue = 0;     ///< when the driver issued the draw
    Tick geom_done = 0; ///< geometry stage completion
    Tick done = 0;      ///< fragment stage completion
    Tick geom_cycles = 0;
    Tick raster_cycles = 0;
    Tick frag_cycles = 0;

    /** Metric registry visitation (stats/metrics.hh). */
    template <typename Self, typename V>
    static void
    visitMetrics(Self &self, V &&v)
    {
        v.field({"timing.id", "id"}, self.id);
        v.field({"timing.tris", "count"}, self.tris);
        v.field({"timing.issue", "tick"}, self.issue);
        v.field({"timing.geom_done", "tick"}, self.geom_done);
        v.field({"timing.done", "tick"}, self.done);
        v.field({"timing.geom_cycles", "cycles"}, self.geom_cycles);
        v.field({"timing.raster_cycles", "cycles"}, self.raster_cycles);
        v.field({"timing.frag_cycles", "cycles"}, self.frag_cycles);
    }
};

/** One GPU's three-stage pipeline. */
class GpuPipeline
{
  public:
    explicit GpuPipeline(const TimingParams &params);

    /**
     * Submit one draw whose functional statistics are @p stats, issued at
     * @p issue_time. Batches flow through the stages immediately
     * (busy-until arithmetic); the draw's completion time is returned.
     * Same as submitGeometry() followed by submitBackEnd(); no draw may be
     * pending.
     */
    Tick submitDraw(DrawId id, const DrawStats &stats, Tick issue_time);

    /**
     * The geometry half of submitDraw(): claim the geometry stage for each
     * batch and record the progress checkpoints processedTrisAt() reads.
     * Reads only stats.tris_in and stats.verts_shaded, which a draw knows
     * from its triangle count before any pixel is rendered. The draw then
     * stays pending until its submitBackEnd().
     */
    void submitGeometry(DrawId id, const DrawStats &stats, Tick issue_time);

    /**
     * The back-end half: claim the raster and fragment stages for the
     * oldest pending draw, whose full statistics are @p stats, then record
     * its DrawTiming and trace spans. Checks that @p stats gives the
     * triangles and geometry cycles its geometry half used.
     * @return the draw's completion time.
     */
    Tick submitBackEnd(const DrawStats &stats);

    /**
     * Add non-draw work to the geometry stage (GPUpd's primitive
     * projection runs on the shader cores in front of the pipeline).
     * @return completion time.
     */
    Tick submitGeometryWork(Tick at, Tick cycles);

    /** Completion time of everything submitted so far (no draw may be
     *  pending). */
    Tick finishTime() const;

    /** Triangles whose geometry processing completed by time @p t. */
    std::uint64_t processedTrisAt(Tick t) const;

    /** Total triangles submitted so far. */
    std::uint64_t submittedTris() const { return trisSubmitted; }

    /** Per-stage busy totals. */
    Tick geomBusy() const { return geom.busyTime(); }
    Tick rasterBusy() const { return raster.busyTime(); }
    Tick fragBusy() const { return frag.busyTime(); }

    /** Per-draw timing records, in submission order (no draw may be
     *  pending). */
    const std::vector<DrawTiming> &drawTimings() const;

    /**
     * Attach (or detach, with nullptr) a timeline tracer as GPU
     * @p gpu_index: every draw then emits one span per pipeline stage on
     * this GPU's geom/raster/frag tracks.
     */
    void attachTracer(Tracer *t, unsigned gpu_index);

  private:
    /** A draw whose geometry half is submitted but not its back end. */
    struct PendingDraw
    {
        DrawTiming record;           ///< all but the back-end fields
        Tick geom_start = 0;         ///< first batch's geometry entry
        std::size_t first_batch = 0; ///< its first geomProgress entry
        unsigned batches = 0;        ///< batches the draw was split into
    };

    /** Claim the geometry stage for every batch of a draw and record its
     *  progress checkpoints; the back end is still owed. */
    PendingDraw claimGeometry(DrawId id, const DrawStats &stats,
                              Tick issue_time);

    /** Claim raster and fragment for @p p, whose full statistics are
     *  @p stats, and record its timing and spans. */
    Tick claimBackEnd(const PendingDraw &p, const DrawStats &stats);

    /** Fail, naming @p what, unless every draw has its back end. */
    void checkNothingPending(const char *what) const;

    const TimingParams &params;
    Resource geom;
    Resource raster;
    Resource frag;

    Tracer *tracer = nullptr;
    Tracer::TrackId geom_track = 0;
    Tracer::TrackId raster_track = 0;
    Tracer::TrackId frag_track = 0;
    Tick lastDone = 0;
    std::uint64_t trisSubmitted = 0;
    /** (time, cumulative triangles) geometry checkpoints, time-sorted:
     *  one per batch, so a pending draw's batches keep their geometry
     *  completion times here until its back end claims them. */
    std::vector<std::pair<Tick, std::uint64_t>> geomProgress;
    std::uint64_t geomTrisDone = 0;
    std::vector<DrawTiming> timings;
    /** Pending draws in submission order; the oldest is at pendingHead. */
    std::vector<PendingDraw> pending;
    std::size_t pendingHead = 0;
};

} // namespace chopin

#endif // CHOPIN_GPU_PIPELINE_HH
