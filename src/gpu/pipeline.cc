#include "gpu/pipeline.hh"

#include <algorithm>
#include <string>

#include "util/check.hh"

namespace chopin
{

GpuPipeline::GpuPipeline(const TimingParams &timing) : params(timing)
{
}

namespace
{

/** Batch @p b's share of @p total over @p batches: even apportioning
 *  with exact totals (the last batch takes the remainder). */
Tick
batchShare(Tick total, unsigned b, unsigned batches)
{
    return total * (b + 1) / batches - total * b / batches;
}

} // namespace

Tick
GpuPipeline::submitDraw(DrawId id, const DrawStats &stats, Tick issue_time)
{
    // A pending draw's back end must claim raster and fragment first.
    checkNothingPending("submitDraw() called");
    return claimBackEnd(claimGeometry(id, stats, issue_time), stats);
}

void
GpuPipeline::submitGeometry(DrawId id, const DrawStats &stats,
                            Tick issue_time)
{
    pending.push_back(claimGeometry(id, stats, issue_time));
}

Tick
GpuPipeline::submitBackEnd(const DrawStats &stats)
{
    CHOPIN_CHECK(pendingHead < pending.size(),
                 "submitBackEnd without a pending geometry half");
    PendingDraw p = pending[pendingHead];
    if (++pendingHead == pending.size()) {
        pending.clear();
        pendingHead = 0;
    }
    // The schedule-first invariant (DESIGN.md §7 rule 4): the geometry half
    // ran before the draw was rendered, from its triangle count alone.
    CHOPIN_CHECK(std::max<std::uint64_t>(1, stats.tris_in) == p.record.tris &&
                     params.geometryCycles(stats) == p.record.geom_cycles,
                 "draw ", p.record.id, ": rendered stats give ",
                 stats.tris_in, " triangles and ",
                 params.geometryCycles(stats),
                 " geometry cycles, but its geometry half used ",
                 p.record.tris, " and ", p.record.geom_cycles);
    return claimBackEnd(p, stats);
}

GpuPipeline::PendingDraw
GpuPipeline::claimGeometry(DrawId id, const DrawStats &stats,
                           Tick issue_time)
{
    // Split the draw into batches of batch_tris input triangles so that
    // geometry, raster and fragment work of one draw overlap in the
    // pipeline. Stage costs are apportioned evenly over the batches (the
    // renderer reports per-draw totals).
    std::uint64_t tris = std::max<std::uint64_t>(1, stats.tris_in);
    unsigned batches = static_cast<unsigned>(
        (tris + params.batch_tris - 1) / params.batch_tris);
    batches = std::max(1u, batches);

    PendingDraw p;
    p.record.id = id;
    p.record.tris = tris;
    p.record.issue = issue_time;
    p.record.geom_cycles = params.geometryCycles(stats);
    p.first_batch = geomProgress.size();
    p.batches = batches;

    // The geometry stage never waits on raster or fragment, so its claims
    // are the ones submitDraw() would make whenever the back end follows.
    Tick prev_geom_done = issue_time;
    std::uint64_t tris_emitted = 0;
    for (unsigned b = 0; b < batches; ++b) {
        std::uint64_t batch_tris = tris * (b + 1) / batches - tris_emitted;
        tris_emitted += batch_tris;
        if (b == 0)
            p.geom_start = std::max(prev_geom_done, geom.freeAt());
        prev_geom_done = geom.claim(
            prev_geom_done, batchShare(p.record.geom_cycles, b, batches));
        geomTrisDone += batch_tris;
        geomProgress.emplace_back(prev_geom_done, geomTrisDone);
    }
    CHOPIN_CHECK(tris_emitted == tris);

    trisSubmitted += tris;
    p.record.geom_done = prev_geom_done;
    return p;
}

Tick
GpuPipeline::claimBackEnd(const PendingDraw &p, const DrawStats &stats)
{
    DrawTiming record = p.record;
    record.raster_cycles = params.rasterCycles(stats);
    record.frag_cycles = params.fragmentCycles(stats);

    // First-batch entry times of each stage window (for trace spans).
    Tick r_start = 0, f_start = 0, last_r_done = 0;
    for (unsigned b = 0; b < p.batches; ++b) {
        Tick g_done = geomProgress[p.first_batch + b].first;
        if (b == 0)
            r_start = std::max(g_done, raster.freeAt());
        Tick r_done = raster.claim(
            g_done, batchShare(record.raster_cycles, b, p.batches));
        if (b == 0)
            f_start = std::max(r_done, frag.freeAt());
        record.done = frag.claim(
            r_done, batchShare(record.frag_cycles, b, p.batches));
        last_r_done = r_done;
    }

    timings.push_back(record);
    lastDone = std::max(lastDone, record.done);

    if (tracer != nullptr) {
        // One span per stage, spanning the draw's first-batch entry to its
        // last-batch completion in that stage (batches of one draw are
        // contiguous per stage: the stages are FIFO-serialized).
        std::string label = "draw" + std::to_string(record.id);
        tracer->span(geom_track, "gpu", label, p.geom_start,
                     record.geom_done, {{"tris", record.tris}});
        tracer->span(raster_track, "gpu", label, r_start, last_r_done);
        tracer->span(frag_track, "gpu", label, f_start, record.done);
    }
    return record.done;
}

Tick
GpuPipeline::submitGeometryWork(Tick at, Tick cycles)
{
    Tick start = std::max(at, geom.freeAt());
    Tick done = geom.claim(at, cycles);
    lastDone = std::max(lastDone, done);
    if (tracer != nullptr && done > start)
        tracer->span(geom_track, "gpu", "geom_work", start, done);
    return done;
}

void
GpuPipeline::checkNothingPending(const char *what) const
{
    CHOPIN_CHECK(pendingHead == pending.size(), what, " while ",
                 pending.size() - pendingHead,
                 " draw(s) await submitBackEnd");
}

Tick
GpuPipeline::finishTime() const
{
    checkNothingPending("finishTime() read");
    return lastDone;
}

const std::vector<DrawTiming> &
GpuPipeline::drawTimings() const
{
    checkNothingPending("drawTimings() read");
    return timings;
}

std::uint64_t
GpuPipeline::processedTrisAt(Tick t) const
{
    // geomProgress is sorted by time (the geometry stage is serialized);
    // find the last checkpoint at or before t.
    auto it = std::upper_bound(
        geomProgress.begin(), geomProgress.end(), t,
        [](Tick value, const auto &entry) { return value < entry.first; });
    if (it == geomProgress.begin())
        return 0;
    return std::prev(it)->second;
}

void
GpuPipeline::attachTracer(Tracer *t, unsigned gpu_index)
{
    tracer = t;
    if (t == nullptr)
        return;
    std::string prefix = "gpu" + std::to_string(gpu_index) + ".";
    geom_track = t->track(prefix + "geom");
    raster_track = t->track(prefix + "raster");
    frag_track = t->track(prefix + "frag");
}

} // namespace chopin
