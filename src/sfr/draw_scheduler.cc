#include "sfr/draw_scheduler.hh"

#include "util/check.hh"

namespace chopin
{

DrawCommandScheduler::DrawCommandScheduler(
    const std::vector<GpuPipeline> &gpu_pipes, DrawPolicy sched_policy,
    std::uint64_t update_tris)
    : pipes(gpu_pipes), policy(sched_policy),
      updateTris(std::max<std::uint64_t>(1, update_tris)),
      scheduledTris(gpu_pipes.size(), 0), lastReported(gpu_pipes.size(), 0)
{
    CHOPIN_CHECK(!pipes.empty());
}

std::uint64_t
DrawCommandScheduler::remainingEstimate(GpuId gpu, Tick now) const
{
    // The GPU reports its processed count every `updateTris` triangles; the
    // scheduler sees the last multiple it crossed. Each new report is a 4B
    // status message (Section VI-D).
    std::uint64_t processed = pipes[gpu].processedTrisAt(now);
    std::uint64_t visible = (processed / updateTris) * updateTris;
    if (visible > lastReported[gpu]) {
        status_bytes += 4 * ((visible - lastReported[gpu]) / updateTris);
        lastReported[gpu] = visible;
    } else {
        visible = lastReported[gpu];
    }
    std::uint64_t sched = scheduledTris[gpu];
    return sched > visible ? sched - visible : 0;
}

GpuId
DrawCommandScheduler::schedule(std::uint64_t tris, Tick now)
{
    GpuId pick = 0;
    if (policy == DrawPolicy::RoundRobin) {
        pick = static_cast<GpuId>(rrNext++ % pipes.size());
    } else {
        std::uint64_t best = ~std::uint64_t(0);
        for (GpuId g = 0; g < pipes.size(); ++g) {
            std::uint64_t remaining = remainingEstimate(g, now);
            if (remaining < best) {
                best = remaining;
                pick = g;
            }
        }
    }
    scheduledTris[pick] += tris;
    status_bytes += 4; // the scheduled-triangle increment message (Fig. 10)
    return pick;
}

} // namespace chopin
