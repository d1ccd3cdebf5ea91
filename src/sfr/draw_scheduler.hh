/**
 * @file
 * CHOPIN's draw-command scheduler (Section IV-D, Fig. 10).
 *
 * The scheduler tracks, per GPU, the number of scheduled and processed
 * triangles in the geometry stage; the difference estimates the GPU's
 * remaining workload (the paper shows the geometry-stage triangle rate
 * tracks the whole pipeline, Fig. 9). Each draw is assigned to the GPU with
 * the fewest remaining triangles.
 *
 * Processed-triangle feedback is quantized to an update interval: GPUs
 * report progress every `update_tris` triangles (Fig. 18 sweeps this from
 * 1 to 1024), and the update messages are accounted as scheduler traffic
 * (Section VI-D).
 */

#ifndef CHOPIN_SFR_DRAW_SCHEDULER_HH
#define CHOPIN_SFR_DRAW_SCHEDULER_HH

#include <vector>

#include "gpu/pipeline.hh"
#include "util/types.hh"

namespace chopin
{

/** Draw-to-GPU assignment policies. */
enum class DrawPolicy
{
    RoundRobin,    ///< naive: draw i -> GPU i mod N (Fig. 8)
    FewestRemaining, ///< the CHOPIN scheduler
};

/** The centralized draw-command scheduler. */
class DrawCommandScheduler
{
  public:
    /**
     * @param pipes        the per-GPU pipelines (progress source)
     * @param policy       assignment policy
     * @param update_tris  progress-report quantum in triangles (>= 1)
     */
    DrawCommandScheduler(const std::vector<GpuPipeline> &pipes,
                         DrawPolicy policy, std::uint64_t update_tris);

    /**
     * Pick the GPU for the next draw of @p tris triangles at time @p now,
     * and account it as scheduled.
     */
    GpuId schedule(std::uint64_t tris, Tick now);

    /** Remaining-triangle estimate the scheduler holds for @p gpu at @p now
     *  (stale according to the update interval). */
    std::uint64_t remainingEstimate(GpuId gpu, Tick now) const;

    /** Status-message bytes exchanged so far (Section VI-D accounting). */
    Bytes statusTraffic() const { return status_bytes; }

    /**
     * Record work assigned outside the scheduler's policy (transparent
     * groups use fixed contiguous distribution, Section IV-C) so the
     * remaining-triangle estimates stay consistent.
     */
    void
    accountExternal(GpuId gpu, std::uint64_t tris)
    {
        scheduledTris[gpu] += tris;
        status_bytes += 4;
    }

  private:
    const std::vector<GpuPipeline> &pipes;
    DrawPolicy policy;
    std::uint64_t updateTris;
    std::vector<std::uint64_t> scheduledTris;
    std::uint64_t rrNext = 0;
    /** Mutable: reading a fresh progress report is itself a message. */
    mutable Bytes status_bytes = 0;
    /** Per-GPU processed count at the last visible report. */
    mutable std::vector<std::uint64_t> lastReported;
};

} // namespace chopin

#endif // CHOPIN_SFR_DRAW_SCHEDULER_HH
