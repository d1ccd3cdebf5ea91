/**
 * @file
 * Shared per-run simulation state: tile grid, interconnect, per-GPU
 * pipelines, render-target surfaces and dirty-tile tracking, plus the two
 * steps every SFR scheme shares: the render-target switch with its
 * consistency broadcast (Section V: "every time the application switches
 * to a new render target or depth buffer ... each GPU broadcasts the
 * latest content of its current render targets and depth buffers to other
 * GPUs"), and the partitioned draw that charges each GPU its own tiles.
 */

#ifndef CHOPIN_SFR_CONTEXT_HH
#define CHOPIN_SFR_CONTEXT_HH

#include <vector>

#include "gfx/renderer.hh"
#include "gfx/surface.hh"
#include "gfx/tiles.hh"
#include "sfr/config.hh"
#include "trace/draw_command.hh"

namespace chopin
{

/** Mutable state of one frame simulation under one scheme. */
class SimContext
{
  public:
    /**
     * @param cfg    system configuration (copied; pipelines reference the
     *               copy's timing parameters)
     * @param trace  frame to render (must outlive the context)
     * @param link   link parameters (schemes pass cfg.link or ideal links)
     * @param tracer optional timeline tracer (must outlive the context);
     *               wired into the interconnect and every pipeline, plus a
     *               shared "sfr.phases" track for scheme-level spans
     */
    SimContext(const SystemConfig &cfg, const FrameTrace &trace,
               const LinkParams &link, Tracer *tracer = nullptr);

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    const SystemConfig cfg;
    const FrameTrace &trace;
    Viewport vp;
    TileGrid grid;
    Interconnect net;
    std::vector<GpuPipeline> pipes;

    /** Attached timeline tracer, or nullptr (tracing disabled). */
    Tracer *const tracer;
    /** Track for scheme-phase spans (valid while tracer != nullptr). */
    Tracer::TrackId phase_track = 0;

    /** One surface per render target (region ownership is accounting-only;
     *  a shared surface equals the union of the per-GPU slices). */
    std::vector<Surface> rts;
    /** Dirty-tile flags per render target since the last sync broadcast. */
    std::vector<std::vector<std::uint8_t>> rt_dirty;

    CycleBreakdown breakdown;
    DrawStats totals;
    std::uint64_t retained_culled = 0;

    /** Latest completion time across all GPU pipelines. */
    Tick maxPipeFinish() const;

    /**
     * Bind render target @p rt and depth buffer @p db for the draws the
     * driver issues from time @p t on. The bound pair starts at (0, 0).
     * Switching to another pair first drains every GPU, then broadcasts
     * the old render target's dirty tiles (Section V).
     *
     * @return the time the next draw may issue: @p t when the pair is
     *         already bound, else the end of the broadcast, which starts
     *         at max(@p t, maxPipeFinish()).
     */
    Tick bind(std::uint32_t rt, std::uint32_t db, Tick t);

    /**
     * Render @p cmd into its render target, charging each fragment to the
     * GPU that owns its tile and geometry per @p charging, and flag the
     * tiles it writes dirty for the next broadcast.
     */
    PartitionedDraw renderPartitioned(const DrawCommand &cmd,
                                      GeometryCharging charging);

    /** Add @p part's per-GPU stats to the totals and submit draw @p id
     *  to every GPU's pipeline at @p t. */
    void submitPartitioned(DrawId id, const PartitionedDraw &part, Tick t);

    /**
     * Apply Fig. 16's hypothetical-workload knob: move
     * cfg.cull_retention of the early-depth-culled fragments into the
     * shaded/written counts of a *copy* of @p stats used for timing, and
     * track the retained count.
     */
    DrawStats applyCullRetention(const DrawStats &stats);

    /**
     * The renderer's view of draw @p cmd: its triangles, the frame's
     * view-projection times its model matrix, its raster state, and the
     * color image of the render target it samples (validated), or null.
     */
    DrawInput drawInput(const DrawCommand &cmd) const;

    /**
     * Assemble the FrameResult after the frame completes at @p end. If
     * @p image is non-null, the final image (render target 0's color)
     * moves into it. The render targets then go back to the calling
     * thread's surface cache (threadRenderScratch().surfaces), so rts is
     * empty afterwards. The constructor took them from that same cache; a
     * run that throws before finish() simply drops them.
     */
    FrameResult finish(Scheme scheme, Tick end, Image *image);

  private:
    /**
     * Broadcast each GPU's owned dirty tiles of render target @p rt
     * (color + depth) to all other GPUs, starting at @p now. Clears the
     * dirty flags and accounts the stall into breakdown.sync.
     *
     * @return the completion time (== @p now when nothing is dirty, when
     *         @p rt is the back buffer or the system has a single GPU).
     */
    Tick syncBroadcast(std::uint32_t rt, Tick now);

    /** The render target and depth buffer bind() holds bound. */
    std::uint32_t bound_rt = 0;
    std::uint32_t bound_db = 0;
};

} // namespace chopin

#endif // CHOPIN_SFR_CONTEXT_HH
