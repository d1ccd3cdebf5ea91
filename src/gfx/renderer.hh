/**
 * @file
 * The functional renderer: geometry processing + rasterization + fragment
 * operations for one draw command.
 *
 * Every SFR scheme funnels through this code; schemes only choose which GPU
 * executes a draw, which pixels that GPU keeps, and how the resulting
 * surfaces are merged. Two entry points share one raster loop:
 *  - renderDraw() charges a whole surface's work to one DrawStats
 *    (SingleGpu, CHOPIN's sub-images), optionally restricted to one GPU's
 *    tiles by a @ref RenderFilter;
 *  - renderDrawPartitioned() charges each fragment to the GPU that owns its
 *    tile (Duplication, GPUpd, CHOPIN's duplicated groups).
 *
 * Geometry runs serially. Rasterization is *binned* when the draw is big
 * enough and the pool has more than one job: triangles are bucketed by the
 * screen tiles their cached bounding boxes overlap, and buckets rasterize
 * concurrently. Tiles have disjoint pixel sets and each bucket preserves
 * draw order, so late-depth/blend results are bit-identical to a serial
 * pass at any `--jobs` value (see DESIGN.md, "Host parallelism vs.
 * simulated parallelism").
 */

#ifndef CHOPIN_GFX_RENDERER_HH
#define CHOPIN_GFX_RENDERER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "gfx/geometry.hh"
#include "gfx/surface.hh"
#include "gfx/tiles.hh"

namespace chopin
{

/**
 * Restricts rasterization to the screen tiles owned by one GPU.
 * A default-constructed filter accepts every pixel (used for CHOPIN
 * sub-image rendering, where each GPU renders its draws full-screen).
 */
struct RenderFilter
{
    const TileGrid *grid = nullptr;
    GpuId gpu = invalidGpu;

    bool
    owns(int x, int y) const
    {
        return grid == nullptr || grid->ownerOfPixel(x, y) == gpu;
    }

    /**
     * Coarse raster reject: can the triangle's bounding box touch any tile
     * this GPU owns? Unfiltered rendering always answers yes.
     */
    bool
    mayTouch(const ScreenTriangle &tri) const
    {
        if (grid == nullptr)
            return true;
        return (grid->overlappedGpus(tri) >> gpu) & 1ULL;
    }
};

/** Inputs of one draw call at the renderer level. */
struct DrawInput
{
    std::span<const Triangle> triangles; ///< object-space primitives
    Mat4 mvp;                            ///< model-view-projection
    RasterState state;
    DrawId draw_id = 0;
    float alpha_ref = 0.5f; ///< alpha-test threshold when shader_discard
    bool backface_cull = true;
    /** Texture sampled at the fragment's screen position (may be null).
     *  Must match the viewport dimensions. */
    const Image *texture = nullptr;
};

/**
 * Reusable per-thread scratch for the renderer: geometry outputs, the keep
 * list, the tile-bucket CSR and per-bucket stats slots. Each is a plain
 * vector that beginDraw() clears; capacity persists across draws, so once
 * the vectors have grown to the largest draw seen a draw performs no heap
 * allocation. Obtain via threadRenderScratch(); never share one instance
 * across threads.
 *
 * Ownership contract (the per-thread half of the static-analysis layer,
 * see util/sequential.hh for the coordinator half): a RenderScratch is
 * *thread-private by construction* — threadRenderScratch() hands every
 * thread its own thread_local instance, so no mutex or capability guards
 * the members. Lint rule `global-state` bans any other thread_local or
 * mutable file-scope state outside util/, so this stays the single point
 * of per-thread ownership. Within a draw only the calling thread clears,
 * appends to or resizes the vectors; the binned raster loop's pool
 * workers read them and write only their own pre-sized bucket_stats slot
 * (see DESIGN.md §14).
 */
struct RenderScratch
{
    /** Post-geometry screen triangles in draw order. */
    std::vector<ScreenTriangle> screen_tris;
    /** Indices into screen_tris that reach rasterization. */
    std::vector<std::uint32_t> kept;

    // --- tile-bucket CSR (rebuilt per binned draw) -----------------------
    std::vector<std::uint32_t> bin_counts; ///< per bin, then CSR offsets
    std::vector<std::uint32_t> bin_tris;   ///< bucket payload: tri indices
    std::vector<std::uint32_t> dense_bins; ///< nonempty bin ids
    std::vector<DrawStats> bucket_stats;   ///< one slot per nonempty bin

    /** This thread's surface cache (beginDraw() leaves it alone). Frame
     *  simulations take their render targets and sub-images from it and
     *  give them back when they finish. */
    SurfaceCache surfaces;

    /** Start a draw: drop the previous draw's transients, keep capacity. */
    void
    beginDraw()
    {
        screen_tris.clear();
        kept.clear();
        bin_counts.clear();
        bin_tris.clear();
        dense_bins.clear();
        bucket_stats.clear();
    }
};

/** The calling thread's scratch instance (thread-local storage). */
RenderScratch &threadRenderScratch();

/**
 * Render one draw command into @p surface.
 *
 * @param touched_tiles optional per-tile flags (indexed by @p grid linear
 *        tile index) set for every tile that receives a written fragment —
 *        used to size the render-target sync broadcast.
 * @param grid tile grid used for @p touched_tiles indexing and, when the
 *        draw rasterizes binned, as the bins (may be null if touched_tiles
 *        is null); its tile size must be a multiple of Surface::blockEdge.
 * @return functional statistics for the timing model.
 */
DrawStats renderDraw(Surface &surface, const Viewport &vp,
                     const DrawInput &in, const RenderFilter &filter = {},
                     std::vector<std::uint8_t> *touched_tiles = nullptr,
                     const TileGrid *grid = nullptr);

/** How geometry-stage work is charged in renderDrawPartitioned(). */
enum class GeometryCharging
{
    /** Every GPU processes every primitive (conventional SFR). */
    Duplicated,
    /** A GPU processes only the primitives whose bounding box overlaps its
     *  tiles (GPUpd: each GPU received exactly those primitives). */
    OwnersOnly,
};

/** Per-GPU outcome of a partitioned draw. */
struct PartitionedDraw
{
    std::vector<DrawStats> per_gpu; ///< indexed by GpuId
    /** Primitive count each GPU receives under sort-first distribution
     *  (GPUpd ID-exchange sizing); Duplicated charging fills it too. */
    std::vector<std::uint64_t> owned_tris;
};

/**
 * Render one draw once, but attribute the work to the GPUs of an SFR
 * system by tile ownership: the primitive-duplication baseline, GPUpd's
 * main pipeline and CHOPIN's small-group fallback. Each pixel is owned by
 * exactly one GPU, so one shared surface @p target equals the union of the
 * N region slices; every fragment is charged to the GPU that owns its tile.
 * Geometry work is charged per @p charging. Back-face culling happens in
 * the attribution pass, not in geometry processing, so a culled
 * primitive's owner set is still known (GPUpd distributes it, and its
 * vertex work lands on the owners).
 *
 * @param touched_tiles optional dirty-tile flags of the target (for
 *        render-target sync sizing), indexed by @p grid tile index.
 */
PartitionedDraw renderDrawPartitioned(Surface &target, const Viewport &vp,
                                      const DrawInput &in,
                                      const TileGrid &grid,
                                      GeometryCharging charging,
                                      std::vector<std::uint8_t> *touched_tiles);

} // namespace chopin

#endif // CHOPIN_GFX_RENDERER_HH
