/**
 * @file
 * The functional renderer: geometry processing + rasterization + fragment
 * operations for one draw command on one surface.
 *
 * Every SFR scheme funnels through this code; schemes only choose which GPU
 * executes a draw, which pixels that GPU keeps (the @ref RenderFilter), and
 * how the resulting surfaces are merged.
 *
 * The renderer is host-parallel but bit-deterministic: geometry processing
 * fans out over triangle chunks (results concatenated in chunk order), and
 * rasterization is *binned* — triangles are bucketed by the screen tiles
 * their cached bounding boxes overlap, and buckets rasterize concurrently.
 * Tiles have disjoint pixel sets and each bucket preserves draw order, so
 * late-depth/blend results are bit-identical to a serial pass at any
 * `--jobs` value (see DESIGN.md, "Host parallelism vs. simulated
 * parallelism").
 */

#ifndef CHOPIN_GFX_RENDERER_HH
#define CHOPIN_GFX_RENDERER_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gfx/geometry.hh"
#include "gfx/surface.hh"
#include "gfx/tiles.hh"
#include "util/arena.hh"

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
 * Reusable per-thread scratch for the binned renderer: geometry outputs,
 * the tile-bucket CSR, and per-bucket stats slots. All of it lives on one
 * bump @ref Arena that beginDraw() rewinds — after the arena warms up to
 * the largest draw seen, a draw performs zero heap allocations. Obtain via
 * threadRenderScratch(); never share one instance across threads.
 *
 * Ownership contract (the per-thread half of the static-analysis layer,
 * see util/sequential.hh for the coordinator half): a RenderScratch is
 * *thread-private by construction* — threadRenderScratch() hands every
 * thread its own thread_local instance, so no mutex or capability guards
 * the members. The compile-time enforcement is structural: passing a
 * RenderScratch& across a parallelFor boundary would require naming the
 * same instance in two workers, which the thread_local accessor makes
 * impossible; lint rule `global-state` bans any other thread_local or
 * mutable file-scope state outside util/ so this stays the single point
 * of per-thread ownership.
 *
 * Arena discipline inside a draw: only the coordinator (the thread that
 * called renderDraw) allocates. Parallel regions receive slabs carved
 * *before* the fan-out — geometry workers fill disjoint slices of
 * screen_tris' slab, bucket workers write their pre-assigned bucket_stats
 * slot — so pool workers never touch the arena (see DESIGN.md §14).
 */
struct RenderScratch
{
    /** Backing store for every member below; rewound by beginDraw(). */
    Arena arena;

    /** Post-geometry screen triangles in draw order. */
    ArenaVector<ScreenTriangle> screen_tris;
    /** Indices into screen_tris that survive the coarse filter. */
    ArenaVector<std::uint32_t> kept;

    // --- tile-bucket CSR (rebuilt per draw) ------------------------------
    ArenaVector<std::uint32_t> bin_counts; ///< per bin, then CSR offsets
    ArenaVector<std::uint32_t> bin_tris;   ///< bucket payload: tri indices
    ArenaVector<std::uint32_t> dense_bins; ///< nonempty bin ids
    ArenaVector<DrawStats> bucket_stats;   ///< one slot per nonempty bin

    // --- geometry fan-out slots ------------------------------------------
    ArenaVector<std::size_t> geom_counts; ///< tris written per chunk
    ArenaVector<DrawStats> geom_stats;    ///< per chunk

    /** This thread's surface cache (not arena-backed; beginDraw() leaves
     *  it alone). Frame simulations take their render targets and
     *  sub-images from it and give them back when they finish. */
    SurfaceCache surfaces;

    /**
     * Start a draw: invalidate the previous draw's transients and rebind
     * every vector to the rewound arena. Must not run while any pool
     * worker can still hold a pointer into the arena.
     */
    void
    beginDraw()
    {
        arena.reset();
        screen_tris.attach(arena);
        kept.attach(arena);
        bin_counts.attach(arena);
        bin_tris.attach(arena);
        dense_bins.attach(arena);
        bucket_stats.attach(arena);
        geom_counts.attach(arena);
        geom_stats.attach(arena);
    }
};

/** The calling thread's scratch instance (thread-local storage). */
RenderScratch &threadRenderScratch();

/**
 * Internals shared between renderDraw() and renderDrawPartitioned() (the
 * sort-first variant in src/sfr). Not a public API.
 */
namespace gfx_detail
{

/** Minimum triangles before the geometry stage fans out over chunks. */
inline constexpr std::size_t geomParallelThreshold = 256;

/**
 * Minimum summed bounding-box pixels before rasterization fans out. Below
 * this the serial loop wins (bucket setup + pool latency dominate).
 */
inline constexpr std::uint64_t rasterParallelThreshold = 8192;

/** The screen tiling used to bucket triangles for parallel rasterization. */
struct BinGrid
{
    int size = defaultTileSize; ///< bin edge in pixels
    int nx = 0;                 ///< bins per row
    int ny = 0;                 ///< bin rows

    int count() const { return nx * ny; }

    /** Inclusive pixel rectangle of bin @p bin, clamped to the viewport. */
    PixelRect
    rectOf(int bin, const Viewport &vp) const
    {
        PixelRect r;
        r.x0 = (bin % nx) * size;
        r.y0 = (bin / nx) * size;
        r.x1 = std::min(vp.width, r.x0 + size) - 1;
        r.y1 = std::min(vp.height, r.y0 + size) - 1;
        return r;
    }
};

/**
 * Bins follow @p grid's own tiles when present (so touched-tile flags have
 * a single writer and, under partitioned rendering, every bucket maps to
 * exactly one GPU); otherwise a default 64-pixel tiling of the viewport.
 */
BinGrid makeBinGrid(const Viewport &vp, const TileGrid *grid);

/**
 * Geometry processing for a whole draw: fans out over fixed triangle
 * chunks when worthwhile. The coordinator carves one 2*n-triangle slab
 * from the scratch arena (a primitive emits at most two triangles after
 * near-plane clipping); chunks fill fixed disjoint slices, and an in-place
 * forward compaction in chunk order reproduces the serial triangle order
 * bit-identically — no worker ever allocates. Screen triangles land in
 * scratch.screen_tris; counters merge into @p stats.
 *
 * Requires scratch.beginDraw() to have run for this draw.
 */
void runGeometry(std::span<const Triangle> tris, const Mat4 &mvp,
                 const Viewport &vp, bool backface_cull,
                 RenderScratch &scratch, DrawStats &stats);

/** Pixel area of the cached bounding box (raster work estimate). */
std::uint64_t boxPixels(const ScreenTriangle &st);

/**
 * Build the tile-bucket CSR over scratch.kept (indices into
 * scratch.screen_tris, in draw order). On return: bucket b's payload is
 * scratch.bin_tris[(b ? bin_counts[b-1] : 0) .. bin_counts[b]), and
 * scratch.dense_bins lists the nonempty bins in ascending order. Bin
 * overlap uses the same viewport-clamped bounds helper
 * (ScreenTriangle::boundsRect) as the rasterizer and countCoverage().
 */
void binTriangles(RenderScratch &scratch, const BinGrid &bins,
                  const Viewport &vp);

} // namespace gfx_detail

/**
 * Render one draw command into @p surface.
 *
 * @param touched_tiles optional per-tile flags (indexed by @p grid linear
 *        tile index) set for every tile that receives a written fragment —
 *        used to size CHOPIN's composition traffic.
 * @param grid tile grid used for @p touched_tiles indexing (may be null if
 *        touched_tiles is null).
 * @return functional statistics for the timing model.
 */
DrawStats renderDraw(Surface &surface, const Viewport &vp,
                     const DrawInput &in, const RenderFilter &filter = {},
                     std::vector<std::uint8_t> *touched_tiles = nullptr,
                     const TileGrid *grid = nullptr);

} // namespace chopin

#endif // CHOPIN_GFX_RENDERER_HH
