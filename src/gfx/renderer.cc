#include "gfx/renderer.hh"

#include <algorithm>
#include <cstdint>

#include "util/check.hh"
#include "util/thread_pool.hh"

namespace chopin
{

namespace
{

/**
 * Minimum summed bounding-box pixels of a draw's rasterized triangles
 * before rasterization fans out over tile buckets. Below this the serial
 * loop wins (bucket setup + pool latency dominate).
 */
constexpr std::uint64_t rasterParallelThreshold = 8192;

static_assert(defaultTileSize % Surface::blockEdge == 0,
              "default bins must not split a written-mask block");

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
 * Bins follow @p grid's own tiles when present, so a touched-tile flag has
 * a single writer (the bucket rasterizing that tile) and, under
 * partitioned rendering, every bucket maps to exactly one GPU; otherwise a
 * default 64-pixel tiling of the viewport. Either way the bin edge is a
 * multiple of Surface::blockEdge, so each 8x8 written-mask word has a
 * single writer too.
 */
BinGrid
makeBinGrid(const Viewport &vp, const TileGrid *grid)
{
    BinGrid b;
    if (grid != nullptr) {
        b.size = grid->tileSize();
        b.nx = grid->tilesX();
        b.ny = grid->tilesY();
    } else {
        b.size = defaultTileSize;
        b.nx = (vp.width + b.size - 1) / b.size;
        b.ny = (vp.height + b.size - 1) / b.size;
    }
    return b;
}

/**
 * Geometry processing for a whole draw, serially in primitive order:
 * screen triangles append to scratch.screen_tris, counters merge into
 * @p stats.
 */
void
runGeometry(const DrawInput &in, const Viewport &vp, bool backface_cull,
            RenderScratch &scratch, DrawStats &stats)
{
    for (const Triangle &tri : in.triangles)
        processPrimitive(tri, in.mvp, vp, backface_cull, scratch.screen_tris,
                         stats);
}

/** Pixel area of the cached bounding box (raster work estimate). */
std::uint64_t
boxPixels(const ScreenTriangle &st)
{
    CHOPIN_DCHECK(st.boundsCached());
    return static_cast<std::uint64_t>(st.bx1 - st.bx0 + 1) *
           static_cast<std::uint64_t>(st.by1 - st.by0 + 1);
}

/**
 * Build the tile-bucket CSR over scratch.kept (indices into
 * scratch.screen_tris, in draw order). On return: bucket b's payload is
 * scratch.bin_tris[(b ? bin_counts[b-1] : 0) .. bin_counts[b]), and
 * scratch.dense_bins lists the nonempty bins in ascending order. Bin
 * overlap uses the same viewport-clamped bounds helper
 * (ScreenTriangle::boundsRect) as the rasterizer and countCoverage().
 */
void
binTriangles(RenderScratch &scratch, const BinGrid &bins, const Viewport &vp)
{
    std::size_t nbins = static_cast<std::size_t>(bins.count());
    scratch.bin_counts.assign(nbins, 0);

    // Bin overlap comes from the same viewport-clamped bounds helper the
    // rasterizer clips with, so binning and raster coverage cannot drift.
    for (std::uint32_t idx : scratch.kept) {
        PixelRect r =
            scratch.screen_tris[idx].boundsRect(vp.width, vp.height);
        int tx0 = r.x0 / bins.size;
        int tx1 = r.x1 / bins.size;
        int ty0 = r.y0 / bins.size;
        int ty1 = r.y1 / bins.size;
        for (int ty = ty0; ty <= ty1; ++ty)
            for (int tx = tx0; tx <= tx1; ++tx)
                scratch.bin_counts[static_cast<std::size_t>(ty * bins.nx +
                                                            tx)] += 1;
    }

    // Exclusive scan: bin_counts[b] becomes the start offset of bucket b,
    // then serves as the fill cursor. After filling, bin_counts[b] is the
    // *end* offset of bucket b (start of b is the previous bucket's end).
    std::uint32_t total = 0;
    for (std::size_t b = 0; b < nbins; ++b) {
        std::uint32_t count = scratch.bin_counts[b];
        scratch.bin_counts[b] = total;
        total += count;
    }
    scratch.bin_tris.resize(total);

    for (std::uint32_t idx : scratch.kept) {
        PixelRect r =
            scratch.screen_tris[idx].boundsRect(vp.width, vp.height);
        int tx0 = r.x0 / bins.size;
        int tx1 = r.x1 / bins.size;
        int ty0 = r.y0 / bins.size;
        int ty1 = r.y1 / bins.size;
        for (int ty = ty0; ty <= ty1; ++ty)
            for (int tx = tx0; tx <= tx1; ++tx) {
                std::size_t b = static_cast<std::size_t>(ty * bins.nx + tx);
                scratch.bin_tris[scratch.bin_counts[b]++] = idx;
            }
    }

    for (std::size_t b = 0; b < nbins; ++b) {
        std::uint32_t lo = b == 0 ? 0 : scratch.bin_counts[b - 1];
        if (scratch.bin_counts[b] > lo)
            scratch.dense_bins.push_back(static_cast<std::uint32_t>(b));
    }
}

/**
 * The raster loop behind both entry points: rasterizes scratch.kept into
 * @p surface, applying only fragments @p filter owns, and charges each
 * fragment to a stats slot — @p slots[0], or with @p by_owner the slot of
 * the GPU that owns the fragment's tile in @p grid.
 *
 * Serial at one job or below rasterParallelThreshold estimated pixels.
 * Otherwise binned: buckets own disjoint pixel rectangles and keep draw
 * order internally, so per-pixel results are bit-identical to the serial
 * pass, and each bucket's private stats slot merges afterwards in bin
 * order (integer sums). Bins are @p grid's tiles when one is given, so a
 * bucket lies inside exactly one owner's tile.
 */
void
rasterizeKept(RenderScratch &scratch, Surface &surface, const Viewport &vp,
              const DrawInput &in, const RenderFilter &filter,
              std::uint64_t est_pixels, const TileGrid *grid,
              std::vector<std::uint8_t> *touched_tiles, bool by_owner,
              DrawStats *slots)
{
    CHOPIN_DCHECK(!by_owner || grid != nullptr);
    CHOPIN_CHECK(grid == nullptr || grid->tileSize() % Surface::blockEdge == 0,
                 "tile size ", grid->tileSize(),
                 " is not a multiple of the ", Surface::blockEdge,
                 "-pixel written-mask block");

    // Applies one fragment; returns whether it was written to the surface.
    auto shadeAndApply = [&](DrawStats &s, const Fragment &frag) -> bool {
        if (!filter.owns(frag.x, frag.y))
            return false;
        Fragment shaded = frag;
        if (in.texture != nullptr) {
            // Screen-space sample: modulate with the texel under the
            // fragment (bloom/post-processing pattern).
            shaded.color = shaded.color * in.texture->at(frag.x, frag.y);
            s.frags_textured += 1;
        }
        std::uint64_t written_before = s.frags_written;
        surface.applyFragment(shaded, in.state, in.draw_id, in.alpha_ref, s);
        return s.frags_written != written_before;
    };

    ThreadPool &pool = globalPool();
    bool parallel_raster = pool.jobs() > 1 && scratch.kept.size() > 1 &&
                           est_pixels >= rasterParallelThreshold;

    if (!parallel_raster) {
        PixelRect full{0, 0, vp.width - 1, vp.height - 1};
        for (std::uint32_t idx : scratch.kept) {
            rasterizeTriangleInRect(
                scratch.screen_tris[idx], vp, full,
                [&](const Fragment &frag) {
                    DrawStats &s =
                        by_owner ? slots[grid->ownerOfPixel(frag.x, frag.y)]
                                 : slots[0];
                    if (shadeAndApply(s, frag) && touched_tiles != nullptr)
                        (*touched_tiles)[static_cast<std::size_t>(
                            grid->tileIndexOfPixel(frag.x, frag.y))] = 1;
                });
        }
        return;
    }

    BinGrid bins = makeBinGrid(vp, grid);
    binTriangles(scratch, bins, vp);

    scratch.bucket_stats.assign(scratch.dense_bins.size(), DrawStats{});
    pool.parallelFor(scratch.dense_bins.size(), [&](std::size_t d) {
        std::uint32_t bin = scratch.dense_bins[d];
        std::uint32_t lo = bin == 0 ? 0 : scratch.bin_counts[bin - 1];
        std::uint32_t hi = scratch.bin_counts[bin];
        PixelRect rect = bins.rectOf(static_cast<int>(bin), vp);
        DrawStats &s = scratch.bucket_stats[d];
        bool touched = false;
        for (std::uint32_t k = lo; k < hi; ++k) {
            rasterizeTriangleInRect(
                scratch.screen_tris[scratch.bin_tris[k]], vp, rect,
                [&](const Fragment &frag) {
                    if (shadeAndApply(s, frag))
                        touched = true;
                });
        }
        // Bin index == grid tile index when a grid is present (bins are the
        // grid's tiles), so this flag has a single writer.
        if (touched && touched_tiles != nullptr)
            (*touched_tiles)[bin] = 1;
    });

    for (std::size_t d = 0; d < scratch.dense_bins.size(); ++d) {
        int bin = static_cast<int>(scratch.dense_bins[d]);
        GpuId g =
            by_owner ? grid->ownerOfTile(bin % bins.nx, bin / bins.nx) : 0;
        slots[g] += scratch.bucket_stats[d];
    }
}

} // namespace

RenderScratch &
threadRenderScratch()
{
    // The one sanctioned piece of thread-local state outside util/: scratch
    // ownership is *per thread by construction* (each pool worker and the
    // coordinator get a private instance), so no capability guards it —
    // sharing is impossible, not merely locked away. See RenderScratch's
    // ownership contract in gfx/renderer.hh.
    thread_local RenderScratch scratch; // chopin-lint: allow(global-state)
    return scratch;
}

DrawStats
renderDraw(Surface &surface, const Viewport &vp, const DrawInput &in,
           const RenderFilter &filter, std::vector<std::uint8_t> *touched_tiles,
           const TileGrid *grid)
{
    CHOPIN_CHECK(surface.width() == vp.width &&
                 surface.height() == vp.height);
    CHOPIN_CHECK(touched_tiles == nullptr || grid != nullptr,
                 "touched-tile tracking needs a tile grid");

    RenderScratch &scratch = threadRenderScratch();
    scratch.beginDraw();
    DrawStats stats;
    runGeometry(in, vp, in.backface_cull, scratch, stats);

    // Coarse filter (raster-engine tile reject) + raster work estimate.
    std::uint64_t est_pixels = 0;
    for (std::size_t i = 0; i < scratch.screen_tris.size(); ++i) {
        const ScreenTriangle &st = scratch.screen_tris[i];
        if (!filter.mayTouch(st)) {
            // The raster engine rejects the whole primitive against this
            // GPU's tile set without fine rasterization.
            stats.tris_rasterized -= 1;
            stats.tris_coarse_rejected += 1;
            continue;
        }
        scratch.kept.push_back(static_cast<std::uint32_t>(i));
        est_pixels += boxPixels(st);
    }

    rasterizeKept(scratch, surface, vp, in, filter, est_pixels, grid,
                  touched_tiles, /*by_owner=*/false, &stats);
    return stats;
}

PartitionedDraw
renderDrawPartitioned(Surface &target, const Viewport &vp,
                      const DrawInput &in, const TileGrid &grid,
                      GeometryCharging charging,
                      std::vector<std::uint8_t> *touched_tiles)
{
    CHOPIN_CHECK(target.width() == vp.width && target.height() == vp.height);

    unsigned n = grid.numGpus();
    PartitionedDraw out;
    out.per_gpu.resize(n);
    out.owned_tris.assign(n, 0);

    RenderScratch &scratch = threadRenderScratch();
    scratch.beginDraw();
    DrawStats geom;
    runGeometry(in, vp, /*backface_cull=*/false, scratch, geom);

    if (charging == GeometryCharging::Duplicated) {
        // Every GPU transforms and clips every primitive.
        for (DrawStats &s : out.per_gpu) {
            s.verts_shaded += geom.verts_shaded;
            s.tris_in += geom.tris_in;
            s.tris_clipped += geom.tris_clipped;
            s.tris_culled += geom.tris_culled;
        }
    }
    // Clipped-away primitives never reach any GPU under sort-first
    // distribution (the projection phase drops them).

    // Per-triangle ownership attribution + raster work estimate.
    std::uint64_t est_pixels = 0;
    for (std::size_t i = 0; i < scratch.screen_tris.size(); ++i) {
        const ScreenTriangle &st = scratch.screen_tris[i];
        std::uint64_t mask = grid.overlappedGpus(st);
        bool front = signedScreenArea2(st) > 0.0f;
        bool culled = in.backface_cull && !front;

        for (unsigned g = 0; g < n; ++g) {
            bool owner = (mask >> g) & 1ULL;
            DrawStats &s = out.per_gpu[g];
            if (owner)
                out.owned_tris[g] += 1;

            if (charging == GeometryCharging::OwnersOnly && owner) {
                s.verts_shaded += 3;
                s.tris_in += 1;
            }
            if (culled) {
                bool charged = charging == GeometryCharging::Duplicated ||
                               owner;
                if (charged)
                    s.tris_culled += 1;
                continue;
            }
            if (owner) {
                s.tris_rasterized += 1;
            } else if (charging == GeometryCharging::Duplicated) {
                // Non-owners coarse-reject the primitive in the raster
                // engine; under OwnersOnly they never see it.
                s.tris_coarse_rejected += 1;
            }
        }
        if (culled)
            continue;
        scratch.kept.push_back(static_cast<std::uint32_t>(i));
        est_pixels += boxPixels(st);
    }

    rasterizeKept(scratch, target, vp, in, RenderFilter{}, est_pixels, &grid,
                  touched_tiles, /*by_owner=*/true, out.per_gpu.data());
    return out;
}

} // namespace chopin
