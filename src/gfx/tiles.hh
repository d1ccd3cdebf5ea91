/**
 * @file
 * Screen tiling and tile-to-GPU ownership.
 *
 * SFR splits the 2D screen into 64x64-pixel tiles interleaved across GPUs
 * (Section V of the paper). The same ownership map is used by the primitive
 * duplication baseline and GPUpd (a GPU rasterizes only its own tiles) and
 * by CHOPIN's composition step (pixels are sent to their region owner).
 */

#ifndef CHOPIN_GFX_TILES_HH
#define CHOPIN_GFX_TILES_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gfx/geometry.hh"
#include "util/types.hh"

namespace chopin
{

/** Default SFR tile edge in pixels (paper: 64x64). */
inline constexpr int defaultTileSize = 64;

/**
 * How screen tiles are assigned to GPUs. The paper interleaves 64x64 tiles
 * (fine-grained, balances fragment load); blocked assignment (one
 * contiguous band per GPU) is the classic sort-first split, kept as an
 * ablation: it minimizes the primitive duplication GPUpd suffers at tile
 * boundaries but concentrates hot screen regions on single GPUs.
 */
enum class TileAssignment : std::uint8_t
{
    Interleaved, ///< tile i -> GPU i mod N (the paper's scheme)
    Blocked,     ///< contiguous horizontal bands of tiles
};

/** Tile-ownership map for an N-GPU system. */
class TileGrid
{
  public:
    TileGrid() = default;

    /**
     * @param width,height screen size in pixels
     * @param num_gpus     GPUs sharing the screen
     * @param tile_size    tile edge in pixels
     * @param assignment   ownership policy
     */
    TileGrid(int width, int height, unsigned num_gpus,
             int tile_size = defaultTileSize,
             TileAssignment assignment = TileAssignment::Interleaved);

    int tileSize() const { return tile; }
    int tilesX() const { return tx; }
    int tilesY() const { return ty; }
    int tileCount() const { return tx * ty; }
    unsigned numGpus() const { return gpus; }
    int width() const { return w; }
    int height() const { return h; }

    /** Owner of the tile containing pixel (x, y). */
    GpuId
    ownerOfPixel(int x, int y) const
    {
        return ownerOfTile(x / tile, y / tile);
    }

    /** Owner of tile (tile_x, tile_y) under the assignment policy. */
    GpuId
    ownerOfTile(int tile_x, int tile_y) const
    {
        int index = tile_y * tx + tile_x;
        if (policy == TileAssignment::Blocked) {
            return static_cast<GpuId>(
                std::min<std::uint64_t>(gpus - 1,
                                        static_cast<std::uint64_t>(index) *
                                            gpus /
                                            static_cast<std::uint64_t>(
                                                tileCount())));
        }
        return static_cast<GpuId>(index % gpus);
    }

    /** Linear tile index of pixel (x, y). */
    int
    tileIndexOfPixel(int x, int y) const
    {
        return (y / tile) * tx + (x / tile);
    }

    /** Number of pixels actually inside tile @p t (edge tiles are partial). */
    int pixelsInTile(int tile_index) const;

    /**
     * Ownership-partition invariant: every screen pixel belongs to exactly
     * one GPU, every owner id is valid, and the per-owner pixel counts sum
     * to width*height. O(tiles); used by DCHECKs and the tile tests.
     */
    bool ownersPartitionScreen() const;

    /**
     * GPUs whose tiles a screen triangle's bounding box overlaps — the set
     * of destination GPUs GPUpd must send this primitive to.
     *
     * @return bitmask over GPU ids (bit g set = GPU g receives the primitive).
     */
    std::uint64_t overlappedGpus(const ScreenTriangle &tri) const;

  private:
    int w = 0;
    int h = 0;
    int tile = defaultTileSize;
    int tx = 0;
    int ty = 0;
    unsigned gpus = 1;
    TileAssignment policy = TileAssignment::Interleaved;
};

} // namespace chopin

#endif // CHOPIN_GFX_TILES_HH
