#include "gfx/tiles.hh"

#include <algorithm>

#include "util/check.hh"

namespace chopin
{

TileGrid::TileGrid(int width, int height, unsigned num_gpus, int tile_size,
                   TileAssignment assignment)
    : w(width), h(height), tile(tile_size), gpus(num_gpus),
      policy(assignment)
{
    CHOPIN_CHECK(width > 0 && height > 0 && num_gpus > 0 && tile_size > 0);
    tx = (width + tile - 1) / tile;
    ty = (height + tile - 1) / tile;
}

int
TileGrid::pixelsInTile(int tile_index) const
{
    int tile_x = tile_index % tx;
    int tile_y = tile_index / tx;
    int px = std::min(tile, w - tile_x * tile);
    int py = std::min(tile, h - tile_y * tile);
    return px * py;
}

bool
TileGrid::ownersPartitionScreen() const
{
    // ownerOfTile() is a function of the tile index, so each pixel has at
    // most one owner by construction; what can break is owners falling
    // outside [0, gpus) or partial edge tiles miscounting pixels.
    std::vector<std::uint64_t> owned(gpus, 0);
    for (int t = 0; t < tileCount(); ++t) {
        GpuId owner = ownerOfTile(t % tx, t / tx);
        if (owner >= gpus)
            return false;
        owned[owner] += static_cast<std::uint64_t>(pixelsInTile(t));
    }
    std::uint64_t total = 0;
    for (std::uint64_t n : owned)
        total += n;
    return total == static_cast<std::uint64_t>(w) *
                        static_cast<std::uint64_t>(h);
}

std::uint64_t
TileGrid::overlappedGpus(const ScreenTriangle &tri) const
{
    std::uint64_t mask = 0;
    std::uint64_t all = gpus >= 64 ? ~0ULL : ((1ULL << gpus) - 1);
    PixelRect r = tri.boundsRect(w, h);
    if (r.empty())
        return 0;
    for (int tyi = r.y0 / tile; tyi <= r.y1 / tile; ++tyi) {
        for (int txi = r.x0 / tile; txi <= r.x1 / tile; ++txi) {
            mask |= 1ULL << ownerOfTile(txi, tyi);
            if (mask == all)
                return mask; // every GPU already covered
        }
    }
    return mask;
}

} // namespace chopin
