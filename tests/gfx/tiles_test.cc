#include <gtest/gtest.h>

#include <set>

#include "gfx/tiles.hh"

namespace chopin
{
namespace
{

TEST(Tiles, GridDimensionsRoundUp)
{
    TileGrid grid(1280, 1024, 8);
    EXPECT_EQ(grid.tilesX(), 20);
    EXPECT_EQ(grid.tilesY(), 16);
    EXPECT_EQ(grid.tileCount(), 320);

    TileGrid odd(130, 65, 4);
    EXPECT_EQ(odd.tilesX(), 3);
    EXPECT_EQ(odd.tilesY(), 2);
}

TEST(Tiles, EveryPixelHasExactlyOneOwner)
{
    TileGrid grid(130, 70, 3, 32);
    for (int y = 0; y < 70; ++y) {
        for (int x = 0; x < 130; ++x) {
            GpuId owner = grid.ownerOfPixel(x, y);
            ASSERT_LT(owner, 3u);
        }
    }
}

TEST(Tiles, OwnershipInterleavesEvenly)
{
    TileGrid grid(1280, 1024, 8);
    std::vector<int> tiles_per_gpu(8, 0);
    for (int ty = 0; ty < grid.tilesY(); ++ty)
        for (int tx = 0; tx < grid.tilesX(); ++tx)
            tiles_per_gpu[grid.ownerOfTile(tx, ty)] += 1;
    for (int g = 0; g < 8; ++g)
        EXPECT_EQ(tiles_per_gpu[g], 40); // 320 tiles / 8 GPUs
}

TEST(Tiles, SingleGpuOwnsEverything)
{
    TileGrid grid(640, 480, 1);
    EXPECT_EQ(grid.ownerOfPixel(0, 0), 0u);
    EXPECT_EQ(grid.ownerOfPixel(639, 479), 0u);
}

TEST(Tiles, PixelsInEdgeTilesArePartial)
{
    TileGrid grid(130, 70, 2, 64);
    // Tile (0,0): full 64x64.
    EXPECT_EQ(grid.pixelsInTile(0), 64 * 64);
    // Tile (2,0): 130 - 128 = 2 columns wide.
    EXPECT_EQ(grid.pixelsInTile(2), 2 * 64);
    // Tile (2,1): 2 wide x 6 tall.
    EXPECT_EQ(grid.pixelsInTile(grid.tilesX() + 2), 2 * 6);
    // All tiles sum to the screen area.
    int total = 0;
    for (int t = 0; t < grid.tileCount(); ++t)
        total += grid.pixelsInTile(t);
    EXPECT_EQ(total, 130 * 70);
}

ScreenTriangle
triAt(float x0, float y0, float x1, float y1, float x2, float y2)
{
    ScreenTriangle t;
    t.v[0] = {{x0, y0}, 0.5f, {}};
    t.v[1] = {{x1, y1}, 0.5f, {}};
    t.v[2] = {{x2, y2}, 0.5f, {}};
    return t;
}

TEST(Tiles, OverlappedGpusMatchesBruteForce)
{
    TileGrid grid(512, 512, 4);
    ScreenTriangle t = triAt(10, 10, 200, 40, 90, 300);
    std::uint64_t mask = grid.overlappedGpus(t);

    // Brute force over the bounding box tiles.
    std::uint64_t expected = 0;
    int x0, y0, x1, y1;
    t.boundingBox(512, 512, x0, y0, x1, y1);
    for (int ty = y0 / 64; ty <= y1 / 64; ++ty)
        for (int tx = x0 / 64; tx <= x1 / 64; ++tx)
            expected |= 1ULL << grid.ownerOfTile(tx, ty);
    EXPECT_EQ(mask, expected);
}

TEST(Tiles, TinyTriangleTouchesOneGpu)
{
    TileGrid grid(512, 512, 8);
    std::uint64_t mask = grid.overlappedGpus(triAt(10, 10, 12, 10, 10, 12));
    EXPECT_EQ(__builtin_popcountll(mask), 1);
}

TEST(Tiles, FullScreenTriangleTouchesAllGpus)
{
    TileGrid grid(512, 512, 8);
    std::uint64_t mask =
        grid.overlappedGpus(triAt(-600, -600, 1200, -600, -600, 1200));
    EXPECT_EQ(mask, 0xffULL);
}

TEST(Tiles, OffscreenTriangleTouchesNothing)
{
    TileGrid grid(512, 512, 8);
    EXPECT_EQ(grid.overlappedGpus(triAt(600, 600, 700, 600, 600, 700)), 0u);
}

TEST(Tiles, BlockedAssignmentIsContiguous)
{
    TileGrid grid(1280, 1024, 8, 64, TileAssignment::Blocked);
    GpuId prev = 0;
    std::vector<int> tiles_per_gpu(8, 0);
    for (int t = 0; t < grid.tileCount(); ++t) {
        GpuId owner = grid.ownerOfTile(t % grid.tilesX(), t / grid.tilesX());
        ASSERT_GE(owner, prev) << "blocked ownership must be monotonic";
        prev = owner;
        tiles_per_gpu[owner] += 1;
    }
    // 320 tiles over 8 GPUs: equal 40-tile bands.
    for (int g = 0; g < 8; ++g)
        EXPECT_EQ(tiles_per_gpu[g], 40);
}

TEST(Tiles, BlockedAssignmentCoversAllGpus)
{
    TileGrid grid(640, 480, 5, 64, TileAssignment::Blocked);
    std::vector<bool> seen(5, false);
    for (int t = 0; t < grid.tileCount(); ++t)
        seen[grid.ownerOfTile(t % grid.tilesX(), t / grid.tilesX())] = true;
    for (int g = 0; g < 5; ++g)
        EXPECT_TRUE(seen[g]) << "GPU " << g << " owns no tiles";
}

TEST(Tiles, OwnersPartitionScreenUnderEveryAssignment)
{
    // The composition-ownership invariant: every pixel has exactly one
    // owner below the GPU count, for awkward sizes and both assignments.
    for (TileAssignment a :
         {TileAssignment::Interleaved, TileAssignment::Blocked}) {
        EXPECT_TRUE(TileGrid(130, 70, 3, 32, a).ownersPartitionScreen());
        EXPECT_TRUE(TileGrid(1280, 1024, 8, 64, a).ownersPartitionScreen());
        EXPECT_TRUE(TileGrid(1, 1, 1, 64, a).ownersPartitionScreen());
        EXPECT_TRUE(TileGrid(63, 129, 5, 64, a).ownersPartitionScreen());
    }
}

TEST(Tiles, SmallTriangleTouchesFewerGpusUnderBlocked)
{
    // The tradeoff behind the paper's interleaving: blocked assignment
    // keeps a local triangle on one GPU (fewer GPUpd duplicates) while
    // interleaving spreads the same area over many GPUs.
    TileGrid inter(1280, 1024, 8, 64, TileAssignment::Interleaved);
    TileGrid block(1280, 1024, 8, 64, TileAssignment::Blocked);
    ScreenTriangle t = triAt(100, 100, 350, 120, 150, 360);
    EXPECT_LT(__builtin_popcountll(block.overlappedGpus(t)),
              __builtin_popcountll(inter.overlappedGpus(t)));
}

} // namespace
} // namespace chopin
