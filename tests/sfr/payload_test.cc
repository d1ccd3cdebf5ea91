#include <gtest/gtest.h>

#include "sfr/schemes.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

const FrameTrace &
testTrace()
{
    static FrameTrace trace = generateBenchmark("grid", 16);
    return trace;
}

FrameResult
runWithPayload(CompPayload payload)
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.comp_payload = payload;
    return runChopin(cfg, testTrace(),
                     {DrawPolicy::FewestRemaining, true, false});
}

TEST(CompPayload, GranularityOrdersTraffic)
{
    FrameResult pixels = runWithPayload(CompPayload::WrittenPixels);
    FrameResult subtiles = runWithPayload(CompPayload::SubTiles);
    FrameResult tiles = runWithPayload(CompPayload::FullTiles);
    Bytes a = pixels.traffic.ofClass(TrafficClass::Composition);
    Bytes b = subtiles.traffic.ofClass(TrafficClass::Composition);
    Bytes c = tiles.traffic.ofClass(TrafficClass::Composition);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    // Coarser payloads can only slow the frame down.
    EXPECT_LE(pixels.cycles, subtiles.cycles);
    EXPECT_LE(subtiles.cycles, tiles.cycles);
}

TEST(CompPayload, CompositionBytesArePinned)
{
    // Exact traffic per payload mode on a viewport whose sides are not
    // multiples of 8 or 64 (cry at 1/8 scale is 282x212), so partial 8x8
    // blocks and partial tiles both count. The values were recorded with
    // an independent count that scanned every pixel of every touched tile.
    static const FrameTrace cry = generateBenchmark("cry", 8);
    ASSERT_EQ(cry.viewport.width, 282);
    ASSERT_EQ(cry.viewport.height, 212);
    auto bytes = [](CompPayload payload) {
        SystemConfig cfg;
        cfg.num_gpus = 8;
        cfg.comp_payload = payload;
        return runChopin(cfg, cry, {DrawPolicy::FewestRemaining, true, false})
            .traffic.ofClass(TrafficClass::Composition);
    };
    EXPECT_EQ(bytes(CompPayload::WrittenPixels), 1334560u);
    EXPECT_EQ(bytes(CompPayload::SubTiles), 1890752u);
    EXPECT_EQ(bytes(CompPayload::FullTiles), 6335680u);
}

TEST(CompPayload, GranularityNeverChangesTheImage)
{
    FrameResult pixels = runWithPayload(CompPayload::WrittenPixels);
    FrameResult tiles = runWithPayload(CompPayload::FullTiles);
    EXPECT_EQ(pixels.frame_hash, tiles.frame_hash);
}

TEST(TileAssignmentInvariance, BlockedProducesTheSameImage)
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    FrameResult inter = runChopin(cfg, testTrace(),
                                  {DrawPolicy::FewestRemaining, true,
                                   false});
    cfg.tile_assignment = TileAssignment::Blocked;
    FrameResult blocked = runChopin(cfg, testTrace(),
                                    {DrawPolicy::FewestRemaining, true,
                                     false});
    // Ownership only decides which GPU holds which pixels; the composed
    // frame is identical.
    EXPECT_EQ(inter.frame_hash, blocked.frame_hash);
    FrameResult dup_blocked = runDuplication(cfg, testTrace());
    EXPECT_EQ(inter.frame_hash, dup_blocked.frame_hash);
}

TEST(CompPayload, Names)
{
    EXPECT_EQ(toString(CompPayload::WrittenPixels), "written-pixels");
    EXPECT_EQ(toString(CompPayload::SubTiles), "8x8-subtiles");
    EXPECT_EQ(toString(CompPayload::FullTiles), "full-tiles");
}

} // namespace
} // namespace chopin
