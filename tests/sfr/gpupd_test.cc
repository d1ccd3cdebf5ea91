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
    static FrameTrace trace = generateBenchmark("nfs", 16);
    return trace;
}

TEST(Gpupd, DistributionTrafficIsAccounted)
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    FrameResult r = runGpupd(cfg, testTrace(), false);
    Bytes dist = r.traffic.ofClass(TrafficClass::PrimDist);
    EXPECT_GT(dist, 0u);
    // Each primitive ID is 4 bytes and primitives may be duplicated to
    // several owners; total ID bytes stay within a small multiple of 4B/tri.
    std::uint64_t tris = testTrace().totalTriangles();
    EXPECT_LE(dist, tris * 4 * 8);
    EXPECT_GE(dist, tris); // at least ~1 byte/tri reaches the network
}

TEST(Gpupd, DistributionOverheadGrowsWithGpuCount)
{
    double prev = 0.0;
    for (unsigned gpus : {2u, 4u, 8u}) {
        SystemConfig cfg;
        cfg.num_gpus = gpus;
        FrameResult r = runGpupd(cfg, testTrace(), false);
        double frac = static_cast<double>(r.breakdown.prim_distribution) /
                      static_cast<double>(r.cycles);
        EXPECT_GT(frac, prev) << gpus << " GPUs";
        prev = frac;
    }
}

TEST(Gpupd, LargerBatchesReduceDistributionTime)
{
    SystemConfig small_batches;
    small_batches.num_gpus = 8;
    small_batches.gpupd_batch_prims = 256;
    SystemConfig big_batches = small_batches;
    big_batches.gpupd_batch_prims = 16384;
    FrameResult small_r = runGpupd(small_batches, testTrace(), false);
    FrameResult big_r = runGpupd(big_batches, testTrace(), false);
    // Fewer batches -> fewer sequential latency-bound phases.
    EXPECT_LT(big_r.breakdown.prim_distribution,
              small_r.breakdown.prim_distribution);
}

TEST(Gpupd, RunaheadNeverHurts)
{
    SystemConfig with;
    with.num_gpus = 8;
    with.gpupd_runahead = true;
    SystemConfig without = with;
    without.gpupd_runahead = false;
    FrameResult with_r = runGpupd(with, testTrace(), false);
    FrameResult without_r = runGpupd(without, testTrace(), false);
    EXPECT_LE(with_r.cycles, without_r.cycles);
    // Functionally identical either way.
    EXPECT_EQ(with_r.frame_hash, without_r.frame_hash);
}

TEST(Gpupd, IdealHasNoDistributionStall)
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    FrameResult ideal = runGpupd(cfg, testTrace(), true);
    FrameResult real = runGpupd(cfg, testTrace(), false);
    EXPECT_EQ(ideal.breakdown.prim_distribution, 0u);
    EXPECT_LT(ideal.cycles, real.cycles);
}

TEST(Gpupd, GeometryIsDeduplicatedVersusDuplication)
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    FrameResult gpupd = runGpupd(cfg, testTrace(), false);
    FrameResult dup = runDuplication(cfg, testTrace());
    // Sort-first distribution removes most redundant vertex shading;
    // only multi-tile primitives stay duplicated.
    EXPECT_LT(gpupd.geom_busy, dup.geom_busy);
    // Fragment work is identical: same tiles, same fragments.
    EXPECT_EQ(gpupd.totals.frags_written, dup.totals.frags_written);
}

TEST(Gpupd, LatencySensitivityComesFromSequentialPhases)
{
    SystemConfig lo;
    lo.num_gpus = 8;
    lo.link.latency = 100;
    SystemConfig hi = lo;
    hi.link.latency = 400;
    FrameResult lo_r = runGpupd(lo, testTrace(), false);
    FrameResult hi_r = runGpupd(hi, testTrace(), false);
    EXPECT_GT(hi_r.breakdown.prim_distribution,
              lo_r.breakdown.prim_distribution);
}

} // namespace
} // namespace chopin
