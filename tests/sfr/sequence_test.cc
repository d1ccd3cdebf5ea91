#include <gtest/gtest.h>

#include <algorithm>

#include "sfr/sequence.hh"
#include "stats/metrics.hh"
#include "stats/tracer.hh"
#include "trace/generator.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

SequenceTrace
testSequence(std::uint32_t frames = 8)
{
    SequenceParams p;
    p.num_frames = frames;
    p.path = CameraPath::Orbit;
    return generateBenchmarkSequence("wolf", 32, p);
}

SequenceOptions
options(SequenceScheme scheme, unsigned groups = 2)
{
    SequenceOptions opt;
    opt.scheme = scheme;
    opt.intra_scheme = Scheme::ChopinCompSched;
    opt.afr_groups = groups;
    return opt;
}

/** Full bit-equality over the stream accounting and every frame. */
void
expectIdentical(const SequenceResult &a, const SequenceResult &b)
{
    EXPECT_TRUE(metricsEqual<SequenceAccounting>(a, b));
    EXPECT_EQ(a.frame_start, b.frame_start);
    EXPECT_EQ(a.frame_complete, b.frame_complete);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i)
        EXPECT_TRUE(metricsEqual<FrameAccounting>(a.frames[i],
                                                  b.frames[i]))
            << "frame " << i << " diverged";
}

TEST(Sequence, HybridRunsEightFramesEndToEnd)
{
    SequenceTrace seq = testSequence(8);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    SequenceResult r =
        runSequence(options(SequenceScheme::HybridAfrSfr, 2), cfg, seq);

    EXPECT_EQ(r.num_frames, 8u);
    EXPECT_EQ(r.afr_groups, 2u);
    EXPECT_EQ(r.gpus_per_group, 4u);
    ASSERT_EQ(r.frames.size(), 8u);
    ASSERT_EQ(r.frame_complete.size(), 8u);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.avg_latency, 0.0);
    EXPECT_GT(r.frames_per_mcycle, 0.0);
    EXPECT_GE(r.worst_frame_interval, 0u);
    EXPECT_GE(r.micro_stutter, 0.0);
    EXPECT_NE(r.sequence_hash, 0u);
    for (const FrameResult &f : r.frames) {
        EXPECT_EQ(f.num_gpus, 4u);
        EXPECT_GT(f.cycles, 0u);
        EXPECT_NE(f.frame_hash, 0u);
    }
    // Frames alternate across the two groups: frame 2 follows frame 0 on
    // group 0, frame 3 follows frame 1 on group 1.
    EXPECT_GT(r.frame_complete[2], r.frame_complete[0]);
    EXPECT_GT(r.frame_complete[3], r.frame_complete[1]);
}

TEST(Sequence, StreamTradeoffAcrossSchemes)
{
    // The paper's Section VI-H trade-off on an 8-frame stream: pure SFR
    // has the best single-frame latency, pure AFR the worst; AFR-style
    // pipelining buys throughput (smaller average completion interval).
    SequenceTrace seq = testSequence(8);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    SequenceResult sfr =
        runSequence(options(SequenceScheme::PureSfr), cfg, seq);
    SequenceResult afr =
        runSequence(options(SequenceScheme::PureAfr), cfg, seq);
    SequenceResult hybrid =
        runSequence(options(SequenceScheme::HybridAfrSfr, 2), cfg, seq);

    EXPECT_EQ(sfr.gpus_per_group, 8u);
    EXPECT_EQ(afr.gpus_per_group, 1u);
    EXPECT_EQ(hybrid.gpus_per_group, 4u);

    EXPECT_LT(sfr.avg_latency, hybrid.avg_latency);
    EXPECT_LT(hybrid.avg_latency, afr.avg_latency);
    EXPECT_LT(afr.avg_frame_interval, sfr.avg_frame_interval);
}

TEST(Sequence, BitIdenticalAcrossJobCounts)
{
    // The tentpole determinism gate: sequence results are bit-identical
    // across --jobs {1, 2, 8}. Frames may be simulated concurrently, but
    // each frame is deterministic and the stream arithmetic is serial.
    SequenceTrace seq = testSequence(8);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    for (SequenceScheme scheme :
         {SequenceScheme::PureSfr, SequenceScheme::PureAfr,
          SequenceScheme::HybridAfrSfr}) {
        setGlobalJobs(1);
        SequenceResult base = runSequence(options(scheme), cfg, seq);
        for (unsigned jobs : {2u, 8u}) {
            setGlobalJobs(jobs);
            SequenceResult r = runSequence(options(scheme), cfg, seq);
            expectIdentical(base, r);
        }
        setGlobalJobs(1);
    }
}

TEST(Sequence, SingleFrameCollapsesToFrameResult)
{
    // num_frames = 1 under pure SFR is exactly today's single-frame run:
    // same accounting bits, stream metrics degenerate to the frame's.
    SequenceTrace seq = testSequence(1);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    SequenceOptions opt = options(SequenceScheme::PureSfr);
    SequenceResult r = runSequence(opt, cfg, seq);

    FrameResult direct = runScheme(opt.intra_scheme, cfg, seq.frame(0));
    ASSERT_EQ(r.frames.size(), 1u);
    EXPECT_TRUE(metricsEqual<FrameAccounting>(r.frames[0], direct));
    EXPECT_EQ(r.makespan, direct.cycles);
    EXPECT_EQ(r.avg_latency, static_cast<double>(direct.cycles));
    EXPECT_EQ(r.micro_stutter, 0.0);
    EXPECT_EQ(r.frame_start[0], 0u);
    EXPECT_EQ(r.frame_complete[0], direct.cycles);
}

TEST(Sequence, CarryOverOverlapsTailsWithoutChangingLatency)
{
    SequenceTrace seq = testSequence(6);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    SequenceOptions with = options(SequenceScheme::HybridAfrSfr, 2);
    with.carry_over = true;
    SequenceOptions without = with;
    without.carry_over = false;

    SequenceResult a = runSequence(with, cfg, seq);
    SequenceResult b = runSequence(without, cfg, seq);

    // Per-frame simulations are untouched by the stream schedule.
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i)
        EXPECT_TRUE(metricsEqual<FrameAccounting>(a.frames[i],
                                                  b.frames[i]));
    // Carry-over can only pull completions earlier, never later.
    for (std::size_t i = 0; i < a.frames.size(); ++i)
        EXPECT_LE(a.frame_complete[i], b.frame_complete[i]);
    EXPECT_LE(a.makespan, b.makespan);
    // CHOPIN frames have a composition tail, so the overlap is real.
    EXPECT_LT(a.makespan, b.makespan);
}

TEST(Sequence, TracerGetsOneSpanPerFrame)
{
    SequenceTrace seq = testSequence(4);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    Tracer tracer;
    SequenceResult r = runSequence(
        options(SequenceScheme::HybridAfrSfr, 2), cfg, seq, &tracer);
    EXPECT_EQ(r.num_frames, 4u);
    EXPECT_EQ(tracer.spanCount(), 4u);
}

TEST(Sequence, PureSfrWithoutCarryOverSerializesFrames)
{
    // One group, no overlap: frames render back to back, so the makespan
    // is the sum of the frames' cycles.
    SequenceTrace seq = testSequence(3);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    SequenceOptions opt = options(SequenceScheme::PureSfr);
    opt.carry_over = false;
    SequenceResult r = runSequence(opt, cfg, seq);
    EXPECT_EQ(r.afr_groups, 1u);
    EXPECT_EQ(r.gpus_per_group, 8u);
    ASSERT_EQ(r.frames.size(), 3u);
    Tick sum = 0;
    for (const FrameResult &f : r.frames)
        sum += f.cycles;
    EXPECT_EQ(r.makespan, sum);
}

TEST(Sequence, PureAfrMakespanIsSlowestFrame)
{
    // num_gpus single-GPU groups render up to num_gpus frames at once:
    // the makespan is the slowest frame, not the sum.
    SequenceTrace seq = testSequence(4);
    SystemConfig cfg;
    cfg.num_gpus = 4;
    SequenceResult r =
        runSequence(options(SequenceScheme::PureAfr), cfg, seq);
    EXPECT_EQ(r.gpus_per_group, 1u);
    ASSERT_EQ(r.frames.size(), 4u);
    Tick slowest = 0, sum = 0;
    for (const FrameResult &f : r.frames) {
        slowest = std::max(slowest, f.cycles);
        sum += f.cycles;
    }
    EXPECT_EQ(r.makespan, slowest);
    EXPECT_LT(r.makespan, sum);
}

TEST(SequenceDeath, IndivisibleGroupCountPanics)
{
    SequenceTrace seq = testSequence(2);
    SystemConfig cfg;
    cfg.num_gpus = 8;
    EXPECT_DEATH(runSequence(options(SequenceScheme::HybridAfrSfr, 3),
                             cfg, seq),
                 "not divisible");
}

} // namespace
} // namespace chopin
