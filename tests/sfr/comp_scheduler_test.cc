#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "sfr/comp_scheduler.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

/** Build a job with uniform region sizes and given ready times. */
CompositionJob
makeJob(std::vector<Tick> ready, std::uint64_t pair_px = 4096,
        std::uint64_t self_px = 4096)
{
    CompositionJob job;
    job.num_gpus = static_cast<unsigned>(ready.size());
    job.ready = std::move(ready);
    job.pair_pixels.assign(
        static_cast<std::size_t>(job.num_gpus) * job.num_gpus, pair_px);
    for (unsigned g = 0; g < job.num_gpus; ++g)
        job.pair_pixels[static_cast<std::size_t>(g) * job.num_gpus + g] = 0;
    job.self_pixels.assign(job.num_gpus, self_px);
    job.subimage_pixels.assign(job.num_gpus,
                               pair_px * (job.num_gpus - 1) + self_px);
    job.screen_pixels = 1u << 20;
    return job;
}

TimingParams timing;
LinkParams link{64.0, 200};

using ComposeFn = CompositionTiming (*)(const CompositionJob &,
                                        Interconnect &,
                                        const TimingParams &);

const std::pair<std::string_view, ComposeFn> kAlgos[] = {
    {"direct", &composeOpaqueDirectSend},
    {"scheduled", &composeOpaqueScheduled},
    {"chain", &composeTransparentChain},
    {"tree", &composeTransparentTree},
};

// The name is held inline, not by pointer, and the fixture looks the
// function up by it: gtest prints a parameter type that has no printer as
// its raw bytes, ctest names each discovered test with that text, and an
// address there would rename the tests on every build.
struct AlgoCase
{
    char name[16];
};

class CompositionLiveness : public ::testing::TestWithParam<AlgoCase>
{
  protected:
    void SetUp() override
    {
        for (const auto &[name, compose] : kAlgos)
            if (name == GetParam().name)
                fn = compose;
        ASSERT_NE(fn, nullptr) << GetParam().name;
    }

    ComposeFn fn = nullptr;
};

TEST_P(CompositionLiveness, CompletesForRandomReadyTimes)
{
    for (unsigned n : {1u, 2u, 3u, 4u, 5u, 8u, 16u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed * 977 + n);
            std::vector<Tick> ready(n);
            for (Tick &r : ready)
                r = rng.nextBounded(100000);
            CompositionJob job = makeJob(ready);
            // Randomize region sizes too, keeping the ownership invariant:
            // routed pixels must equal the touched sub-image pixels.
            for (std::uint64_t &p : job.pair_pixels)
                p = p ? rng.nextBounded(20000) : 0;
            for (unsigned g = 0; g < n; ++g) {
                std::uint64_t routed = job.self_pixels[g];
                for (unsigned dst = 0; dst < n; ++dst)
                    routed += job.pairPixels(g, dst);
                job.subimage_pixels[g] = routed;
            }
            Interconnect net(n, link);
            CompositionTiming t = fn(job, net, timing);
            Tick max_ready = *std::max_element(job.ready.begin(),
                                               job.ready.end());
            EXPECT_GE(t.end, max_ready) << GetParam().name << " n=" << n;
            ASSERT_EQ(t.gpu_done.size(), n);
            for (Tick d : t.gpu_done)
                EXPECT_LE(d, t.end);
        }
    }
}

TEST_P(CompositionLiveness, SingleGpuMovesNoBytes)
{
    // N=1 collapses every algorithm to "the sole GPU already holds the
    // frame": no traffic, no messages, and completion is bounded by the
    // GPU's own readiness plus local composition work.
    for (Tick ready : {Tick{0}, Tick{12345}}) {
        CompositionJob job = makeJob({ready});
        Interconnect net(1, link);
        CompositionTiming t = fn(job, net, timing);
        EXPECT_EQ(net.traffic().total, 0u) << GetParam().name;
        EXPECT_EQ(net.traffic().messages, 0u) << GetParam().name;
        EXPECT_GE(t.end, ready) << GetParam().name;
        ASSERT_EQ(t.gpu_done.size(), 1u);
        EXPECT_LE(t.gpu_done[0], t.end) << GetParam().name;
    }
}

TEST_P(CompositionLiveness, SingleGpuWithEmptySubimageFinishesAtReady)
{
    // The fully degenerate job: one GPU, nothing rendered. No composition
    // work exists, so the phase must end exactly when the GPU is ready.
    CompositionJob job = makeJob({777}, 0, 0);
    job.subimage_pixels[0] = 0;
    Interconnect net(1, link);
    CompositionTiming t = fn(job, net, timing);
    EXPECT_EQ(net.traffic().total, 0u) << GetParam().name;
    EXPECT_EQ(t.end, 777u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Algos, CompositionLiveness,
    ::testing::Values(AlgoCase{"direct"}, AlgoCase{"scheduled"},
                      AlgoCase{"chain"}, AlgoCase{"tree"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(CompositionScheduler, SchedulerBeatsNaiveUnderStragglers)
{
    // The paper's motivating scenario: most GPUs finish early, one lags.
    // Naive direct-send convoys on the straggler; the scheduler lets the
    // early GPUs compose among themselves first.
    std::vector<Tick> ready{500000, 0, 0, 0, 0, 0, 0, 0};
    CompositionJob job = makeJob(ready, 64000);
    Interconnect net_naive(8, link);
    Interconnect net_sched(8, link);
    Tick naive = composeOpaqueDirectSend(job, net_naive, timing).end;
    Tick sched = composeOpaqueScheduled(job, net_sched, timing).end;
    EXPECT_LT(sched, naive);
}

TEST(CompositionScheduler, EveryPairExchangesExactlyOnce)
{
    unsigned n = 8;
    CompositionJob job = makeJob(std::vector<Tick>(n, 0), 1000);
    Interconnect net(n, link);
    composeOpaqueScheduled(job, net, timing);
    // n*(n-1) pairwise messages (each unordered pair exchanges both ways).
    EXPECT_EQ(net.traffic().messages, static_cast<std::uint64_t>(n * (n - 1)));
    EXPECT_EQ(net.traffic().ofClass(TrafficClass::Composition),
              static_cast<Bytes>(n * (n - 1)) * 1000 * 8);
}

TEST(CompositionScheduler, DirectSendMovesTheSameVolume)
{
    unsigned n = 8;
    CompositionJob job = makeJob(std::vector<Tick>(n, 0), 1000);
    Interconnect a(n, link), b(n, link);
    composeOpaqueDirectSend(job, a, timing);
    composeOpaqueScheduled(job, b, timing);
    EXPECT_EQ(a.traffic().total, b.traffic().total);
}

TEST(CompositionScheduler, SingleGpuComposesLocallyOnly)
{
    CompositionJob job = makeJob({1000});
    Interconnect net(1, link);
    CompositionTiming t = composeOpaqueScheduled(job, net, timing);
    EXPECT_EQ(net.traffic().total, 0u);
    EXPECT_GE(t.end, 1000u);
}

TEST(CompositionScheduler, ZeroPixelCompositionIsNearlyFree)
{
    unsigned n = 4;
    CompositionJob job = makeJob(std::vector<Tick>(n, 100), 0, 0);
    for (std::uint64_t &p : job.subimage_pixels)
        p = 0;
    Interconnect net(n, link);
    CompositionTiming t = composeOpaqueScheduled(job, net, timing);
    // Only wire latency remains.
    EXPECT_LE(t.end, 100 + 3 * link.latency + 10);
}

TEST(TransparentComposition, TreeTradesTrafficForAsynchrony)
{
    // With every GPU ready at once, the chain moves only leaf sub-images
    // while the tree's upper levels move growing partial composites: the
    // chain's traffic is strictly lower. The tree's payoff is asynchrony
    // under staggered readiness (next test).
    unsigned n = 8;
    CompositionJob job = makeJob(std::vector<Tick>(n, 0), 8000);
    for (unsigned g = 0; g < n; ++g)
        job.subimage_pixels[g] = 100000;
    Interconnect a(n, link), b(n, link);
    Tick chain = composeTransparentChain(job, a, timing).end;
    Tick tree = composeTransparentTree(job, b, timing).end;
    EXPECT_GT(chain, 0u);
    EXPECT_GT(tree, 0u);
    EXPECT_LT(a.traffic().total, b.traffic().total);
}

TEST(TransparentComposition, TreeOverlapsMergesUnderStaggeredReadiness)
{
    // GPUs finish staggered in reverse id order — the chain's left fold
    // must wait on its very first input while the tree merges the ready
    // adjacent pairs immediately.
    std::vector<Tick> ready{700000, 600000, 500000, 400000, 300000, 200000,
                            100000, 0};
    CompositionJob job = makeJob(ready, 4096);
    for (unsigned g = 0; g < 8; ++g)
        job.subimage_pixels[g] = 200000;
    Interconnect a(8, link), b(8, link);
    Tick chain = composeTransparentChain(job, a, timing).end;
    Tick tree = composeTransparentTree(job, b, timing).end;
    EXPECT_LE(tree, chain);
    EXPECT_GE(tree, 700000u); // cannot finish before the last GPU renders
}

TEST(TransparentComposition, ChainTrafficIsSubimagesPlusDistribution)
{
    unsigned n = 4;
    CompositionJob job = makeJob(std::vector<Tick>(n, 0), 0, 0);
    for (unsigned g = 0; g < n; ++g)
        job.subimage_pixels[g] = 1000;
    job.screen_pixels = 1 << 20;
    Interconnect net(n, link);
    composeTransparentChain(job, net, timing);
    // Sends into the fold: 3 x 1000 px; distribution: composite is 4000 px,
    // each non-holder owner gets 1/4 = 1000 px, 3 transfers.
    EXPECT_EQ(net.traffic().total, (3 * 1000 + 3 * 1000) * 8u);
}

} // namespace
} // namespace chopin
