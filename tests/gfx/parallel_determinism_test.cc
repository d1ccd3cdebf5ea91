/**
 * @file
 * Host parallelism vs. simulated parallelism: `--jobs=N` must be
 * bit-identical to `--jobs=1` for every scheme — same frame hash, same
 * full surface content hash, same simulated cycle count, same functional
 * totals. This is the enforcement of DESIGN.md's "Host parallelism vs.
 * simulated parallelism" contract across multiple trace seeds.
 *
 * The trace is ut3 (effect-heavy, ~10% transparent draws) so the run
 * exercises every parallel region: binned rasterization, the partitioned
 * renderer, CHOPIN's per-GPU render fan-out over opaque and transparent
 * groups, and its composition merges.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sfr/schemes.hh"
#include "stats/metrics.hh"
#include "stats/tracer.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

/** Restore a deterministic single-job pool when a test exits. */
struct ScopedJobs
{
    explicit ScopedJobs(unsigned jobs) { setGlobalJobs(jobs); }
    ~ScopedJobs() { setGlobalJobs(1); }
};

void
expectIdentical(const FrameResult &a, const FrameResult &b,
                const std::string &what)
{
    // Every registered metric, not a hand-picked subset: the metric
    // registry (stats/metrics.hh) is the comparison schema, so a counter
    // added to FrameAccounting is automatically under this gate.
    const FrameAccounting &fa = a;
    const FrameAccounting &fb = b;
    EXPECT_TRUE(metricsEqual(fa, fb))
        << what << ": differing metrics: "
        << ::testing::PrintToString(metricsDiff(fa, fb));
}

class ParallelDeterminismTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ParallelDeterminismTest, JobsDoNotChangeResults)
{
    Scheme scheme = GetParam();
    ScopedJobs restore(1);

    // Three distinct seeds of the same profile: different geometry,
    // different group structure, same invariant.
    BenchmarkProfile profile = scaleProfile(benchmarkProfile("ut3"), 32);
    for (int variant = 0; variant < 3; ++variant) {
        BenchmarkProfile p = profile;
        p.seed += static_cast<std::uint64_t>(variant) * 0x9e3779b97f4a7c15ull;
        FrameTrace trace = generateTrace(p);

        // Fewer and more simulated GPUs than host workers: per-GPU
        // fan-outs see both idle workers and workers with several GPUs.
        for (unsigned gpus : {2u, 8u, 16u}) {
            SystemConfig cfg;
            cfg.num_gpus = gpus;
            setGlobalJobs(1);
            FrameResult serial = runScheme(scheme, cfg, trace);

            for (unsigned jobs : {2u, 8u}) {
                setGlobalJobs(jobs);
                FrameResult parallel = runScheme(scheme, cfg, trace);
                expectIdentical(serial, parallel,
                                toString(scheme) + " seed-variant " +
                                    std::to_string(variant) + " gpus=" +
                                    std::to_string(gpus) + " jobs=" +
                                    std::to_string(jobs));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ParallelDeterminismTest,
    ::testing::Values(Scheme::SingleGpu, Scheme::Duplication, Scheme::Gpupd,
                      Scheme::GpupdIdeal, Scheme::ChopinRoundRobin,
                      Scheme::Chopin, Scheme::ChopinCompSched,
                      Scheme::ChopinIdeal),
    [](const auto &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(ParallelDeterminism, TraceBytesIdenticalAcrossJobs)
{
    // The exported timeline is part of the determinism contract: the span
    // sequence is emitted by coordinator-only code, so the Chrome JSON
    // must be byte-identical at any host --jobs value. Gpupd covers the
    // projection/distribution spans, Chopin the direct-send composer's,
    // ChopinCompSched per-draw pipeline spans, interconnect transfers,
    // sync and scheduled composition, ChopinRoundRobin the pipeline spans
    // of draws assigned without progress feedback.
    ScopedJobs restore(1);
    SystemConfig cfg;
    cfg.num_gpus = 4;
    FrameTrace trace = generateBenchmark("ut3", 64);

    for (Scheme scheme : {Scheme::Gpupd, Scheme::ChopinRoundRobin,
                          Scheme::Chopin, Scheme::ChopinCompSched}) {
        std::string baseline;
        for (unsigned jobs : {1u, 2u, 8u}) {
            setGlobalJobs(jobs);
            Tracer tracer;
            runScheme(scheme, cfg, trace, &tracer);
            EXPECT_GT(tracer.spanCount(), 0u) << toString(scheme);

            std::ostringstream os;
            tracer.exportChromeJson(os);
            if (jobs == 1u) {
                baseline = os.str();
                continue;
            }
            EXPECT_TRUE(os.str() == baseline)
                << toString(scheme) << " jobs=" << jobs << ": trace bytes "
                << "differ (" << os.str().size() << " vs "
                << baseline.size() << " bytes)";
        }
    }
}

TEST(ParallelDeterminism, RendererScratchIsReusedAcrossDraws)
{
    // The per-thread scratch must not leak state between draws: rendering
    // the same trace twice in a row on one thread (second run reuses all
    // scratch capacity) must produce identical results.
    ScopedJobs restore(2);
    SystemConfig cfg;
    cfg.num_gpus = 4;
    FrameTrace trace = generateBenchmark("nfs", 32);
    FrameResult a = runScheme(Scheme::Chopin, cfg, trace);
    FrameResult b = runScheme(Scheme::Chopin, cfg, trace);
    expectIdentical(a, b, "scratch reuse");
}

} // namespace
} // namespace chopin
