/**
 * @file
 * Determinism: the whole stack — generator, schedulers, event queue,
 * interconnect — is seeded and ordered, so identical inputs must produce
 * bit-identical results. (CONTRIBUTING.md makes this a standing rule; this
 * suite is its enforcement.)
 */

#include <gtest/gtest.h>

#include "sfr/schemes.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

class DeterminismTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical)
{
    Scheme scheme = GetParam();
    FrameTrace trace = generateBenchmark("nfs", 16);
    SystemConfig cfg;
    cfg.num_gpus = 8;

    Image a_image, b_image;
    FrameResult a = runScheme(scheme, cfg, trace, nullptr, &a_image);
    FrameResult b = runScheme(scheme, cfg, trace, nullptr, &b_image);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.traffic.total, b.traffic.total);
    EXPECT_EQ(a.traffic.messages, b.traffic.messages);
    EXPECT_EQ(a.breakdown.composition, b.breakdown.composition);
    EXPECT_EQ(a.totals.frags_written, b.totals.frags_written);
    ASSERT_EQ(a_image.width(), trace.viewport.width);
    ASSERT_EQ(a_image.height(), trace.viewport.height);
    EXPECT_EQ(compareImages(a_image, b_image).differing_pixels, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DeterminismTest,
    ::testing::Values(Scheme::SingleGpu, Scheme::Duplication, Scheme::Gpupd,
                      Scheme::Chopin, Scheme::ChopinCompSched),
    [](const auto &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Determinism, RegeneratedTraceIsByteStable)
{
    // Two independent generator invocations of the same profile agree on
    // every float of every vertex (PCG32 + local distributions only).
    FrameTrace a = generateBenchmark("grid", 8);
    FrameTrace b = generateBenchmark("grid", 8);
    ASSERT_EQ(a.draws.size(), b.draws.size());
    for (std::size_t d = 0; d < a.draws.size(); ++d) {
        ASSERT_EQ(a.draws[d].triangles.size(), b.draws[d].triangles.size());
        for (std::size_t t = 0; t < a.draws[d].triangles.size(); ++t)
            for (int v = 0; v < 3; ++v) {
                ASSERT_EQ(a.draws[d].triangles[t].v[v].pos.x,
                          b.draws[d].triangles[t].v[v].pos.x);
                ASSERT_EQ(a.draws[d].triangles[t].v[v].pos.y,
                          b.draws[d].triangles[t].v[v].pos.y);
                ASSERT_EQ(a.draws[d].triangles[t].v[v].pos.z,
                          b.draws[d].triangles[t].v[v].pos.z);
            }
    }
}

} // namespace
} // namespace chopin
