/**
 * @file
 * The image-equality oracle: every multi-GPU SFR scheme must produce the
 * same frame as in-order single-GPU rendering, for every benchmark trace.
 * Opaque content must match bit-exactly (the composition operators are
 * exact selections); transparent chains may differ by float-rounding of the
 * associativity rewrite, bounded by a small tolerance.
 */

#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "sfr/schemes.hh"
#include "trace/generator.hh"
#include "util/check.hh"

namespace chopin
{
namespace
{

/** Shared trace/reference cache so each benchmark renders its oracle once. */
struct OracleCache
{
    static OracleCache &
    instance()
    {
        static OracleCache cache;
        return cache;
    }

    const FrameTrace &
    trace(const std::string &bench)
    {
        auto it = traces.find(bench);
        if (it == traces.end())
            it = traces.emplace(bench, generateBenchmark(bench, 16)).first;
        return it->second;
    }

    /** The single-GPU image. It must be viewport-sized: compareImages()
     *  finds no difference between two 0x0 images, so an oracle whose
     *  images were never filled would pass without checking anything. */
    const Image &
    reference(const std::string &bench)
    {
        auto it = refs.find(bench);
        if (it == refs.end()) {
            SystemConfig cfg;
            Image image;
            runSingleGpu(cfg, trace(bench), nullptr, &image);
            it = refs.emplace(bench, std::move(image)).first;
        }
        EXPECT_EQ(it->second.width(), trace(bench).viewport.width);
        EXPECT_EQ(it->second.height(), trace(bench).viewport.height);
        return it->second;
    }

    std::map<std::string, FrameTrace> traces;
    std::map<std::string, Image> refs;
};

// Padding-free and held inline, not by pointer: gtest prints a parameter
// type that has no printer as its raw bytes, ctest names each discovered
// test with that text, and an address or padding byte there would rename
// the tests on every build.
struct OracleCase
{
    char bench[8];
    Scheme scheme;
    unsigned gpus;
};
static_assert(sizeof(OracleCase) ==
              sizeof(OracleCase::bench) + sizeof(Scheme) + sizeof(unsigned));

OracleCase
oracleCase(std::string_view bench, Scheme scheme, unsigned gpus)
{
    OracleCase c{{}, scheme, gpus};
    CHOPIN_CHECK(bench.size() < sizeof(c.bench), "bench name too long");
    bench.copy(c.bench, bench.size());
    return c;
}

std::string
caseName(const ::testing::TestParamInfo<OracleCase> &info)
{
    std::string name = std::string(info.param.bench) + "_" +
                       toString(info.param.scheme) + "_" +
                       std::to_string(info.param.gpus) + "gpu";
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

class SchemeOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(SchemeOracle, ImageMatchesSingleGpuReference)
{
    const OracleCase &c = GetParam();
    OracleCache &cache = OracleCache::instance();
    SystemConfig cfg;
    cfg.num_gpus = c.gpus;
    Image image;
    runScheme(c.scheme, cfg, cache.trace(c.bench), nullptr, &image);
    // Transparent chains are re-associated across GPUs; allow float noise.
    ImageDiff diff = compareImages(cache.reference(c.bench), image, 2e-4f);
    EXPECT_EQ(diff.differing_pixels, 0)
        << diff.differing_pixels << " pixels differ (max "
        << diff.max_abs_diff << ", first at " << diff.first_x << ","
        << diff.first_y << ")";
}

std::vector<OracleCase>
allCases()
{
    std::vector<OracleCase> cases;
    const char *benches[] = {"cod2", "cry", "grid", "mirror",
                             "nfs",  "stal", "ut3",  "wolf"};
    // Every benchmark under the paper's 8-GPU setup for the two most
    // complex schemes; ut3/wolf additionally sweep GPU counts (including an
    // odd count) and the remaining schemes.
    for (const char *b : benches) {
        cases.push_back(oracleCase(b, Scheme::Duplication, 8));
        cases.push_back(oracleCase(b, Scheme::Gpupd, 8));
        cases.push_back(oracleCase(b, Scheme::ChopinCompSched, 8));
    }
    for (const char *b : {"ut3", "wolf"}) {
        for (unsigned gpus : {2u, 3u, 8u}) {
            cases.push_back(oracleCase(b, Scheme::Chopin, gpus));
            cases.push_back(oracleCase(b, Scheme::ChopinRoundRobin, gpus));
            cases.push_back(oracleCase(b, Scheme::GpupdIdeal, gpus));
            cases.push_back(oracleCase(b, Scheme::ChopinIdeal, gpus));
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeOracle,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(OracleKnobs, CullRetentionIsTimingOnly)
{
    // Fig. 16's knob must never change the image.
    OracleCache &cache = OracleCache::instance();
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.cull_retention = 0.4;
    Image image;
    FrameResult r = runScheme(Scheme::ChopinCompSched, cfg,
                              cache.trace("ut3"), nullptr, &image);
    EXPECT_GT(r.retained_culled, 0u);
    ImageDiff diff = compareImages(cache.reference("ut3"), image, 2e-4f);
    EXPECT_EQ(diff.differing_pixels, 0);
}

TEST(OracleKnobs, GroupThresholdDoesNotChangeTheImage)
{
    OracleCache &cache = OracleCache::instance();
    for (std::uint64_t threshold : {256ull, 16384ull, ~0ull}) {
        SystemConfig cfg;
        cfg.num_gpus = 8;
        cfg.group_threshold = threshold;
        Image image;
        runScheme(Scheme::ChopinCompSched, cfg, cache.trace("wolf"),
                  nullptr, &image);
        ImageDiff diff =
            compareImages(cache.reference("wolf"), image, 2e-4f);
        EXPECT_EQ(diff.differing_pixels, 0) << "threshold " << threshold;
    }
}

TEST(OracleKnobs, SchedulerUpdateIntervalDoesNotChangeTheImage)
{
    OracleCache &cache = OracleCache::instance();
    for (std::uint64_t interval : {1ull, 512ull, 1024ull}) {
        SystemConfig cfg;
        cfg.num_gpus = 8;
        cfg.sched_update_tris = interval;
        Image image;
        runScheme(Scheme::Chopin, cfg, cache.trace("wolf"), nullptr,
                  &image);
        ImageDiff diff =
            compareImages(cache.reference("wolf"), image, 2e-4f);
        EXPECT_EQ(diff.differing_pixels, 0) << "interval " << interval;
    }
}

} // namespace
} // namespace chopin
