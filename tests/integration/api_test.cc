#include <gtest/gtest.h>

#include "core/chopin.hh"

namespace chopin
{
namespace
{

TEST(Api, VersionIsExposed)
{
    EXPECT_GE(versionMajor, 1);
    EXPECT_GE(versionMinor, 0);
}

TEST(Api, RunMainComparisonCoversFig13Schemes)
{
    SystemConfig cfg;
    cfg.num_gpus = 4;
    FrameTrace trace = generateBenchmark("wolf", 16);
    for (Scheme scheme :
         {Scheme::Duplication, Scheme::Gpupd, Scheme::GpupdIdeal,
          Scheme::Chopin, Scheme::ChopinCompSched, Scheme::ChopinIdeal}) {
        FrameResult r = runScheme(scheme, cfg, trace);
        EXPECT_EQ(r.scheme, scheme);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_EQ(r.num_gpus, 4u);
        EXPECT_NE(r.frame_hash, 0u); // results identify the frame by hash
    }
}

TEST(Api, SpeedupOver)
{
    FrameResult base, fast;
    base.cycles = 1000;
    fast.cycles = 500;
    EXPECT_DOUBLE_EQ(speedupOver(base, fast), 2.0);
}

TEST(Api, SchemeNamesMatchThePaper)
{
    EXPECT_EQ(toString(Scheme::Duplication), "Duplication");
    EXPECT_EQ(toString(Scheme::Gpupd), "GPUpd");
    EXPECT_EQ(toString(Scheme::GpupdIdeal), "IdealGPUpd");
    EXPECT_EQ(toString(Scheme::Chopin), "CHOPIN");
    EXPECT_EQ(toString(Scheme::ChopinCompSched), "CHOPIN+CompSched");
    EXPECT_EQ(toString(Scheme::ChopinIdeal), "IdealCHOPIN");
    EXPECT_EQ(toString(Scheme::ChopinRoundRobin), "CHOPIN_Round_Robin");
}

TEST(Api, ProgrammaticSceneConstruction)
{
    // Users can build traces directly, without the generator.
    FrameTrace trace;
    trace.name = "custom";
    trace.viewport = {128, 128};
    DrawCommand cmd;
    cmd.id = 0;
    Triangle t;
    t.v[0] = {{-0.5f, -0.5f, 0.0f}, {1, 0, 0, 1}};
    t.v[1] = {{0.0f, 0.5f, 0.0f}, {0, 1, 0, 1}};
    t.v[2] = {{0.5f, -0.5f, 0.0f}, {0, 0, 1, 1}};
    cmd.triangles.push_back(t);
    trace.draws.push_back(cmd);

    SystemConfig cfg;
    cfg.num_gpus = 2;
    cfg.group_threshold = 0; // force distribution even for one triangle
    Image single_image, chopin_image;
    FrameResult single = runSingleGpu(cfg, trace, nullptr, &single_image);
    runScheme(Scheme::ChopinCompSched, cfg, trace, nullptr, &chopin_image);
    ASSERT_EQ(single_image.width(), 128);
    ASSERT_EQ(single_image.height(), 128);
    EXPECT_EQ(compareImages(single_image, chopin_image).differing_pixels,
              0);
    EXPECT_GT(single.totals.frags_written, 0u);
}

} // namespace
} // namespace chopin
