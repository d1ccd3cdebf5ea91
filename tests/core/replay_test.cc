/**
 * @file
 * Functional families (DESIGN.md §9.4): a run that replays another run's
 * FunctionalLog must return exactly what a fresh run returns, for every
 * scheme and every timing-only knob; a CHOPIN replay that schedules a
 * group differently must fall back to a fresh run; and the sweep engine's
 * family grouping, results and counters must not depend on sweep_jobs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hh"
#include "sfr/grouping.hh"
#include "stats/metrics.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

constexpr int kScale = 64;

/** Both test frames switch render targets; at this threshold they also
 *  distribute opaque and transparent groups. */
SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.group_threshold = 64;
    return cfg;
}

struct Variant
{
    std::string name;
    std::function<void(SystemConfig &)> apply;
};

/** Every timing-only knob a figure sweeps, one change at a time. The
 *  comp scheduler and ideal links are schemes of the same classes. */
std::vector<Variant>
timingVariants()
{
    return {
        {"base", [](SystemConfig &) {}},
        {"bandwidth 16", [](SystemConfig &c) { c.link.bytes_per_cycle = 16; }},
        {"bandwidth 128",
         [](SystemConfig &c) { c.link.bytes_per_cycle = 128; }},
        {"latency 100", [](SystemConfig &c) { c.link.latency = 100; }},
        {"latency 400", [](SystemConfig &c) { c.link.latency = 400; }},
        {"retention 0.2", [](SystemConfig &c) { c.cull_retention = 0.2; }},
        {"payload written-pixels",
         [](SystemConfig &c) { c.comp_payload = CompPayload::WrittenPixels; }},
        {"payload full-tiles",
         [](SystemConfig &c) { c.comp_payload = CompPayload::FullTiles; }},
        {"batch 512", [](SystemConfig &c) { c.gpupd_batch_prims = 512; }},
        {"batch 8192", [](SystemConfig &c) { c.gpupd_batch_prims = 8192; }},
        {"no runahead", [](SystemConfig &c) { c.gpupd_runahead = false; }},
        {"half ROP rate", [](SystemConfig &c) { c.timing.rop_rate /= 2; }},
    };
}

/** The schemes of each functional class. */
const std::vector<std::vector<Scheme>> kClasses = {
    {Scheme::Duplication, Scheme::Gpupd, Scheme::GpupdIdeal},
    {Scheme::Chopin, Scheme::ChopinCompSched, Scheme::ChopinIdeal},
    {Scheme::ChopinRoundRobin},
};

/** Everything a result holds: scheme, every registered metric (both
 *  hashes included) and every draw timing. */
void
expectIdentical(const FrameResult &a, const FrameResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.scheme, b.scheme) << what;
    EXPECT_TRUE(metricsEqual<FrameAccounting>(a, b))
        << what << ": "
        << ::testing::PrintToString(metricsDiff<FrameAccounting>(a, b));
    ASSERT_EQ(a.draw_timings.size(), b.draw_timings.size()) << what;
    for (std::size_t i = 0; i < a.draw_timings.size(); ++i)
        EXPECT_TRUE(metricsEqual(a.draw_timings[i], b.draw_timings[i]))
            << what << ": draw timing " << i;
}

class ReplayEquivalence : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReplayEquivalence, EveryTimingVariantMatchesAFreshRun)
{
    const FrameTrace trace = generateBenchmark(GetParam(), kScale);
    ASSERT_GT(trace.num_render_targets, 1u);
    int opaque = 0, transparent = 0;
    for (const CompositionGroup &g : formGroups(trace))
        if (groupDistributable(g, baseConfig().group_threshold))
            ++(g.transparent() ? transparent : opaque);
    ASSERT_GT(opaque, 0);
    ASSERT_GT(transparent, 0);
    const std::vector<Variant> variants = timingVariants();

    for (const std::vector<Scheme> &cls : kClasses) {
        std::map<std::pair<Scheme, std::size_t>, FrameResult> fresh;
        for (Scheme s : cls)
            for (std::size_t v = 0; v < variants.size(); ++v) {
                SystemConfig cfg = baseConfig();
                variants[v].apply(cfg);
                fresh[{s, v}] = runScheme(s, cfg, trace);
            }

        // Every scheme of the class records once; each log must serve
        // every scheme of the class under every variant.
        for (Scheme recorder : cls) {
            FunctionalLog log;
            expectIdentical(runScheme(recorder, baseConfig(), trace, nullptr,
                                      nullptr, &log),
                            fresh[{recorder, 0}],
                            "recording " + toString(recorder));
            ASSERT_TRUE(log.recorded);
            std::uint64_t attempts = 0;
            for (Scheme s : cls)
                for (std::size_t v = 0; v < variants.size(); ++v) {
                    SystemConfig cfg = baseConfig();
                    variants[v].apply(cfg);
                    expectIdentical(
                        runScheme(s, cfg, trace, nullptr, nullptr, &log),
                        fresh[{s, v}],
                        toString(s) + " " + variants[v].name +
                            " replaying " + toString(recorder));
                    attempts += 1;
                }
            if (cls.front() == Scheme::Duplication)
                EXPECT_EQ(log.replays, attempts)
                    << "a partitioned replay never falls back";
            else
                EXPECT_GT(log.replays, 0u) << toString(recorder);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Frames, ReplayEquivalence,
                         ::testing::Values("mirror", "ut3"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(Replay, ForcedAssignmentMismatchFallsBackToAFreshRun)
{
    const FrameTrace trace = generateBenchmark("mirror", kScale);
    const SystemConfig cfg = baseConfig();
    FunctionalLog log;
    runScheme(Scheme::Chopin, cfg, trace, nullptr, nullptr, &log);
    ASSERT_GE(log.groups.size(), 2u);

    // The last distributed group's first draw moves to another GPU: the
    // replay matches every earlier group, then must drop what it did.
    LoggedGroup &last = log.groups.back();
    last.assignment.front() = (last.assignment.front() + 1) % cfg.num_gpus;
    FrameResult r =
        runScheme(Scheme::ChopinCompSched, cfg, trace, nullptr, nullptr, &log);
    EXPECT_EQ(log.replays, 0u);
    expectIdentical(r, runScheme(Scheme::ChopinCompSched, cfg, trace),
                    "CHOPIN+CompSched after a mismatch");
}

SweepOptions
sweepOptions(unsigned sweep_jobs)
{
    SweepOptions opts;
    opts.sweep_jobs = sweep_jobs;
    opts.scale = kScale;
    return opts;
}

TEST(Replay, SchedulerFeedbackFamilyFallsBackAndCountsOnlyRealReplays)
{
    // Fig. 18's knob changes which GPU a draw goes to, so part of this
    // family cannot replay the first member's log.
    std::vector<Scenario> grid;
    for (std::uint64_t interval : {1ull, 256ull, 512ull, 1024ull})
        for (Scheme s : {Scheme::Chopin, Scheme::ChopinCompSched,
                         Scheme::ChopinIdeal}) {
            SystemConfig cfg = baseConfig();
            cfg.sched_update_tris = interval;
            grid.push_back(Scenario{s, "mirror", cfg});
        }

    SweepRunner runner(sweepOptions(1));
    runner.prefetch(grid);
    SweepStats st = runner.stats();
    EXPECT_EQ(st.computed, grid.size());
    EXPECT_LT(st.replayed, grid.size() - 1) << "no member fell back";

    // The members that replay are exactly those that can replay the first
    // member's log, and every result equals a fresh run.
    const FrameTrace &trace = runner.trace("mirror");
    FunctionalLog log;
    runScheme(grid[0].scheme, grid[0].cfg, trace, nullptr, nullptr, &log);
    for (std::size_t i = 1; i < grid.size(); ++i)
        runScheme(grid[i].scheme, grid[i].cfg, trace, nullptr, nullptr,
                  &log);
    EXPECT_EQ(st.replayed, log.replays);
    for (const Scenario &s : grid)
        expectIdentical(runner.run(s), runScheme(s.scheme, s.cfg, trace),
                        toString(s.scheme) + " every " +
                            std::to_string(s.cfg.sched_update_tris));
}

TEST(Replay, PrefetchResultsAndCountsAreIdenticalAtAnySweepJobs)
{
    std::vector<SystemConfig> cfgs;
    for (int point = 0; point < 4; ++point) {
        SystemConfig cfg = baseConfig();
        if (point == 1)
            cfg.link.bytes_per_cycle = 16;
        if (point == 2)
            cfg.link.latency = 400;
        if (point == 3)
            cfg.num_gpus = 4;
        cfgs.push_back(cfg);
    }
    cfgs.push_back(SystemConfig{}); // every group duplicated
    std::vector<Scenario> grid;
    for (const SystemConfig &cfg : cfgs)
        for (Scheme s :
             {Scheme::SingleGpu, Scheme::Duplication, Scheme::Gpupd,
              Scheme::GpupdIdeal, Scheme::ChopinRoundRobin, Scheme::Chopin,
              Scheme::ChopinCompSched, Scheme::ChopinIdeal})
            for (const char *bench : {"mirror", "ut3"})
                grid.push_back(Scenario{s, bench, cfg});

    SweepRunner serial(sweepOptions(1));
    SweepRunner parallel(sweepOptions(4));
    serial.prefetch(grid);
    parallel.prefetch(grid);
    SweepStats a = serial.stats();
    SweepStats b = parallel.stats();
    EXPECT_EQ(a.computed, grid.size());
    EXPECT_GT(a.replayed, 0u);
    EXPECT_EQ(a.computed, b.computed);
    EXPECT_EQ(a.replayed, b.replayed);
    for (const Scenario &s : grid)
        expectIdentical(serial.run(s), parallel.run(s),
                        s.bench + "/" + toString(s.scheme));

    // run() never replays.
    SweepRunner direct(sweepOptions(1));
    for (const Scenario &s : grid)
        direct.run(s);
    EXPECT_EQ(direct.stats().replayed, 0u);
}

TEST(FamilyKey, FunctionalFieldsSplitFamiliesAndTimingFieldsDoNot)
{
    SweepRunner runner(sweepOptions(1));
    const std::uint64_t ut3 = runner.traceFp("ut3");
    const std::uint64_t wolf = runner.traceFp("wolf");
    const SystemConfig cfg;
    const std::uint64_t base = familyKey(Scheme::Duplication, ut3, cfg).value();

    EXPECT_FALSE(familyKey(Scheme::SingleGpu, ut3, cfg).has_value());
    EXPECT_EQ(familyKey(Scheme::Gpupd, ut3, cfg), base);
    EXPECT_EQ(familyKey(Scheme::GpupdIdeal, ut3, cfg), base);
    const std::uint64_t chopin = familyKey(Scheme::Chopin, ut3, cfg).value();
    EXPECT_NE(chopin, base);
    EXPECT_EQ(familyKey(Scheme::ChopinCompSched, ut3, cfg), chopin);
    EXPECT_EQ(familyKey(Scheme::ChopinIdeal, ut3, cfg), chopin);
    EXPECT_NE(familyKey(Scheme::ChopinRoundRobin, ut3, cfg), chopin);
    EXPECT_NE(familyKey(Scheme::ChopinRoundRobin, ut3, cfg), base);

    std::vector<std::pair<const char *, std::function<void(SystemConfig &)>>>
        functional = {
            {"num_gpus", [](SystemConfig &c) { c.num_gpus = 4; }},
            {"tile_size", [](SystemConfig &c) { c.tile_size = 32; }},
            {"tile_assignment",
             [](SystemConfig &c) {
                 c.tile_assignment = TileAssignment::Blocked;
             }},
            {"group_threshold",
             [](SystemConfig &c) { c.group_threshold = 256; }},
        };
    for (const auto &[name, apply] : functional)
        for (Scheme s : {Scheme::Duplication, Scheme::Chopin}) {
            SystemConfig changed = cfg;
            apply(changed);
            EXPECT_NE(familyKey(s, ut3, changed), familyKey(s, ut3, cfg))
                << name;
        }
    EXPECT_NE(familyKey(Scheme::Duplication, wolf, cfg), base);

    std::vector<Variant> timing = timingVariants();
    timing.push_back({"sched_update_tris",
                      [](SystemConfig &c) { c.sched_update_tris = 512; }});
    for (const Variant &v : timing) {
        SystemConfig changed = cfg;
        v.apply(changed);
        EXPECT_EQ(familyKey(Scheme::Duplication, ut3, changed), base)
            << v.name;
        EXPECT_EQ(familyKey(Scheme::Chopin, ut3, changed), chopin) << v.name;
    }

    // A family split by a functional field never replays across it.
    std::vector<Scenario> grid;
    for (unsigned gpus : {2u, 4u}) {
        SystemConfig c;
        c.num_gpus = gpus;
        grid.push_back(Scenario{Scheme::Duplication, "ut3", c});
    }
    runner.prefetch(grid);
    EXPECT_EQ(runner.stats().computed, 2u);
    EXPECT_EQ(runner.stats().replayed, 0u);
}

} // namespace
} // namespace chopin
