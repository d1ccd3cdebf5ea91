/**
 * @file
 * SystemConfig::fingerprint() exhaustiveness: the fingerprint is the only
 * sanctioned config cache key (bench harnesses, sweep engine, result
 * cache), so *every* public field — including the nested TimingParams and
 * LinkParams — must move it. A field added to the config without extending
 * fingerprint() makes a perturbation below collide with the default and
 * fails this suite, instead of silently serving stale cached results.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sfr/config.hh"

namespace chopin
{
namespace
{

struct Perturbation
{
    std::string field;
    SystemConfig cfg;
};

std::vector<Perturbation>
perturbEveryField()
{
    std::vector<Perturbation> out;
    auto add = [&](const std::string &field, auto &&mutate) {
        SystemConfig cfg;
        mutate(cfg);
        out.push_back({field, cfg});
    };

    add("num_gpus", [](SystemConfig &c) { c.num_gpus += 1; });

    // TimingParams
    add("timing.shader_lanes",
        [](SystemConfig &c) { c.timing.shader_lanes += 1.0; });
    add("timing.vert_shader_ops",
        [](SystemConfig &c) { c.timing.vert_shader_ops += 1.0; });
    add("timing.frag_shader_ops",
        [](SystemConfig &c) { c.timing.frag_shader_ops += 1.0; });
    add("timing.tri_setup_rate",
        [](SystemConfig &c) { c.timing.tri_setup_rate += 1.0; });
    add("timing.tri_traverse_rate",
        [](SystemConfig &c) { c.timing.tri_traverse_rate += 1.0; });
    add("timing.coarse_reject_rate",
        [](SystemConfig &c) { c.timing.coarse_reject_rate += 1.0; });
    add("timing.raster_frag_rate",
        [](SystemConfig &c) { c.timing.raster_frag_rate += 1.0; });
    add("timing.early_z_rate",
        [](SystemConfig &c) { c.timing.early_z_rate += 1.0; });
    add("timing.rop_rate", [](SystemConfig &c) { c.timing.rop_rate += 1.0; });
    add("timing.draw_setup_cycles",
        [](SystemConfig &c) { c.timing.draw_setup_cycles += 1; });
    add("timing.batch_tris",
        [](SystemConfig &c) { c.timing.batch_tris += 1; });
    add("timing.driver_issue_cycles",
        [](SystemConfig &c) { c.timing.driver_issue_cycles += 1; });
    add("timing.proj_ops_per_vert",
        [](SystemConfig &c) { c.timing.proj_ops_per_vert += 1.0; });
    add("timing.tex_rate", [](SystemConfig &c) { c.timing.tex_rate += 1.0; });
    add("timing.compose_rate",
        [](SystemConfig &c) { c.timing.compose_rate += 1.0; });

    // LinkParams
    add("link.bytes_per_cycle",
        [](SystemConfig &c) { c.link.bytes_per_cycle += 1.0; });
    add("link.latency", [](SystemConfig &c) { c.link.latency += 1; });

    // SFR / CHOPIN / GPUpd knobs
    add("tile_size", [](SystemConfig &c) { c.tile_size *= 2; });
    add("tile_assignment",
        [](SystemConfig &c) { c.tile_assignment = TileAssignment::Blocked; });
    add("group_threshold", [](SystemConfig &c) { c.group_threshold += 1; });
    add("sched_update_tris",
        [](SystemConfig &c) { c.sched_update_tris += 1; });
    add("cull_retention", [](SystemConfig &c) { c.cull_retention = 0.25; });
    add("comp_payload",
        [](SystemConfig &c) { c.comp_payload = CompPayload::FullTiles; });
    add("gpupd_batch_prims",
        [](SystemConfig &c) { c.gpupd_batch_prims += 1; });
    add("gpupd_runahead",
        [](SystemConfig &c) { c.gpupd_runahead = !c.gpupd_runahead; });

    return out;
}

TEST(ConfigFingerprint, StableForEqualConfigs)
{
    SystemConfig a, b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.num_gpus = a.num_gpus;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ConfigFingerprint, EveryFieldPerturbationMovesTheFingerprint)
{
    const std::uint64_t base = SystemConfig{}.fingerprint();
    for (const Perturbation &p : perturbEveryField())
        EXPECT_NE(p.cfg.fingerprint(), base)
            << "field " << p.field
            << " is not covered by SystemConfig::fingerprint(); a cached "
               "result would alias across values of it";
}

TEST(ConfigFingerprint, PerturbationsAreMutuallyDistinct)
{
    // Stronger than != base: no two single-field perturbations may collide
    // with each other either (keys address files in a shared directory).
    std::vector<Perturbation> all = perturbEveryField();
    std::set<std::uint64_t> keys{SystemConfig{}.fingerprint()};
    for (const Perturbation &p : all)
        keys.insert(p.cfg.fingerprint());
    EXPECT_EQ(keys.size(), all.size() + 1)
        << "two distinct configs produced the same fingerprint";
}

TEST(ConfigFingerprint, IdealLinksFingerprintDistinctly)
{
    SystemConfig real;
    SystemConfig ideal;
    ideal.link = LinkParams::ideal(); // infinity bandwidth, zero latency
    EXPECT_NE(real.fingerprint(), ideal.fingerprint());
}

} // namespace
} // namespace chopin
