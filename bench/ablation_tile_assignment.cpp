/**
 * @file
 * Ablation: SFR screen-partitioning policy. The paper interleaves 64x64
 * tiles; the classic alternative is one contiguous band per GPU. Blocked
 * bands concentrate hot screen regions on single GPUs (fragment-load
 * imbalance for the duplication baseline) but reduce the multi-owner
 * primitive duplication GPUpd pays at tile boundaries.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Ablation: tile-to-GPU assignment policy", 1);
    h.parse(argc, argv);
    h.prefetch("ablation_tile_assignment");

    const std::vector<Scheme> schemes = {Scheme::Duplication, Scheme::Gpupd,
                                         Scheme::ChopinCompSched};
    std::vector<SystemConfig> cfgs;
    for (TileAssignment policy :
         {TileAssignment::Interleaved, TileAssignment::Blocked}) {
        SystemConfig cfg;
        cfg.num_gpus = h.gpus();
        cfg.tile_assignment = policy;
        cfgs.push_back(cfg);
    }

    TextTable table({"assignment", "scheme", "gmean speedup vs interleaved "
                                             "duplication"});
    // Baseline: interleaved duplication (the paper's configuration). The
    // scenario fingerprint covers tile_assignment like every other config
    // field, so the blocked variants cache like any other cell.
    for (const SystemConfig &cfg : cfgs) {
        const char *policy_name =
            cfg.tile_assignment == TileAssignment::Interleaved ? "interleaved"
                                                               : "blocked";
        for (Scheme s : schemes) {
            std::vector<double> speedups;
            for (const std::string &name : h.benchmarks()) {
                const FrameResult &base =
                    h.run(Scheme::Duplication, name, cfgs[0]);
                const FrameResult &r = h.run(s, name, cfg);
                speedups.push_back(speedupOver(base, r));
            }
            table.addRow({policy_name, toString(s),
                          formatDouble(gmean(speedups), 3) + "x"});
        }
    }
    h.emit(table);
    return 0;
}
