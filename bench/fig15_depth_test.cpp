/**
 * @file
 * Fig. 15: number of fragments that pass the depth/stencil tests (split
 * into early-test and late-test passes) under CHOPIN+CompSched, normalized
 * to primitive duplication. The paper's point: CHOPIN's per-GPU sub-images
 * lose some cross-GPU early-z culling, but the increase in surviving
 * fragments is modest.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 15: fragments passing depth tests, CHOPIN vs "
              "duplication",
              1);
    h.parse(argc, argv);
    h.prefetch("fig15_depth_test");

    TextTable table({"benchmark", "dup early-pass", "dup late-pass",
                     "chopin early-pass", "chopin late-pass",
                     "passing ratio", "shaded ratio"});
    std::vector<double> pass_ratios, shade_ratios;
    for (const std::string &name : h.benchmarks()) {
        SystemConfig cfg;
        cfg.num_gpus = h.gpus();
        const FrameResult &dup = h.run(Scheme::Duplication, name, cfg);
        const FrameResult &ch = h.run(Scheme::ChopinCompSched, name, cfg);
        double dup_pass = static_cast<double>(dup.totals.frags_early_pass +
                                              dup.totals.frags_late_pass);
        double ch_pass = static_cast<double>(ch.totals.frags_early_pass +
                                             ch.totals.frags_late_pass);
        double pass_ratio = ch_pass / dup_pass;
        double shade_ratio = static_cast<double>(ch.totals.frags_shaded) /
                             static_cast<double>(dup.totals.frags_shaded);
        pass_ratios.push_back(pass_ratio);
        shade_ratios.push_back(shade_ratio);
        table.addRow({name, std::to_string(dup.totals.frags_early_pass),
                      std::to_string(dup.totals.frags_late_pass),
                      std::to_string(ch.totals.frags_early_pass),
                      std::to_string(ch.totals.frags_late_pass),
                      formatDouble(pass_ratio, 3),
                      formatDouble(shade_ratio, 3)});
    }
    if (h.benchmarks().size() > 1) {
        double p = 0, s = 0;
        for (double v : pass_ratios)
            p += v;
        for (double v : shade_ratios)
            s += v;
        table.addRow({"Avg", "", "", "", "",
                      formatDouble(p / pass_ratios.size(), 3),
                      formatDouble(s / shade_ratios.size(), 3)});
    }
    h.emit(table);
    return 0;
}
