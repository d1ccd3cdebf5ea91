/**
 * @file
 * Fig. 8: performance of CHOPIN with naive round-robin draw-command
 * scheduling, normalized to primitive duplication. The paper's point:
 * without workload-aware scheduling, the heavy-tailed draw sizes leave the
 * GPUs badly imbalanced and CHOPIN can lose to the baseline.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 8: round-robin draw scheduling vs duplication", 1);
    h.parse(argc, argv);
    h.prefetch("fig08_round_robin");

    // Columns: the paper's Fig. 8 trio, plus round-robin and balanced
    // scheduling under the composition scheduler, isolating the
    // draw-command scheduler's contribution.
    TextTable table({"benchmark", "Duplication", "GPUpd",
                     "CHOPIN_Round_Robin", "RR+CompSched",
                     "CHOPIN+CompSched"});
    std::vector<std::vector<double>> speedups(4);
    for (const std::string &name : h.benchmarks()) {
        SystemConfig cfg;
        cfg.num_gpus = h.gpus();
        const FrameResult &base = h.run(Scheme::Duplication, name, cfg);
        const FrameResult &gpupd = h.run(Scheme::Gpupd, name, cfg);
        const FrameResult &rr = h.run(Scheme::ChopinRoundRobin, name, cfg);
        // No Scheme value names round-robin draw scheduling under the
        // composition scheduler, so the sweep engine cannot key this run.
        FrameResult rr_cs = runChopin( // chopin-lint: allow(bench-runscheme)
            cfg, h.trace(name), {DrawPolicy::RoundRobin, true, false});
        const FrameResult &full = h.run(Scheme::ChopinCompSched, name, cfg);
        double s[4] = {speedupOver(base, gpupd), speedupOver(base, rr),
                       speedupOver(base, rr_cs), speedupOver(base, full)};
        for (int i = 0; i < 4; ++i)
            speedups[i].push_back(s[i]);
        table.addRow({name, "1.00x", formatDouble(s[0], 2) + "x",
                      formatDouble(s[1], 2) + "x",
                      formatDouble(s[2], 2) + "x",
                      formatDouble(s[3], 2) + "x"});
    }
    if (h.benchmarks().size() > 1) {
        std::vector<std::string> row{"GMean", "1.00x"};
        for (auto &col : speedups)
            row.push_back(formatDouble(gmean(col), 2) + "x");
        table.addRow(row);
    }
    h.emit(table);
    return 0;
}
