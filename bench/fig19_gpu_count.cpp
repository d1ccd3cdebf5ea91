/**
 * @file
 * Fig. 19: sensitivity to GPU count (2/4/8/16). For each count, every
 * scheme is normalized to primitive duplication *at the same GPU count*.
 * The paper's point: GPUpd's sequential distribution stops it from scaling,
 * while CHOPIN's composition itself parallelizes with more GPUs, so its
 * advantage grows; the composition scheduler matters more at higher counts.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 19: speedup over duplication vs GPU count", 1);
    h.parse(argc, argv);
    h.prefetch("fig19_gpu_count");

    const unsigned counts[] = {2, 4, 8, 16};
    const Scheme schemes[] = {Scheme::Gpupd, Scheme::GpupdIdeal,
                              Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    TextTable table({"gpus", "GPUpd", "IdealGPUpd", "CHOPIN",
                     "CHOPIN+CompSched", "IdealCHOPIN"});
    for (unsigned gpus : counts) {
        std::vector<std::string> row{std::to_string(gpus)};
        for (Scheme s : schemes) {
            std::vector<double> speedups;
            for (const std::string &name : h.benchmarks()) {
                SystemConfig cfg;
                cfg.num_gpus = gpus;
                const FrameResult &base =
                    h.run(Scheme::Duplication, name, cfg);
                const FrameResult &r = h.run(s, name, cfg);
                speedups.push_back(speedupOver(base, r));
            }
            row.push_back(formatDouble(gmean(speedups), 3) + "x");
        }
        table.addRow(row);
    }
    h.emit(table);
    return 0;
}
