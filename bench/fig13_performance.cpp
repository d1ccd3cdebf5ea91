/**
 * @file
 * Fig. 13: the headline result — speedups of GPUpd, IdealGPUpd, CHOPIN,
 * CHOPIN + composition scheduler, and IdealCHOPIN over primitive
 * duplication on the 8-GPU Table II system, per benchmark and gmean.
 * (Paper: CHOPIN+CompSched 1.25x gmean, up to 1.56x.)
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 13: 8-GPU speedups over primitive duplication", 1);
    h.parse(argc, argv);
    h.prefetch("fig13_performance");

    const Scheme schemes[] = {Scheme::Gpupd, Scheme::GpupdIdeal,
                              Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    TextTable table({"benchmark", "GPUpd", "IdealGPUpd", "CHOPIN",
                     "CHOPIN+CompSched", "IdealCHOPIN"});
    std::vector<std::vector<double>> speedups(std::size(schemes));
    for (const std::string &name : h.benchmarks()) {
        SystemConfig cfg;
        cfg.num_gpus = h.gpus();
        const FrameResult &base = h.run(Scheme::Duplication, name, cfg);
        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < std::size(schemes); ++i) {
            const FrameResult &r = h.run(schemes[i], name, cfg);
            double s = speedupOver(base, r);
            speedups[i].push_back(s);
            row.push_back(formatDouble(s, 2) + "x");
        }
        table.addRow(row);
    }
    if (h.benchmarks().size() > 1) {
        std::vector<std::string> row{"GMean"};
        for (auto &col : speedups)
            row.push_back(formatDouble(gmean(col), 2) + "x");
        table.addRow(row);
    }
    h.emit(table);
    return 0;
}
