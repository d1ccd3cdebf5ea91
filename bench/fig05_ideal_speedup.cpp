/**
 * @file
 * Fig. 5: potential performance improvement afforded by parallel image
 * composition — GPUpd, IdealGPUpd and IdealCHOPIN (zero-latency,
 * infinite-bandwidth links) normalized to primitive duplication on the
 * default 8-GPU system.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 5: idealized speedups over primitive duplication", 1);
    h.parse(argc, argv);
    h.prefetch("fig05_ideal_speedup");

    const Scheme schemes[] = {Scheme::Duplication, Scheme::Gpupd,
                              Scheme::GpupdIdeal, Scheme::ChopinIdeal};
    TextTable table({"benchmark", "Duplication", "GPUpd", "IdealGPUpd",
                     "IdealCHOPIN"});
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
