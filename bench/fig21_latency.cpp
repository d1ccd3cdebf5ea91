/**
 * @file
 * Fig. 21: sensitivity to inter-GPU link latency (100/200/300/400 cycles).
 * The paper's point: CHOPIN's bulk pairwise exchanges amortize latency,
 * while GPUpd's many sequential small messages are latency-bound.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 21: speedup over duplication vs link latency", 1);
    h.parse(argc, argv);
    h.prefetch("fig21_latency");

    const Tick latencies[] = {100, 200, 300, 400};
    const Scheme schemes[] = {Scheme::Gpupd, Scheme::GpupdIdeal,
                              Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    TextTable table({"latency", "GPUpd", "IdealGPUpd", "CHOPIN",
                     "CHOPIN+CompSched", "IdealCHOPIN"});
    for (Tick lat : latencies) {
        std::vector<std::string> row{std::to_string(lat) + " cycles"};
        for (Scheme s : schemes) {
            std::vector<double> speedups;
            for (const std::string &name : h.benchmarks()) {
                SystemConfig cfg;
                cfg.num_gpus = h.gpus();
                cfg.link.latency = lat;
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
