/**
 * @file
 * Fig. 20: sensitivity to inter-GPU link bandwidth (16/32/64/128 GB/s).
 * The paper's point: CHOPIN's composition traffic scales with bandwidth,
 * while GPUpd's latency-bound sequential exchange barely benefits.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 20: speedup over duplication vs link bandwidth", 1);
    h.parse(argc, argv);
    h.prefetch("fig20_bandwidth");

    const double bandwidths[] = {16, 32, 64, 128}; // GB/s = B/cycle at 1GHz
    const Scheme schemes[] = {Scheme::Gpupd, Scheme::GpupdIdeal,
                              Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    TextTable table({"bandwidth", "GPUpd", "IdealGPUpd", "CHOPIN",
                     "CHOPIN+CompSched", "IdealCHOPIN"});
    for (double bw : bandwidths) {
        std::vector<std::string> row{formatDouble(bw, 0) + " GB/s"};
        for (Scheme s : schemes) {
            std::vector<double> speedups;
            for (const std::string &name : h.benchmarks()) {
                SystemConfig cfg;
                cfg.num_gpus = h.gpus();
                cfg.link.bytes_per_cycle = bw;
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
