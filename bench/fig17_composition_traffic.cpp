/**
 * @file
 * Fig. 17: inter-GPU traffic load of parallel image composition per
 * benchmark (paper average: 51.66 MB, with grid an outlier at 131.92 MB
 * thanks to its many large screen-covering triangles).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 17: composition traffic load (MB per frame)", 1);
    h.parse(argc, argv);
    h.prefetch("fig17_composition_traffic");

    TextTable table({"benchmark", "composition MB", "sync MB",
                     "distributed groups", "distributed tris"});
    double sum = 0;
    for (const std::string &name : h.benchmarks()) {
        SystemConfig cfg;
        cfg.num_gpus = h.gpus();
        const FrameResult &r = h.run(Scheme::ChopinCompSched, name, cfg);
        double mb = static_cast<double>(
                        r.traffic.ofClass(TrafficClass::Composition)) /
                    (1024.0 * 1024.0);
        sum += mb;
        table.addRow({name, formatDouble(mb, 2),
                      formatMb(r.traffic.ofClass(TrafficClass::Sync)),
                      std::to_string(r.groups_distributed),
                      std::to_string(r.tris_distributed)});
    }
    if (h.benchmarks().size() > 1)
        table.addRow({"Avg",
                      formatDouble(sum / h.benchmarks().size(), 2), "", "",
                      ""});
    h.emit(table);
    return 0;
}
