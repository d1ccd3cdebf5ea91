/**
 * @file
 * Fig. 22: sensitivity to the composition-group primitive threshold
 * (256/1024/4096/16384). The paper's point: composition-group sizes are
 * bimodal (big object groups vs tiny state-change groups), so almost any
 * threshold separates them and performance is insensitive; the table also
 * reports how many groups are accelerated and what fraction of triangles
 * they cover (paper: ~6.5 groups, 92.44% of triangles at 4096).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 22: composition-group threshold sensitivity", 1);
    h.parse(argc, argv);
    h.prefetch("fig22_group_threshold");

    const std::uint64_t thresholds[] = {256, 1024, 4096, 16384};
    const Scheme schemes[] = {Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    TextTable table({"threshold", "CHOPIN", "CHOPIN+CompSched",
                     "IdealCHOPIN", "avg accel groups", "tri coverage"});
    for (std::uint64_t threshold : thresholds) {
        std::vector<std::string> row{std::to_string(threshold) + " tris"};
        double groups_sum = 0, coverage_sum = 0;
        for (Scheme s : schemes) {
            std::vector<double> speedups;
            for (const std::string &name : h.benchmarks()) {
                SystemConfig cfg;
                cfg.num_gpus = h.gpus();
                const FrameResult &base =
                    h.run(Scheme::Duplication, name, cfg);
                cfg.group_threshold = threshold;
                const FrameResult &r = h.run(s, name, cfg);
                speedups.push_back(speedupOver(base, r));
                if (s == Scheme::ChopinCompSched) {
                    groups_sum +=
                        static_cast<double>(r.groups_distributed);
                    coverage_sum +=
                        static_cast<double>(r.tris_distributed) /
                        static_cast<double>(h.trace(name).totalTriangles());
                }
            }
            row.push_back(formatDouble(gmean(speedups), 3) + "x");
        }
        double n = static_cast<double>(h.benchmarks().size());
        row.push_back(formatDouble(groups_sum / n, 2));
        row.push_back(percent(coverage_sum / n));
        table.addRow(row);
    }
    h.emit(table);
    return 0;
}
