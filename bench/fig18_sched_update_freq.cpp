/**
 * @file
 * Fig. 18: sensitivity to the draw-command scheduler's progress-update
 * interval (every 1 / 256 / 512 / 1024 triangles). The paper's point: even
 * very infrequent updates barely hurt (1.25x -> 1.22x gmean), so the
 * scheduler scales to much larger systems.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 18: draw-scheduler update-interval sensitivity", 1);
    h.parse(argc, argv);
    h.prefetch("fig18_sched_update_freq");

    const std::uint64_t intervals[] = {1, 256, 512, 1024};
    const Scheme schemes[] = {Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    TextTable table({"update interval", "CHOPIN", "CHOPIN+CompSched",
                     "IdealCHOPIN"});
    for (std::uint64_t interval : intervals) {
        std::vector<std::string> row{"every " + std::to_string(interval) +
                                     (interval == 1 ? " tri" : " tris")};
        for (Scheme s : schemes) {
            std::vector<double> speedups;
            for (const std::string &name : h.benchmarks()) {
                SystemConfig cfg;
                cfg.num_gpus = h.gpus();
                const FrameResult &base =
                    h.run(Scheme::Duplication, name, cfg);
                cfg.sched_update_tris = interval;
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
