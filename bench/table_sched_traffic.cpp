/**
 * @file
 * Section VI-D: scheduler traffic. Measures the draw-command scheduler's
 * status-message bytes (paper: ~1.7 MB at per-triangle updates, 4 KB per
 * million triangles at 1024-triangle granularity) and the image-composition
 * scheduler's handshake volume (paper: (8+8) x 8 x 4 = 512 B per group in
 * an 8-GPU system).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Scheduler traffic (Section VI-D)", 1);
    h.parse(argc, argv);
    h.prefetch("table_sched_traffic");

    TextTable table({"benchmark", "update interval", "draw-sched bytes",
                     "comp-sched handshake bytes"});
    for (const std::string &name : h.benchmarks()) {
        for (std::uint64_t interval : {1ull, 1024ull}) {
            SystemConfig cfg;
            cfg.num_gpus = h.gpus();
            cfg.sched_update_tris = interval;
            const FrameResult &r = h.run(Scheme::ChopinCompSched, name, cfg);
            // Each composition group: every GPU sends a ready request and
            // receives a response per partner, plus one background pair
            // (the paper's (N+N) x N x 4B accounting).
            Bytes comp_handshake = r.groups_distributed *
                                   (2ull * h.gpus()) * h.gpus() * 4;
            table.addRow({name, std::to_string(interval),
                          std::to_string(r.sched_status_bytes),
                          std::to_string(comp_handshake)});
        }
    }
    h.emit(table);
    return 0;
}
