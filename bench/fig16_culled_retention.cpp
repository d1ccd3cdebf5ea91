/**
 * @file
 * Fig. 16: sensitivity of CHOPIN's speedup to artificially reduced
 * depth-culling effectiveness (ut3, 8 GPUs). A fixed percentage of
 * early-depth-culled fragments is retained and processed as if it had
 * passed; the paper needed to retain nearly half of all culled fragments to
 * erase CHOPIN's benefit.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 16: speedup vs retained depth-culled fragments (ut3)",
              1);
    h.parse(argc, argv);
    h.prefetch("fig16_culled_retention");

    std::string name =
        h.benchmarks().size() == 1 ? h.benchmarks()[0] : "ut3";

    SystemConfig base_cfg;
    base_cfg.num_gpus = h.gpus();
    const FrameResult &dup = h.run(Scheme::Duplication, name, base_cfg);

    TextTable table({"retention", "speedup vs duplication",
                     "extra ROP fragments", "retained fragments"});
    for (int pct = 0; pct <= 40; pct += 5) {
        SystemConfig cfg = base_cfg;
        cfg.cull_retention = static_cast<double>(pct) / 100.0;
        const FrameResult &r = h.run(Scheme::ChopinCompSched, name, cfg);
        double extra =
            static_cast<double>(r.retained_culled) /
            static_cast<double>(r.totals.frags_written);
        table.addRow({std::to_string(pct) + "%",
                      formatDouble(speedupOver(dup, r), 3) + "x",
                      percent(extra),
                      std::to_string(r.retained_culled)});
    }
    h.emit(table);
    return 0;
}
