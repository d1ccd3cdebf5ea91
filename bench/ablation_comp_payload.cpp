/**
 * @file
 * Ablation: composition transfer granularity (DESIGN.md §2.5). Sweeps the
 * three payload models — idealized per-pixel masking, 8x8 DMA-burst
 * sub-tiles (default), and whole touched 64x64 tiles — and reports the
 * resulting composition traffic and CHOPIN+CompSched speedup. The default
 * is the one whose traffic reproduces Fig. 17's published volumes.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Ablation: composition payload granularity", 1);
    h.parse(argc, argv);
    h.prefetch("ablation_comp_payload");

    const CompPayload payloads[] = {CompPayload::WrittenPixels,
                                    CompPayload::SubTiles,
                                    CompPayload::FullTiles};
    TextTable table({"payload", "avg traffic MB", "grid traffic MB",
                     "gmean speedup vs duplication"});
    for (CompPayload payload : payloads) {
        double sum_mb = 0, grid_mb = 0;
        std::vector<double> speedups;
        for (const std::string &name : h.benchmarks()) {
            SystemConfig cfg;
            cfg.num_gpus = h.gpus();
            const FrameResult &base = h.run(Scheme::Duplication, name, cfg);
            cfg.comp_payload = payload;
            const FrameResult &r =
                h.run(Scheme::ChopinCompSched, name, cfg);
            double mb = static_cast<double>(
                            r.traffic.ofClass(TrafficClass::Composition)) /
                        (1024.0 * 1024.0);
            sum_mb += mb;
            if (name == "grid")
                grid_mb = mb;
            speedups.push_back(speedupOver(base, r));
        }
        table.addRow({toString(payload),
                      formatDouble(sum_mb / h.benchmarks().size(), 2),
                      formatDouble(grid_mb, 2),
                      formatDouble(gmean(speedups), 3) + "x"});
    }
    h.emit(table);
    std::cout << "(paper Fig. 17: 51.66 MB average, 131.92 MB for grid)\n";
    return 0;
}
