/**
 * @file
 * Fig. 9: per-draw triangle rate (cycles per triangle) of the geometry
 * stage vs the whole pipeline, across the draw commands of one frame.
 * The paper's point: the geometry-stage rate tracks the whole-pipeline
 * rate, so remaining geometry-stage triangles are a usable estimate of a
 * GPU's remaining workload (the draw-command scheduler's heuristic).
 *
 * Prints summary statistics plus (with --series) the full per-draw series.
 */

#include <algorithm>
#include <cmath>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 9: per-draw triangle rates, geometry vs whole pipeline",
              1);
    h.addFlag("series", "false", "print the full per-draw CSV series");
    h.parse(argc, argv);
    h.prefetch("fig09_triangle_rate");

    TextTable table({"benchmark", "draws", "geom cyc/tri p50",
                     "geom cyc/tri p95", "pipeline cyc/tri p50",
                     "pipeline cyc/tri p95", "rate correlation"});

    for (const std::string &name : h.benchmarks()) {
        SystemConfig cfg;
        // The config figureSuite() declares; SingleGpu still renders on
        // one GPU.
        cfg.num_gpus = h.gpus();
        const FrameResult &r = h.run(Scheme::SingleGpu, name, cfg);

        std::vector<double> geom_rate, total_rate;
        for (const DrawTiming &d : r.draw_timings) {
            double tris = static_cast<double>(std::max<std::uint64_t>(1, d.tris));
            geom_rate.push_back(static_cast<double>(d.geom_cycles) / tris);
            total_rate.push_back(
                static_cast<double>(d.geom_cycles + d.raster_cycles +
                                    d.frag_cycles) /
                tris);
        }

        // Pearson correlation between the two rate series (the paper's
        // argument needs them to track each other).
        double n = static_cast<double>(geom_rate.size());
        double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
        for (std::size_t i = 0; i < geom_rate.size(); ++i) {
            sx += geom_rate[i];
            sy += total_rate[i];
            sxx += geom_rate[i] * geom_rate[i];
            syy += total_rate[i] * total_rate[i];
            sxy += geom_rate[i] * total_rate[i];
        }
        double corr = (n * sxy - sx * sy) /
                      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));

        auto pct = [](std::vector<double> v, double p) {
            std::sort(v.begin(), v.end());
            return v[static_cast<std::size_t>(p * (v.size() - 1))];
        };
        table.addRow({name, std::to_string(geom_rate.size()),
                      formatDouble(pct(geom_rate, 0.5), 2),
                      formatDouble(pct(geom_rate, 0.95), 2),
                      formatDouble(pct(total_rate, 0.5), 2),
                      formatDouble(pct(total_rate, 0.95), 2),
                      formatDouble(corr, 3)});

        if (h.flags().getBool("series")) {
            std::cout << "series (" << name
                      << "): draw_id,tris,geom_cycles_per_tri,"
                         "pipeline_cycles_per_tri\n";
            for (std::size_t i = 0; i < geom_rate.size(); ++i)
                std::cout << i << "," << r.draw_timings[i].tris << ","
                          << formatDouble(geom_rate[i], 2) << ","
                          << formatDouble(total_rate[i], 2) << "\n";
            std::cout << "\n";
        }
    }
    h.emit(table);
    return 0;
}
