/**
 * @file
 * Fig. 2: percentage of geometry-processing cycles in the graphics pipeline
 * under conventional SFR (primitive duplication) for 1/2/4/8 GPUs. The
 * paper's point: each GPU always processes all primitives, so the geometry
 * share grows with GPU count and duplication stops scaling.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 2: geometry-processing share under primitive "
              "duplication",
              1);
    h.parse(argc, argv);
    h.prefetch("fig02_geometry_fraction");

    const unsigned gpu_counts[] = {1, 2, 4, 8};
    TextTable table({"benchmark", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});
    std::vector<std::vector<double>> columns(4);
    for (const std::string &name : h.benchmarks()) {
        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < std::size(gpu_counts); ++i) {
            SystemConfig cfg;
            cfg.num_gpus = gpu_counts[i];
            const FrameResult &r = h.run(Scheme::Duplication, name, cfg);
            columns[i].push_back(r.geometryFraction());
            row.push_back(percent(r.geometryFraction()));
        }
        table.addRow(row);
    }
    if (h.benchmarks().size() > 1) {
        std::vector<std::string> avg{"Avg"};
        for (auto &col : columns) {
            double sum = 0;
            for (double v : col)
                sum += v;
            avg.push_back(percent(sum / static_cast<double>(col.size())));
        }
        table.addRow(avg);
    }
    h.emit(table);
    return 0;
}
