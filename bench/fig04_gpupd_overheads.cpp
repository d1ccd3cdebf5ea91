/**
 * @file
 * Fig. 4: percentage of execution cycles spent in GPUpd's extra pipeline
 * stages (primitive projection and sequential primitive distribution) for
 * 2/4/8 GPUs. The paper's point: the sequential inter-GPU ID exchange
 * becomes the bottleneck as the GPU count grows.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 4: GPUpd primitive projection/distribution overheads",
              1);
    h.parse(argc, argv);
    h.prefetch("fig04_gpupd_overheads");

    TextTable table({"benchmark", "gpus", "distribution", "projection",
                     "total overhead"});
    std::vector<double> dist_sum[3], proj_sum[3];
    const unsigned gpu_counts[] = {2, 4, 8};
    for (const std::string &name : h.benchmarks()) {
        for (std::size_t i = 0; i < std::size(gpu_counts); ++i) {
            SystemConfig cfg;
            cfg.num_gpus = gpu_counts[i];
            const FrameResult &r = h.run(Scheme::Gpupd, name, cfg);
            double dist = static_cast<double>(r.breakdown.prim_distribution) /
                          static_cast<double>(r.cycles);
            double proj = static_cast<double>(r.breakdown.prim_projection) /
                          static_cast<double>(r.cycles);
            dist_sum[i].push_back(dist);
            proj_sum[i].push_back(proj);
            table.addRow({name, std::to_string(gpu_counts[i]),
                          percent(dist), percent(proj),
                          percent(dist + proj)});
        }
    }
    if (h.benchmarks().size() > 1) {
        for (std::size_t i = 0; i < std::size(gpu_counts); ++i) {
            double d = 0, p = 0;
            for (double v : dist_sum[i])
                d += v;
            for (double v : proj_sum[i])
                p += v;
            d /= static_cast<double>(dist_sum[i].size());
            p /= static_cast<double>(proj_sum[i].size());
            table.addRow({"Avg", std::to_string(gpu_counts[i]), percent(d),
                          percent(p), percent(d + p)});
        }
    }
    h.emit(table);
    return 0;
}
