/**
 * @file
 * Ablation: GPUpd's two published optimizations — batching (primitive
 * projection/distribution batch size) and runahead execution. Shows why
 * the evaluation models both enabled: without them GPUpd falls far behind
 * even the duplication baseline, matching the GPUpd paper's own analysis.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Ablation: GPUpd batching and runahead", 1);
    h.parse(argc, argv);
    h.prefetch("ablation_gpupd_batching");

    const std::uint64_t batches[] = {512, 2048, 8192};
    TextTable table({"batch prims", "runahead", "gmean speedup vs dup",
                     "gmean distribution share"});
    for (std::uint64_t batch : batches) {
        for (bool runahead : {false, true}) {
            std::vector<double> speedups, dist_shares;
            for (const std::string &name : h.benchmarks()) {
                SystemConfig cfg;
                cfg.num_gpus = h.gpus();
                const FrameResult &base =
                    h.run(Scheme::Duplication, name, cfg);
                cfg.gpupd_batch_prims = batch;
                cfg.gpupd_runahead = runahead;
                const FrameResult &r = h.run(Scheme::Gpupd, name, cfg);
                speedups.push_back(speedupOver(base, r));
                dist_shares.push_back(
                    static_cast<double>(r.breakdown.prim_distribution) /
                    static_cast<double>(r.cycles));
            }
            double share_sum = 0;
            for (double s : dist_shares)
                share_sum += s;
            table.addRow({std::to_string(batch),
                          runahead ? "on" : "off",
                          formatDouble(gmean(speedups), 3) + "x",
                          percent(share_sum / dist_shares.size())});
        }
    }
    h.emit(table);
    return 0;
}
