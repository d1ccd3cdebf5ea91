/**
 * @file
 * Fig. 14: execution-cycle breakdown per scheme (normal pipeline, primitive
 * distribution, primitive projection, image composition, plus this
 * implementation's render-target sync), normalized to the total cycles of
 * primitive duplication.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Fig. 14: execution-cycle breakdown, normalized to "
              "duplication",
              1);
    h.parse(argc, argv);
    h.prefetch("fig14_breakdown");

    const Scheme schemes[] = {Scheme::Duplication, Scheme::Gpupd,
                              Scheme::Chopin, Scheme::ChopinCompSched,
                              Scheme::ChopinIdeal};
    const char *labels[] = {"Duplication", "GPUpd", "CHOPIN", "CHOPIN+",
                            "CHOPIN++"};

    TextTable table({"benchmark", "scheme", "normal", "distribution",
                     "projection", "composition", "sync", "total"});
    for (const std::string &name : h.benchmarks()) {
        SystemConfig cfg;
        cfg.num_gpus = h.gpus();
        double base =
            static_cast<double>(h.run(Scheme::Duplication, name, cfg).cycles);
        for (std::size_t i = 0; i < std::size(schemes); ++i) {
            const FrameResult &r = h.run(schemes[i], name, cfg);
            auto frac = [&](Tick v) {
                return formatDouble(static_cast<double>(v) / base, 3);
            };
            table.addRow({name, labels[i],
                          frac(r.breakdown.normal_pipeline),
                          frac(r.breakdown.prim_distribution),
                          frac(r.breakdown.prim_projection),
                          frac(r.breakdown.composition),
                          frac(r.breakdown.sync), frac(r.cycles)});
        }
    }
    h.emit(table);
    return 0;
}
