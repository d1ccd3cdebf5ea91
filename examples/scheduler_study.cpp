/**
 * @file
 * A deeper look at CHOPIN's two schedulers on one benchmark frame:
 *  - draw-command scheduling: round-robin vs fewest-remaining-triangles,
 *    including the per-GPU load spread each produces;
 *  - image-composition scheduling: naive direct-send vs scheduled pairwise
 *    exchange, including the composition-phase cycles.
 *
 * Run: ./scheduler_study [--bench=stal] [--gpus=8] [--scale=4]
 */

#include <iostream>

#include "core/chopin.hh"
#include "util/check.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;

    setCliCheckTool("scheduler_study");
    CommandLine cli("CHOPIN scheduler study");
    cli.addFlag("bench", "stal",
                "benchmark (stal has the most uneven draw sizes)");
    cli.addFlag("gpus", "8", "number of GPUs");
    cli.addFlag("scale", "4", "trace scale divisor");
    cli.parse(argc, argv);

    SystemConfig cfg;
    cfg.num_gpus = static_cast<unsigned>(cli.getIntIn("gpus", 1, maxGpus));
    FrameTrace trace = generateBenchmark(
        cli.getString("bench"),
        static_cast<int>(cli.getIntIn("scale", 1, maxScaleDivisor)));

    std::cout << "trace '" << trace.name << "': " << trace.draws.size()
              << " draws, " << trace.totalTriangles() << " triangles, "
              << cfg.num_gpus << " GPUs\n\n";

    FrameResult dup = runDuplication(cfg, trace);

    struct Variant
    {
        const char *name;
        ChopinOptions opts;
    };
    const Variant variants[] = {
        {"round-robin draws, direct-send compose",
         {DrawPolicy::RoundRobin, false, false}},
        {"balanced draws,    direct-send compose",
         {DrawPolicy::FewestRemaining, false, false}},
        {"round-robin draws, scheduled compose",
         {DrawPolicy::RoundRobin, true, false}},
        {"balanced draws,    scheduled compose",
         {DrawPolicy::FewestRemaining, true, false}},
    };

    TextTable table({"variant", "cycles", "vs duplication",
                     "composition cycles", "sync cycles"});
    for (const Variant &v : variants) {
        FrameResult r = runChopin(cfg, trace, v.opts);
        table.addRow({v.name, std::to_string(r.cycles),
                      formatDouble(speedupOver(dup, r), 3) + "x",
                      std::to_string(r.breakdown.composition),
                      std::to_string(r.breakdown.sync)});
    }
    table.print(std::cout);

    std::cout << "\nduplication baseline: " << dup.cycles << " cycles\n"
              << "\nThe gap between the round-robin and balanced rows is "
                 "Fig. 8's load-imbalance effect;\nthe gap between "
                 "direct-send and scheduled rows is the composition "
                 "scheduler (Fig. 13).\n";
    return 0;
}
