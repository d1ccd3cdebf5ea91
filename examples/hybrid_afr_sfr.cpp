/**
 * @file
 * Hybrid AFR + SFR — the future-work direction of the paper's Section VI-H:
 * "it's not quite realistic to render single frames with 1024 GPUs ...
 * large-scale systems may need more complicated rendering mechanisms, such
 * as the combination of AFR and SFR."
 *
 * A 16-GPU system is partitioned into K AFR groups of 16/K GPUs;
 * consecutive frames of an animated SequenceTrace (shared geometry,
 * per-frame camera and object-transform keys) round-robin across groups
 * and each frame is rendered with CHOPIN SFR inside its group
 * (sfr/sequence.hh). The sweep exposes the latency/throughput/stutter
 * tradeoff the paper's introduction describes: pure AFR maximizes average
 * frame rate but a single frame still takes as long as fewer GPUs can
 * deliver (micro-stutter); pure SFR minimizes latency.
 *
 * Run: ./hybrid_afr_sfr [--bench=ut3] [--scale=4] [--frames=8]
 *                       [--path=orbit]
 */

#include <iostream>

#include "core/chopin.hh"
#include "trace/generator.hh"
#include "util/check.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;

    setCliCheckTool("hybrid_afr_sfr");
    CommandLine cli("hybrid AFR+SFR study on a 16-GPU system");
    cli.addFlag("bench", "ut3", "benchmark trace");
    cli.addFlag("scale", "4", "trace scale divisor");
    cli.addFlag("frames", "8", "frames in the rendered sequence");
    cli.addFlag("path", "orbit", "camera path (static orbit dolly)");
    cli.parse(argc, argv);

    SystemConfig cfg;
    cfg.num_gpus = 16;
    long scale = cli.getIntIn("scale", 1, maxScaleDivisor);

    // An animation: one shared-geometry sequence with a camera spline and
    // per-object animation channels (trace/generator.hh), so consecutive
    // frames are temporally coherent rather than independently generated.
    SequenceParams params;
    params.num_frames =
        static_cast<std::uint32_t>(std::max(1L, cli.getInt("frames")));
    std::string path_name = cli.getString("path");
    params.path = path_name == "static" ? CameraPath::Static
                  : path_name == "dolly" ? CameraPath::Dolly
                                         : CameraPath::Orbit;
    SequenceTrace seq = generateBenchmarkSequence(
        cli.getString("bench"), static_cast<int>(scale), params);

    std::cout << "hybrid AFR+SFR on " << cfg.num_gpus << " GPUs, '"
              << seq.base.name << "' (1/" << scale
              << " scale), " << seq.frameCount() << "-frame "
              << toString(seq.path) << " sequence\n\n";

    TextTable table({"AFR groups x SFR GPUs", "avg frame latency",
                     "avg frame interval", "worst frame interval",
                     "micro-stutter", "sequence makespan"});
    for (unsigned groups : {1u, 2u, 4u, 8u, 16u}) {
        SequenceOptions opt;
        opt.scheme = SequenceScheme::HybridAfrSfr;
        opt.afr_groups = groups;
        SequenceResult r = runSequence(opt, cfg, seq);
        table.addRow({std::to_string(groups) + " x " +
                          std::to_string(r.gpus_per_group),
                      formatDouble(r.avg_latency, 0),
                      formatDouble(r.avg_frame_interval, 0),
                      std::to_string(r.worst_frame_interval),
                      formatDouble(r.micro_stutter, 0),
                      std::to_string(r.makespan)});
    }
    table.print(std::cout);
    std::cout << "\nAll quantities in GPU cycles. Latency falls toward pure "
                 "SFR (top), throughput (small\nframe interval) rises "
                 "toward pure AFR (bottom); micro-stutter — the stddev of\n"
                 "inter-frame completion gaps — is the metric behind the "
                 "paper's introduction.\n";
    return 0;
}
