/**
 * @file
 * Quickstart: render one synthetic game frame under the paper's main SFR
 * schemes on an 8-GPU system, verify that every scheme produces the same
 * image as a single GPU, and print the Fig. 13-style speedups.
 *
 * Run:  ./quickstart [--bench=ut3] [--gpus=8] [--scale=8] [--dump-ppm=false]
 */

#include <iostream>

#include "core/chopin.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;

    CommandLine cli("CHOPIN quickstart: schemes comparison on one frame");
    cli.addFlag("bench", "ut3", "benchmark trace (cod2 cry grid mirror nfs "
                                "stal ut3 wolf)");
    cli.addFlag("gpus", "8", "number of GPUs");
    cli.addFlag("scale", "2", "trace scale divisor (1 = full Table III "
                              "size)");
    cli.addFlag("dump-ppm", "false", "write the frame to <bench>.ppm");
    cli.parse(argc, argv);

    SystemConfig cfg;
    cfg.num_gpus = static_cast<unsigned>(cli.getInt("gpus"));

    std::cout << "generating trace '" << cli.getString("bench") << "' (1/"
              << cli.getInt("scale") << " scale)...\n";
    FrameTrace trace = generateBenchmark(cli.getString("bench"),
                                         static_cast<int>(cli.getInt("scale")));
    std::cout << "  " << trace.draws.size() << " draws, "
              << trace.totalTriangles() << " triangles, "
              << trace.viewport.width << "x" << trace.viewport.height
              << "\n\n";

    // Results carry metrics and frame hashes; a run hands its image out
    // only when asked to, as the comparison below does.
    Image reference_image;
    FrameResult reference =
        runSingleGpu(cfg, trace, nullptr, &reference_image);
    std::cout << "single GPU: " << reference.cycles << " cycles\n\n";

    FrameResult baseline = runDuplication(cfg, trace);

    TextTable table({"scheme", "cycles", "speedup vs 1 GPU",
                     "speedup vs duplication", "image"});
    for (Scheme scheme : {Scheme::Duplication, Scheme::Gpupd,
                          Scheme::GpupdIdeal, Scheme::Chopin,
                          Scheme::ChopinCompSched, Scheme::ChopinIdeal}) {
        Image image;
        FrameResult r = runScheme(scheme, cfg, trace, nullptr, &image);
        ImageDiff diff = compareImages(reference_image, image, 2e-4f);
        table.addRow({toString(r.scheme), std::to_string(r.cycles),
                      formatDouble(speedupOver(reference, r), 2) + "x",
                      formatDouble(speedupOver(baseline, r), 2) + "x",
                      diff.differing_pixels == 0 ? "matches reference"
                                                 : "MISMATCH"});
        if (diff.differing_pixels != 0) {
            std::cerr << "image mismatch under " << toString(r.scheme)
                      << ": " << diff.differing_pixels
                      << " pixels differ (max " << diff.max_abs_diff
                      << ", first at " << diff.first_x << ","
                      << diff.first_y << ")\n";
        }
    }
    table.print(std::cout);

    if (cli.getBool("dump-ppm")) {
        std::string path = cli.getString("bench") + ".ppm";
        if (reference_image.writePpm(path))
            std::cout << "\nwrote " << path << "\n";
    }
    return 0;
}
