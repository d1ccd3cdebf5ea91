/**
 * @file
 * render_trace: render a saved trace under any SFR scheme and write the
 * frame as a PPM image, optionally verifying it against the single-GPU
 * reference.
 *
 *   render_trace frame.trace --scheme=chopin+cs --gpus=8 --out=frame.ppm
 *
 * With --trace-out=frame.trace.json it additionally records a
 * deterministic timeline (per-draw pipeline stages, per-transfer link
 * spans, sync/composition phases) and writes it as Chrome trace-event
 * JSON, loadable in Perfetto or chrome://tracing. The file is a pure
 * function of (trace, scheme, config): byte-identical at any --jobs.
 */

#include <fstream>
#include <iostream>

#include "core/chopin.hh"
#include "stats/tracer.hh"
#include "util/check.hh"

namespace
{

chopin::Scheme
schemeByName(const std::string &name)
{
    using chopin::Scheme;
    if (name == "single")
        return Scheme::SingleGpu;
    if (name == "dup" || name == "duplication")
        return Scheme::Duplication;
    if (name == "gpupd")
        return Scheme::Gpupd;
    if (name == "gpupd-ideal")
        return Scheme::GpupdIdeal;
    if (name == "chopin-rr")
        return Scheme::ChopinRoundRobin;
    if (name == "chopin")
        return Scheme::Chopin;
    if (name == "chopin+cs")
        return Scheme::ChopinCompSched;
    if (name == "chopin-ideal")
        return Scheme::ChopinIdeal;
    CHOPIN_CHECK(false, "unknown scheme '", name,
                 "' (single dup gpupd gpupd-ideal chopin chopin-rr "
                 "chopin+cs chopin-ideal)");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace chopin;

    // Malformed arguments produce a "render_trace: error: ..." line and
    // exit code 2 instead of an assertion abort deep inside the library.
    setCliCheckTool("render_trace");

    CommandLine cli("render a CHOPIN trace to an image");
    cli.addFlag("scheme", "chopin+cs", "rendering scheme");
    cli.addFlag("gpus", "8", "number of GPUs");
    cli.addFlag("out", "frame.ppm", "output PPM path");
    cli.addFlag("trace-out", "",
                "write the simulation timeline as Chrome trace-event JSON "
                "(open in Perfetto or chrome://tracing; empty = off)");
    cli.addFlag("verify", "true", "compare against single-GPU reference");
    cli.parse(argc, argv);
    CHOPIN_CHECK(cli.positional().size() == 1,
                 "usage: render_trace <file.trace> [flags]");

    // Validate every output path before the (potentially long) simulation.
    std::string out_path = cli.getString("out");
    std::string trace_out = cli.getString("trace-out");
    checkWritablePath(out_path, "--out");
    if (!trace_out.empty())
        checkWritablePath(trace_out, "--trace-out");

    // The loader has already warned why the file was rejected.
    FrameTrace trace;
    const bool loaded = loadTrace(trace, cli.positional()[0]);
    CHOPIN_CHECK(loaded, "trace '", cli.positional()[0], "' rejected");

    long gpus = cli.getIntIn("gpus", 1, maxGpus);

    SystemConfig cfg;
    cfg.num_gpus = static_cast<unsigned>(gpus);
    Scheme scheme = schemeByName(cli.getString("scheme"));
    Tracer tracer;
    Image image;
    FrameResult r = runScheme(scheme, cfg, trace,
                              trace_out.empty() ? nullptr : &tracer, &image);

    std::cout << toString(scheme) << " on " << cfg.num_gpus
              << " GPU(s): " << r.cycles << " cycles, "
              << formatMb(r.traffic.total) << " MB inter-GPU traffic\n";

    if (cli.getBool("verify") && scheme != Scheme::SingleGpu) {
        Image reference;
        runSingleGpu(cfg, trace, nullptr, &reference);
        ImageDiff diff = compareImages(reference, image, 2e-4f);
        CHOPIN_CHECK(diff.differing_pixels == 0,
                     "image mismatch: ", diff.differing_pixels,
                     " pixels differ from the single-GPU reference");
        std::cout << "verified: image matches the single-GPU reference\n";
    }

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary | std::ios::trunc);
        CHOPIN_CHECK(os.good(), "cannot write '", trace_out, "'");
        tracer.exportChromeJson(os);
        os.flush();
        CHOPIN_CHECK(os.good(), "error while writing '", trace_out, "'");
        std::cout << "wrote " << trace_out << " (" << tracer.spanCount()
                  << " spans)\n";
    }

    const bool written = image.writePpm(out_path);
    CHOPIN_CHECK(written, "cannot write '", out_path, "'");
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
