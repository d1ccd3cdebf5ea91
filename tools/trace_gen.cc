/**
 * @file
 * trace_gen: generate a benchmark trace (or a custom-seeded variant) and
 * save it in the binary trace format. With --frames > 1 it generates an
 * animated sequence (shared geometry, per-frame camera + object-transform
 * keys) and saves it in the sequence format instead; trace_info and
 * loadSequence() consume either.
 *
 *   trace_gen --bench=ut3 --out=ut3.trace
 *   trace_gen --bench=grid --scale=4 --seed=99 --out=grid_s99.trace
 *   trace_gen --bench=wolf --frames=16 --path=orbit --out=wolf_orbit.trace
 */

#include <iostream>

#include "core/chopin.hh"
#include "trace/generator.hh"
#include "util/check.hh"
#include "util/log.hh"

namespace
{

chopin::CameraPath
parseCameraPath(const std::string &name)
{
    using chopin::CameraPath;
    if (name == "static")
        return CameraPath::Static;
    if (name == "orbit")
        return CameraPath::Orbit;
    if (name == "dolly")
        return CameraPath::Dolly;
    CHOPIN_CHECK(false, "--path must be static, orbit or dolly, got '",
                 name, "'");
    return CameraPath::Static; // unreachable
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace chopin;

    // Malformed arguments produce a "trace_gen: error: ..." line and exit
    // code 2 instead of an assertion abort deep inside the library.
    setCliCheckTool("trace_gen");

    CommandLine cli("generate a CHOPIN benchmark trace");
    cli.addFlag("bench", "ut3", "benchmark profile (cod2 cry grid mirror "
                                "nfs stal ut3 wolf)");
    cli.addFlag("scale", "1", "trace scale divisor");
    cli.addFlag("seed", "0", "override the profile seed (0 = keep default)");
    cli.addFlag("frames", "1", "frames in the sequence (1 = single-frame "
                               "trace in the frame format)");
    cli.addFlag("path", "orbit", "camera path for --frames > 1 "
                                 "(static orbit dolly)");
    cli.addFlag("out", "", "output path (default: <bench>.trace)");
    cli.parse(argc, argv);

    long scale = cli.getInt("scale");
    CHOPIN_CHECK(scale >= 1 && scale <= 1000000,
                 "--scale must be in [1, 1000000], got ", scale);
    long seed = cli.getInt("seed");
    CHOPIN_CHECK(seed >= 0, "--seed must be non-negative, got ", seed);
    long frames = cli.getInt("frames");
    CHOPIN_CHECK(frames >= 1 && frames <= 100000,
                 "--frames must be in [1, 100000], got ", frames);

    BenchmarkProfile profile = scaleProfile(
        benchmarkProfile(cli.getString("bench")), static_cast<int>(scale));
    if (seed != 0)
        profile.seed = static_cast<std::uint64_t>(seed);

    if (frames > 1) {
        SequenceParams params;
        params.num_frames = static_cast<std::uint32_t>(frames);
        params.path = parseCameraPath(cli.getString("path"));
        SequenceTrace seq = generateSequence(profile, params);
        std::string out = cli.getString("out");
        if (out.empty())
            out = seq.base.name + ".trace";
        if (!saveSequence(seq, out))
            fatal("cannot write '", out, "'");
        std::cout << "wrote " << out << ": " << seq.frameCount()
                  << " frames (" << toString(seq.path) << " camera), "
                  << seq.base.draws.size() << " draws, "
                  << seq.base.totalTriangles() << " triangles/frame, "
                  << seq.base.viewport.width << "x"
                  << seq.base.viewport.height << "\n";
        return 0;
    }

    FrameTrace trace = generateTrace(profile);
    std::string out = cli.getString("out");
    if (out.empty())
        out = trace.name + ".trace";
    if (!saveTrace(trace, out))
        fatal("cannot write '", out, "'");

    std::cout << "wrote " << out << ": " << trace.draws.size() << " draws, "
              << trace.totalTriangles() << " triangles, "
              << trace.viewport.width << "x" << trace.viewport.height
              << "\n";
    return 0;
}
