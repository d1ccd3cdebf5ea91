/**
 * @file
 * Building a frame programmatically with the public API — no trace
 * generator involved. Constructs a small 3D scene (a floor, a ring of
 * pyramids, and two glass panes blended back-to-front), renders it with
 * single-GPU and CHOPIN pipelines, verifies they agree, writes the frame to
 * a PPM file, and round-trips the trace through the binary trace format.
 *
 * Run: ./custom_scene [--gpus=4] [--out=scene.ppm]
 */

#include <cmath>
#include <iostream>

#include "core/chopin.hh"

namespace
{

using namespace chopin;

/** Append a colored triangle given three object-space points. */
void
addTriangle(DrawCommand &cmd, Vec3 a, Vec3 b, Vec3 c, Color color,
            float alpha = 1.0f)
{
    Triangle t;
    color.a = alpha;
    t.v[0] = {a, color};
    t.v[1] = {b, color};
    t.v[2] = {c, color};
    cmd.triangles.push_back(t);
}

/** A pyramid of four front-facing side triangles at (x, z). */
DrawCommand
makePyramid(DrawId id, float x, float z, float size, Color color)
{
    DrawCommand cmd;
    cmd.id = id;
    cmd.backface_cull = false; // keep the example simple: draw both sides
    Vec3 apex{x, -0.1f, z};
    Vec3 base[4] = {{x - size, -0.9f, z - size},
                    {x + size, -0.9f, z - size},
                    {x + size, -0.9f, z + size},
                    {x - size, -0.9f, z + size}};
    for (int i = 0; i < 4; ++i)
        addTriangle(cmd, base[i], base[(i + 1) % 4], apex,
                    clamp01(color * (0.7f + 0.1f * static_cast<float>(i))));
    return cmd;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace chopin;

    CommandLine cli("CHOPIN custom-scene example");
    cli.addFlag("gpus", "4", "number of GPUs");
    cli.addFlag("out", "scene.ppm", "output image path");
    cli.parse(argc, argv);

    FrameTrace trace;
    trace.name = "custom";
    trace.full_name = "Programmatic scene";
    trace.viewport = {640, 480};
    trace.clear_color = {0.02f, 0.02f, 0.05f, 1.0f};
    // A perspective camera looking down -z from slightly above.
    trace.view_proj =
        Mat4::perspective(1.1f, 640.0f / 480.0f, 0.1f, 50.0f) *
        Mat4::translate(0.0f, 0.2f, -3.0f) * Mat4::rotateX(0.25f);

    DrawId next_id = 0;

    // Floor: two big triangles.
    DrawCommand floor;
    floor.id = next_id++;
    floor.backface_cull = false;
    addTriangle(floor, {-6, -0.9f, -8}, {6, -0.9f, -8}, {6, -0.9f, 2},
                {0.25f, 0.3f, 0.25f, 1});
    addTriangle(floor, {-6, -0.9f, -8}, {6, -0.9f, 2}, {-6, -0.9f, 2},
                {0.22f, 0.28f, 0.22f, 1});
    trace.draws.push_back(floor);

    // A ring of pyramids, drawn front-to-back.
    const Color palette[] = {{0.9f, 0.3f, 0.2f, 1}, {0.2f, 0.7f, 0.9f, 1},
                             {0.9f, 0.8f, 0.2f, 1}, {0.5f, 0.9f, 0.4f, 1},
                             {0.8f, 0.4f, 0.9f, 1}};
    for (int i = 0; i < 9; ++i) {
        float angle = 0.7f * static_cast<float>(i);
        float x = 2.2f * std::sin(angle);
        float z = -2.5f - 0.45f * static_cast<float>(i);
        trace.draws.push_back(
            makePyramid(next_id++, x, z, 0.55f, palette[i % 5]));
    }

    // Two glass panes, back-to-front, blended with `over`.
    for (int i = 0; i < 2; ++i) {
        DrawCommand glass;
        glass.id = next_id++;
        glass.state.blend_op = BlendOp::Over;
        glass.state.depth_test = false;
        glass.state.depth_write = false;
        glass.backface_cull = false;
        float z = -4.0f + 1.4f * static_cast<float>(i); // far pane first
        Color tint = i == 0 ? Color{0.4f, 0.6f, 1.0f, 1}
                            : Color{1.0f, 0.5f, 0.4f, 1};
        addTriangle(glass, {-1.5f, -0.9f, z}, {1.5f, -0.9f, z},
                    {1.5f, 1.2f, z}, tint, 0.35f);
        addTriangle(glass, {-1.5f, -0.9f, z}, {1.5f, 1.2f, z},
                    {-1.5f, 1.2f, z}, tint, 0.35f);
        trace.draws.push_back(glass);
    }

    std::cout << "scene: " << trace.draws.size() << " draws, "
              << trace.totalTriangles() << " triangles\n";

    SystemConfig cfg;
    cfg.num_gpus = static_cast<unsigned>(cli.getInt("gpus"));
    cfg.group_threshold = 1; // the scene is tiny; distribute anyway

    Image reference_image, chopin_image;
    FrameResult reference =
        runSingleGpu(cfg, trace, nullptr, &reference_image);
    FrameResult chopin = runScheme(Scheme::ChopinCompSched, cfg, trace,
                                   nullptr, &chopin_image);

    ImageDiff diff = compareImages(reference_image, chopin_image, 2e-4f);
    std::cout << "single GPU: " << reference.cycles << " cycles\n"
              << "CHOPIN(" << cfg.num_gpus << " GPUs): " << chopin.cycles
              << " cycles, "
              << formatDouble(speedupOver(reference, chopin), 2)
              << "x, image "
              << (diff.differing_pixels == 0 ? "matches" : "MISMATCHES")
              << " the reference\n";

    if (chopin.cycles > reference.cycles) {
        std::cout << "(a 42-triangle scene is far below the composition "
                     "threshold's break-even point —\n multi-GPU rendering "
                     "pays off on real frames; see the quickstart)\n";
    }

    std::string out = cli.getString("out");
    if (chopin_image.writePpm(out))
        std::cout << "wrote " << out << "\n";

    // Round-trip the trace through the binary format.
    std::string trace_path = "custom_scene.trace";
    if (saveTrace(trace, trace_path)) {
        FrameTrace loaded;
        loadTrace(loaded, trace_path);
        std::cout << "trace round-trip: " << loaded.draws.size()
                  << " draws, " << loaded.totalTriangles()
                  << " triangles (saved to " << trace_path << ")\n";
    }
    return diff.differing_pixels == 0 ? 0 : 1;
}
