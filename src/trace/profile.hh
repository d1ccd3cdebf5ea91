/**
 * @file
 * Benchmark profiles: the parameters from which the synthetic trace
 * generator regenerates a stand-in for each of the paper's eight game
 * frames (Table III).
 *
 * The published resolution, draw count, and triangle count are matched
 * exactly; the remaining knobs encode the workload properties the paper's
 * mechanisms are sensitive to (see DESIGN.md §1.3).
 */

#ifndef CHOPIN_TRACE_PROFILE_HH
#define CHOPIN_TRACE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace chopin
{

/** Generator parameters for one benchmark. */
struct BenchmarkProfile
{
    std::string name;      ///< short name used in tables ("cod2")
    std::string full_name; ///< game title ("Call of Duty 2")
    int width = 1280;
    int height = 1024;
    int num_draws = 1000;             ///< Table III draw count
    std::uint64_t num_triangles = 0;  ///< Table III triangle count
    std::uint64_t seed = 1;           ///< deterministic generation seed

    /** Fraction of draws that are tiny full-screen-ish background/UI
     *  passes (2-8 triangles covering large areas). */
    double background_draw_frac = 0.08;
    /** Fraction of draws using a transparent blend operator (at the end of
     *  the frame, back-to-front). */
    double transparent_draw_frac = 0.06;
    /** Fraction of transparent draws using additive blending (particles). */
    double additive_frac = 0.25;
    /** Fraction of opaque object draws with alpha-test (disables early-z). */
    double shader_discard_frac = 0.05;
    /** Log-normal sigma of per-draw triangle counts (heavy tail drives the
     *  round-robin load imbalance of Fig. 8). */
    double draw_size_sigma = 1.1;
    /** Target opaque overdraw factor: sum of object-triangle coverage over
     *  screen pixels; sets mean triangle screen area. */
    double overdraw = 1.9;
    /** Fraction of object triangles that are large (decals, terrain);
     *  `grid` sets this high, producing its outsized composition traffic
     *  (Fig. 17). */
    double large_triangle_frac = 0.008;
    /** Mean screen area in pixels of "large" triangles. */
    double large_triangle_area = 1500.0;
    /** Intermediate render-target passes (shadow/bloom): each inserts a
     *  render-target switch (group-boundary event 2) mid-frame. */
    int rt_passes = 3;
    /** Draws that test depth without writing it (event 3), e.g. decals. */
    int depth_readonly_draws = 2;
    /** Mid-frame depth-function changes (event 4). */
    int depth_func_changes = 1;
    /** Stencil-masked decal draws (mask + masked overlays, also event 4). */
    int stencil_draws = 3;
    /** Fraction of input triangles that face away from the camera. */
    double backface_frac = 0.3;
    /** Fraction of draws whose cluster partially leaves the viewport. */
    double offscreen_frac = 0.05;
    /** How strongly object draws are screen-localized: cluster radius as a
     *  fraction of the screen diagonal. */
    double cluster_radius_frac = 0.02;
};

/** The eight profiles matching Table III of the paper. */
const std::vector<BenchmarkProfile> &allBenchmarkProfiles();

/** Look up a profile by short name; fails a check if unknown. */
const BenchmarkProfile &benchmarkProfile(const std::string &name);

/**
 * Scale a profile down for fast runs: divides draw and triangle counts by
 * @p divisor (resolution is kept). The result still exercises every code
 * path; only absolute cycle counts shrink.
 */
BenchmarkProfile scaleProfile(const BenchmarkProfile &p, int divisor);

} // namespace chopin

#endif // CHOPIN_TRACE_PROFILE_HH
