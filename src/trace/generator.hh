/**
 * @file
 * Synthetic frame-trace generation.
 *
 * The paper's eight workloads are single-frame captures of proprietary
 * games, which cannot be redistributed; this generator regenerates
 * structurally equivalent frames from the published per-game statistics
 * (Table III) plus per-game behavioural knobs (trace/profile.hh). See
 * DESIGN.md for the substitution argument.
 *
 * Frame anatomy (mirroring a typical DX9-era frame):
 *   1. a few full-screen background draws (sky, backdrop),
 *   2. the opaque object section — heavy-tailed draw sizes, screen-localized
 *      clusters, roughly front-to-back order — interrupted by intermediate
 *      render-target passes (shadow/bloom), depth-read-only decal draws and
 *      occasional depth-function changes,
 *   3. a transparent tail: `over`-blended surfaces back-to-front, then
 *      additive particles.
 * Every one of CHOPIN's five composition-group boundary events therefore
 * occurs naturally in each generated frame.
 */

#ifndef CHOPIN_TRACE_GENERATOR_HH
#define CHOPIN_TRACE_GENERATOR_HH

#include "trace/draw_command.hh"
#include "trace/profile.hh"
#include "trace/sequence.hh"

namespace chopin
{

/** Generate the frame trace for @p profile. Deterministic in profile.seed. */
FrameTrace generateTrace(const BenchmarkProfile &profile);

/** The largest scale divisor a tool accepts for --scale. */
inline constexpr long maxScaleDivisor = 1000000;

/** Convenience: generate a benchmark by name at a given scale divisor
 *  (>= 1; 1 = full Table III size). */
FrameTrace generateBenchmark(const std::string &name, int scale_divisor = 1);

/** Shape of a generated frame sequence (trace/sequence.hh). */
struct SequenceParams
{
    std::uint32_t num_frames = 8;
    CameraPath path = CameraPath::Orbit;
    CoherenceKnobs knobs;
};

/**
 * Generate an animated frame sequence for @p profile: the base frame is
 * exactly generateTrace(profile); per-frame keys add a camera spline
 * (Orbit rolls the view with a slight zoom oscillation, Dolly pushes in,
 * Static pins it) advancing every knobs.camera_hold frames, and a
 * deterministic knobs.animated_frac subset of the opaque object draws gets
 * a sinusoidal model-matrix animation channel of amplitude
 * knobs.object_motion. Deterministic in (profile.seed, params).
 */
SequenceTrace generateSequence(const BenchmarkProfile &profile,
                               const SequenceParams &params);

/** Convenience: generateSequence for a named benchmark at a scale. */
SequenceTrace generateBenchmarkSequence(const std::string &name,
                                        int scale_divisor = 1,
                                        const SequenceParams &params = {});

} // namespace chopin

#endif // CHOPIN_TRACE_GENERATOR_HH
