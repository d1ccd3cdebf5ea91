/**
 * @file
 * The SFR scheme runners. Each runs one frame under one scheme and returns
 * its timing, traffic and fragment statistics, plus the hashes of the
 * final image. The image itself is an opt-in output for the callers that
 * compare or write pixels (the oracle tests, render_trace).
 */

#ifndef CHOPIN_SFR_SCHEMES_HH
#define CHOPIN_SFR_SCHEMES_HH

#include "sfr/config.hh"
#include "sfr/draw_scheduler.hh"
#include "trace/draw_command.hh"
#include "util/image.hh"

namespace chopin
{

/**
 * Every runner takes two optional outputs:
 *  - a timeline tracer (stats/tracer.hh). When one is attached, pipeline
 *    stages, interconnect transfers and scheme phases (sync,
 *    projection/distribution, composition) emit spans into it; when
 *    nullptr (the default), tracing costs a pointer test and nothing else.
 *  - an image. When non-null, the final frame (render target 0's color)
 *    is moved into it; when nullptr (the default), the render target goes
 *    back to the thread's surface cache for the next run.
 * Neither changes the returned FrameResult.
 */

/** Single-GPU in-order rendering: oracle image + normalization baseline. */
FrameResult runSingleGpu(const SystemConfig &cfg, const FrameTrace &trace,
                         Tracer *tracer = nullptr, Image *image = nullptr);

/** Conventional SFR: every GPU processes every primitive (Section III-A). */
FrameResult runDuplication(const SystemConfig &cfg, const FrameTrace &trace,
                           Tracer *tracer = nullptr,
                           Image *image = nullptr);

/** GPUpd (Kim et al., MICRO 2017) with batching and runahead; @p ideal uses
 *  zero-latency infinite-bandwidth links (Fig. 5's idealization). */
FrameResult runGpupd(const SystemConfig &cfg, const FrameTrace &trace,
                     bool ideal, Tracer *tracer = nullptr,
                     Image *image = nullptr);

/** CHOPIN variant selection. */
struct ChopinOptions
{
    DrawPolicy policy = DrawPolicy::FewestRemaining;
    bool comp_scheduler = false;
    bool ideal = false;
};

/** CHOPIN (Section IV). */
FrameResult runChopin(const SystemConfig &cfg, const FrameTrace &trace,
                      const ChopinOptions &opts, Tracer *tracer = nullptr,
                      Image *image = nullptr);

/** Dispatch by Scheme enum (SingleGpu forces num_gpus = 1). */
FrameResult runScheme(Scheme scheme, const SystemConfig &cfg,
                      const FrameTrace &trace, Tracer *tracer = nullptr,
                      Image *image = nullptr);

} // namespace chopin

#endif // CHOPIN_SFR_SCHEMES_HH
