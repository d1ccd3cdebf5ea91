/**
 * @file
 * The traced run's layer tour and the per-layer metric table.
 *
 * The tour calls each module's public functions directly (trace, gfx, gpu,
 * sim, net, comp, sfr, core, util) on the workload's own inputs and wraps
 * every call in a span. Spans recorded by a workload's own operations (a
 * frame simulation, a runSequence call, a sweep figure point) land in the
 * same log, so assembleLayers() reads one source for every metric.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "core/chopin.hh"

namespace perfbench
{

/** SingleGpu, Duplication, GPUpd, CHOPIN, CHOPIN+CompSched. */
const std::vector<chopin::Scheme> &frameSchemes();

/** Span name of one frame simulation under @p s at the run's job count. */
const char *schemeSpan(chopin::Scheme s);

/** PureSfr, PureAfr, HybridAfrSfr. */
const std::vector<chopin::SequenceScheme> &sequenceModes();

/** Span name of one runSequence call under @p m. */
const char *sequenceSpan(chopin::SequenceScheme m);

/** Stream options: CHOPIN+CompSched inside groups, 2 AFR groups. */
chopin::SequenceOptions sequenceOptions(chopin::SequenceScheme m);

/** One frame simulation: input index and scheme. */
using SimKey = std::pair<std::size_t, chopin::Scheme>;

/** What the tour runs on; filled by the workload. */
struct TourInputs
{
    std::vector<const chopin::FrameTrace *> frames;
    std::vector<const chopin::SequenceTrace *> seqs;
    chopin::SystemConfig cfg;
    /** Scale and benchmark names for the sweep-engine probes. */
    int scale = 8;
    std::vector<std::string> sweep_benches;
    /** Results at the run's job count per (frame, scheme); the tour
     *  simulates the missing ones under schemeSpan(). */
    std::map<SimKey, chopin::FrameAccounting> refs;
    /** False where the workload's own operations already produced the
     *  sfr.seq.* spans (stream) or the core.* spans and counts (sweep). */
    bool run_sequences = true;
    bool run_mini_sweep = true;
};

/** Run every layer probe, recording spans into @p log. */
void runLayerTour(const RunConfig &rc, TourInputs &in, SpanLog &log,
                  RunOutput &out);

/**
 * Turn spans and counts into the per-layer metrics (out.per_layer). A
 * metric with no data counts as a failed check.
 */
void assembleLayers(const SpanLog &log, RunOutput &out);

/** The gmean speedup the paper reports for CHOPIN+CompSched. */
inline constexpr double paperSpeedup = 1.25;

/**
 * |gmean(Duplication cycles / CHOPIN+CompSched cycles) - 1.25| / 1.25 in
 * percent over the inputs of @p refs that have both schemes.
 */
double paperGapPct(const std::map<SimKey, chopin::FrameAccounting> &refs,
                   double *gmean_out = nullptr);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
