/**
 * @file
 * The three benchmark workloads. Each runs closed-loop (one caller,
 * back-to-back operations) for RunConfig::seconds, checks every result,
 * and fills the end-to-end metrics — or, with RunConfig::trace, runs the
 * traced variant and fills the per-layer metrics instead.
 *
 *  - frame:  runScheme, five schemes x eight Table III frames (scale 4);
 *            one operation = one frame simulation.
 *  - sweep:  SweepRunner over the Fig. 19 + Fig. 20 grids (scale 8) with
 *            an empty disk cache, then a fresh runner re-reading it; one
 *            operation = one cold figure point (6 schemes x 8 frames).
 *  - stream: runSequence, three stream schemes x two 16-frame sequences
 *            (scale 8); one operation = one runSequence call.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench.hh"

namespace perfbench
{

RunOutput runFrameWorkload(const RunConfig &rc);
RunOutput runSweepWorkload(const RunConfig &rc);
RunOutput runStreamWorkload(const RunConfig &rc);

/** Trace scale divisor a workload runs at. */
int workloadScale(const std::string &workload, bool tiny);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
