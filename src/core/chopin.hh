/**
 * @file
 * CHOPIN public API.
 *
 * One include gives downstream users the whole system:
 *
 * @code
 *   #include "core/chopin.hh"
 *
 *   chopin::SystemConfig cfg;            // Table II defaults, 8 GPUs
 *   chopin::FrameTrace trace = chopin::generateBenchmark("ut3");
 *   chopin::FrameResult base =
 *       chopin::runScheme(chopin::Scheme::Duplication, cfg, trace);
 *   chopin::FrameResult best =
 *       chopin::runScheme(chopin::Scheme::ChopinCompSched, cfg, trace);
 *   double speedup = double(base.cycles) / double(best.cycles);
 * @endcode
 *
 * Layers (each usable standalone):
 *  - trace/: synthetic frame generation (Table III profiles) + trace IO
 *  - gfx/:   the functional rendering pipeline
 *  - comp/:  image-composition operators
 *  - gpu/:   the per-GPU timing model
 *  - net/:   the inter-GPU interconnect model
 *  - sfr/:   the SFR schemes (duplication, GPUpd, CHOPIN) and schedulers,
 *            plus frame streams (runSequence: pure SFR, pure AFR, hybrid)
 */

#ifndef CHOPIN_CORE_CHOPIN_HH
#define CHOPIN_CORE_CHOPIN_HH

#include "comp/operators.hh"
#include "gfx/renderer.hh"
#include "sfr/comp_scheduler.hh"
#include "sfr/config.hh"
#include "sfr/grouping.hh"
#include "sfr/schemes.hh"
#include "sfr/sequence.hh"
#include "stats/table.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "util/cli.hh"
#include "util/thread_pool.hh"

namespace chopin
{

/** Library version. */
inline constexpr int versionMajor = 1;
inline constexpr int versionMinor = 0;

/** Speedup of @p result over @p baseline (frame cycles ratio). */
double speedupOver(const FrameResult &baseline, const FrameResult &result);

} // namespace chopin

#endif // CHOPIN_CORE_CHOPIN_HH
