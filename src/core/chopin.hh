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
 *  - sfr/:   the SFR schemes (duplication, GPUpd, CHOPIN) and schedulers
 */

#ifndef CHOPIN_CORE_CHOPIN_HH
#define CHOPIN_CORE_CHOPIN_HH

#include "comp/operators.hh"
#include "gfx/renderer.hh"
#include "sfr/afr.hh"
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

/**
 * Run every scheme of the paper's main comparison (Fig. 13) on one trace.
 * Results are ordered: Duplication, GPUpd, IdealGPUpd, CHOPIN,
 * CHOPIN+CompSched, IdealCHOPIN.
 */
std::vector<FrameResult> runMainComparison(const SystemConfig &cfg,
                                           const FrameTrace &trace);

/** Speedup of @p result over @p baseline (frame cycles ratio). */
double speedupOver(const FrameResult &baseline, const FrameResult &result);

/**
 * Run the Section VI-H stream comparison on one sequence: pure SFR, pure
 * AFR and the AFR+SFR hybrid (at @p hybrid_groups groups), all with
 * @p intra_scheme inside multi-GPU groups. Results are ordered PureSfr,
 * PureAfr, HybridAfrSfr — latency falls and micro-stutter rises along
 * that ordering on throughput-bound streams, which is the paper's
 * latency/throughput/consistency trade-off in one table.
 */
std::vector<SequenceResult> runStreamComparison(
    const SystemConfig &cfg, const SequenceTrace &seq,
    unsigned hybrid_groups = 2,
    Scheme intra_scheme = Scheme::ChopinCompSched);

} // namespace chopin

#endif // CHOPIN_CORE_CHOPIN_HH
