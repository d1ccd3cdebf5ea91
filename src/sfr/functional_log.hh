/**
 * @file
 * Functional logs: what a scheme's functional path produced for one frame,
 * recorded by one run and read back by later runs whose functional inputs
 * are the same (DESIGN.md §9.4).
 *
 * The functional renderer is nearly all of a run's host time and the
 * timing model almost none of it, yet a sensitivity sweep varies mostly
 * timing knobs. A run handed an empty log renders as usual and records
 * what the timing model will ask of its functional path: per draw, the
 * per-GPU stats and touched tiles; per distributed CHOPIN group, the
 * assignment, per-draw stats, composition payload rows and merged tiles;
 * and the final image hashes. A run handed a recorded log takes those
 * results from it instead: it takes no surface, resets nothing, renders
 * and hashes nothing, and runs every timing step live. Only the sweep
 * engine's prefetch (core/sweep.hh) passes a log, and only to scenarios
 * of one functional family.
 */

#ifndef CHOPIN_SFR_FUNCTIONAL_LOG_HH
#define CHOPIN_SFR_FUNCTIONAL_LOG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "gfx/renderer.hh"
#include "sfr/config.hh"

namespace chopin
{

/** Schemes in one class read the same functional inputs: given a trace
 *  and the functional part of a config, they render the same draws into
 *  the same surfaces. */
enum class FunctionalClass
{
    None,        ///< SingleGpu: joins no family
    Partitioned, ///< Duplication, GPUpd, IdealGPUpd
    ChopinFewestRemaining, ///< CHOPIN, CHOPIN+CompSched, IdealCHOPIN
    ChopinRoundRobin,      ///< CHOPIN with round-robin draw scheduling
};

FunctionalClass functionalClass(Scheme scheme);

/** Number of CompPayload modes: a logged group counts all of them. */
inline constexpr std::size_t compPayloadModes = 3;

/** A CompositionJob's payload rows under one CompPayload mode. */
struct PayloadRows
{
    std::vector<std::uint64_t> pair_pixels;     ///< [src * n + dst]
    std::vector<std::uint64_t> self_pixels;     ///< per GPU
    std::vector<std::uint64_t> subimage_pixels; ///< per GPU
};

/** One draw rendered by tile ownership (SimContext::renderPartitioned). */
struct LoggedDraw
{
    DrawId id = 0;
    /** The draw under GeometryCharging::Duplicated, the charging every
     *  partitioned draw renders under (SimContext::renderPartitioned). */
    PartitionedDraw part;
    /** Tiles of the draw's render target it wrote, ascending. */
    std::vector<std::uint32_t> touched_tiles;
};

/** One distributed CHOPIN group. */
struct LoggedGroup
{
    /** GPU of each draw of the group: a replay must schedule the same. */
    std::vector<GpuId> assignment;
    /** Each draw's stats as rendered into its GPU's sub-image. */
    std::vector<DrawStats> draw_stats;
    /** Payload rows indexed by CompPayload. */
    std::array<PayloadRows, compPayloadModes> payload;
    /** Tiles of the group's render target the merge wrote, ascending. */
    std::vector<std::uint32_t> merged_tiles;
};

/**
 * The functional results of one recorded run, consumed in order by each
 * replay. A log holds no pixels: about 1 KB per partitioned draw at 8
 * GPUs, so at most about 350 KB for a scale-8 frame and 3 MB at scale 1.
 */
struct FunctionalLog
{
    /** Set by the recording run's finish(); later runs replay. */
    bool recorded = false;
    FunctionalClass cls = FunctionalClass::None;
    /** Partitioned draws in render order. */
    std::vector<LoggedDraw> draws;
    /** Distributed CHOPIN groups in group order. */
    std::vector<LoggedGroup> groups;
    std::uint64_t frame_hash = 0;
    std::uint64_t content_hash = 0;
    /** Runs that took their functional results from this log (a CHOPIN
     *  replay that meets a different assignment falls back and does not
     *  count). */
    std::uint64_t replays = 0;
};

} // namespace chopin

#endif // CHOPIN_SFR_FUNCTIONAL_LOG_HH
