/**
 * @file
 * Image-composition timing: naive direct-send vs. CHOPIN's composition
 * scheduler (Section IV-E, Figs. 11/12), plus the asynchronous adjacent
 * composition of transparent groups (Section III-B).
 *
 * Opaque groups: every GPU must exchange sub-image regions with every other
 * GPU (each receives the pixels that fall into its owned screen tiles).
 *  - Naive direct-send: when a GPU finishes rendering it streams its regions
 *    to destinations in fixed ascending order, whether or not they can
 *    accept; a destination whose ingress port is busy back-pressures the
 *    sender's egress port (head-of-line blocking), which is the congestion
 *    the paper describes.
 *  - Scheduled: a centralized scheduler pairs GPUs that are (1) ready,
 *    (2) not currently exchanging, and (3) have not yet composed with each
 *    other; paired GPUs exchange their two regions concurrently over the
 *    full-duplex link pair.
 *
 * Transparent groups: sub-images are ordered (GPU g holds draws earlier in
 * the input order than GPU g+1); only adjacent partial composites may merge.
 *  - Naive: a strict left fold into GPU 0.
 *  - Scheduled: adjacent pairs merge as soon as both sides are available
 *    (a binary tree whose nodes fire at the max of their own children, not
 *    at a global barrier), then the holder distributes the composite to the
 *    region owners.
 *
 * Every compose* entry point checks the job's pixel-ownership invariant
 * and mutates the coordinator-owned Interconnect, so none may run inside
 * a parallelFor region (util/sequential.hh).
 */

#ifndef CHOPIN_SFR_COMP_SCHEDULER_HH
#define CHOPIN_SFR_COMP_SCHEDULER_HH

#include <vector>

#include "gpu/timing.hh"
#include "net/interconnect.hh"
#include "sim/event_queue.hh"
#include "util/types.hh"

namespace chopin
{

/** Inputs of one composition phase (one group). */
struct CompositionJob
{
    unsigned num_gpus = 0;
    /** Per-GPU render completion time of the group's draws. */
    std::vector<Tick> ready;
    /** pair_pixels[src * n + dst]: pixels src must send to dst. */
    std::vector<std::uint64_t> pair_pixels;
    /** Pixels of each GPU's sub-image that it owns itself (merged locally). */
    std::vector<std::uint64_t> self_pixels;
    /** Total touched pixels of each GPU's sub-image (transparent merges move
     *  whole partial composites). */
    std::vector<std::uint64_t> subimage_pixels;
    /** Screen size in pixels: caps the growth of merged composites. */
    std::uint64_t screen_pixels = ~std::uint64_t(0);

    std::uint64_t
    pairPixels(GpuId src, GpuId dst) const
    {
        return pair_pixels[static_cast<std::size_t>(src) * num_gpus + dst];
    }

    /** Total pixels the job moves across the interconnect. */
    std::uint64_t
    pairPixels() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t px : pair_pixels)
            total += px;
        return total;
    }
};

/** Timing outcome of one composition phase. */
struct CompositionTiming
{
    Tick end = 0;               ///< all sub-images composed
    std::vector<Tick> gpu_done; ///< per-GPU completion
};

/** Naive direct-send composition of an opaque group. */
CompositionTiming composeOpaqueDirectSend(const CompositionJob &job,
                                          Interconnect &net,
                                          const TimingParams &timing);

/** Scheduler-paired composition of an opaque group. */
CompositionTiming composeOpaqueScheduled(const CompositionJob &job,
                                         Interconnect &net,
                                         const TimingParams &timing);

/** Sequential left-fold composition of a transparent group (no scheduler).
 *  Includes the final distribution of the composite to region owners. */
CompositionTiming composeTransparentChain(const CompositionJob &job,
                                          Interconnect &net,
                                          const TimingParams &timing);

/** Asynchronous adjacent (tree) composition of a transparent group.
 *  Includes the final distribution of the composite to region owners. */
CompositionTiming composeTransparentTree(const CompositionJob &job,
                                         Interconnect &net,
                                         const TimingParams &timing);

} // namespace chopin

#endif // CHOPIN_SFR_COMP_SCHEDULER_HH
