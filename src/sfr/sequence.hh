/**
 * @file
 * Frame-stream scheduling: pure SFR, pure AFR, and the hybrid AFR+SFR
 * scheme of the paper's Section VI-H, run over a SequenceTrace.
 *
 * The hybrid splits the system into afr_groups GPU subsets; consecutive
 * frames alternate across subsets (AFR between groups) while each subset
 * renders its frame with a full SFR scheme (CHOPIN, GPUpd, ...). Pure SFR
 * is the 1-group corner (every frame uses all GPUs, no pipelining); pure
 * AFR is the num_gpus-group corner (each frame renders on a single GPU).
 *
 * With carry-over enabled, a group's next frame starts its geometry work
 * while the previous frame's composition/sync tail is still draining —
 * the inter-frame overlap a real driver gets from buffered frame queues.
 * Frame *completion* (what latency and stutter measure) is unaffected;
 * only the successor's start time moves up.
 *
 * SequenceResult carries the per-frame FrameResults plus stream-level
 * metrics — makespan, throughput, average latency and micro-stutter (the
 * standard deviation of inter-frame completion gaps, the paper's
 * motivation for SFR over AFR) — registered through the metric registry
 * (stats/metrics.hh) so sequence runs serialize, compare and report like
 * frame runs. Determinism contract: results are bit-identical at any host
 * job count; frames of a sequence may be simulated concurrently because
 * each frame is an independent deterministic simulation and the stream
 * arithmetic is serial.
 */

#ifndef CHOPIN_SFR_SEQUENCE_HH
#define CHOPIN_SFR_SEQUENCE_HH

#include "sfr/schemes.hh"
#include "trace/sequence.hh"

namespace chopin
{

/** How a frame stream is scheduled onto the multi-GPU system. */
enum class SequenceScheme
{
    PureSfr,      ///< every frame uses all GPUs (afr_groups = 1)
    PureAfr,      ///< one GPU per frame (afr_groups = num_gpus)
    HybridAfrSfr, ///< AFR across GPU subsets, SFR inside each subset
};

std::string toString(SequenceScheme s);

/** Stream-scheduling options for runSequence(). */
struct SequenceOptions
{
    SequenceScheme scheme = SequenceScheme::HybridAfrSfr;
    /** SFR scheme inside each group (groups of one GPU use SingleGpu). */
    Scheme intra_scheme = Scheme::ChopinCompSched;
    /** Group count for HybridAfrSfr (ignored by the pure corners).
     *  @pre divides cfg.num_gpus. */
    unsigned afr_groups = 2;
    /** Overlap a frame's composition/sync tail with the group's next
     *  frame (see the file comment). */
    bool carry_over = true;

    /** Group count this scheme resolves to on a @p num_gpus system. */
    unsigned resolvedGroups(unsigned num_gpus) const;
};

/**
 * Stream-level accounting of a sequence run — the registry-visible part
 * of SequenceResult. Like FrameAccounting, every field registers through
 * visitMetrics so it serializes, diffs and reports generically.
 */
struct SequenceAccounting
{
    std::uint64_t num_frames = 0;
    std::uint64_t num_gpus = 0;
    std::uint64_t afr_groups = 1;
    std::uint64_t gpus_per_group = 1;

    /** Completion time of the whole stream. */
    Tick makespan = 0;
    /** Mean single-frame latency in cycles (responsiveness). */
    double avg_latency = 0.0;
    /** Throughput: frames completed per million cycles. */
    double frames_per_mcycle = 0.0;
    /** Mean gap between consecutive frame completions (cycles/frame). */
    double avg_frame_interval = 0.0;
    /** Largest gap between consecutive frame completions. */
    Tick worst_frame_interval = 0;
    /** Micro-stutter: stddev of inter-frame completion gaps (cycles). */
    double micro_stutter = 0.0;

    /** Fingerprint of every frame's hashes, cycles and completion tick —
     *  the stream analogue of frame_hash for determinism gates. */
    std::uint64_t sequence_hash = 0;

    /** Metric registry visitation (stats/metrics.hh). */
    template <typename Self, typename V>
    static void
    visitMetrics(Self &self, V &&v)
    {
        v.field({"seq.num_frames", "count"}, self.num_frames);
        v.field({"seq.num_gpus", "count"}, self.num_gpus);
        v.field({"seq.afr_groups", "count"}, self.afr_groups);
        v.field({"seq.gpus_per_group", "count"}, self.gpus_per_group);
        v.field({"seq.makespan", "cycles"}, self.makespan);
        v.field({"seq.avg_latency", "cycles"}, self.avg_latency);
        v.field({"seq.frames_per_mcycle", "rate"}, self.frames_per_mcycle);
        v.field({"seq.avg_frame_interval", "cycles"},
                self.avg_frame_interval);
        v.field({"seq.worst_frame_interval", "cycles"},
                self.worst_frame_interval);
        v.field({"seq.micro_stutter", "cycles"}, self.micro_stutter);
        v.field({"seq.sequence_hash", "hash"}, self.sequence_hash);
    }
};

/** Result of running a frame stream: stream accounting + per-frame data. */
struct SequenceResult : SequenceAccounting
{
    SequenceScheme scheme = SequenceScheme::PureSfr;
    Scheme intra_scheme = Scheme::SingleGpu;

    /** Per-frame simulation results, in stream order. */
    std::vector<FrameResult> frames;
    /** Absolute start/completion tick of each frame on its group. */
    std::vector<Tick> frame_start;
    std::vector<Tick> frame_complete;
};

/**
 * Run @p seq on @p cfg.num_gpus GPUs under @p opt. Frame i renders on
 * group i % groups with @p opt.intra_scheme (SingleGpu for one-GPU
 * groups). Frames may be simulated concurrently on the global pool; the
 * result is bit-identical at any --jobs value. When @p tracer is given,
 * one span per frame is emitted on a "sequence.frames" track.
 *
 * @pre seq has at least one frame and the resolved group count divides
 *      cfg.num_gpus.
 */
SequenceResult runSequence(const SequenceOptions &opt,
                           const SystemConfig &cfg,
                           const SequenceTrace &seq,
                           Tracer *tracer = nullptr);

} // namespace chopin

#endif // CHOPIN_SFR_SEQUENCE_HH
