#include "sfr/sequence.hh"

#include <algorithm>
#include <cmath>

#include "stats/tracer.hh"
#include "util/fingerprint.hh"
#include "util/log.hh"
#include "util/thread_pool.hh"

namespace chopin
{

std::string
toString(SequenceScheme s)
{
    switch (s) {
      case SequenceScheme::PureSfr:
        return "pure-sfr";
      case SequenceScheme::PureAfr:
        return "pure-afr";
      case SequenceScheme::HybridAfrSfr:
        return "hybrid-afr-sfr";
    }
    panic("unknown SequenceScheme ", static_cast<int>(s));
}

unsigned
SequenceOptions::resolvedGroups(unsigned num_gpus) const
{
    switch (scheme) {
      case SequenceScheme::PureSfr:
        return 1;
      case SequenceScheme::PureAfr:
        return num_gpus;
      case SequenceScheme::HybridAfrSfr:
        return afr_groups;
    }
    panic("unknown SequenceScheme ", static_cast<int>(scheme));
}

SequenceResult
runSequence(const SequenceOptions &opt, const SystemConfig &cfg,
            const SequenceTrace &seq, Tracer *tracer)
{
    const std::size_t n = seq.frameCount();
    CHOPIN_CHECK(n >= 1, "a sequence run needs at least one frame");
    unsigned groups = opt.resolvedGroups(cfg.num_gpus);
    CHOPIN_CHECK(groups >= 1 && cfg.num_gpus % groups == 0,
                 "GPU count ", cfg.num_gpus, " is not divisible into ",
                 groups, " AFR groups");

    SequenceResult result;
    result.scheme = opt.scheme;
    result.intra_scheme = opt.intra_scheme;
    result.num_frames = n;
    result.num_gpus = cfg.num_gpus;
    result.afr_groups = groups;
    result.gpus_per_group = cfg.num_gpus / groups;

    SystemConfig group_cfg = cfg;
    group_cfg.num_gpus = static_cast<unsigned>(result.gpus_per_group);
    Scheme scheme = result.gpus_per_group == 1 ? Scheme::SingleGpu
                                               : opt.intra_scheme;

    // Simulate the frames. Each frame is an independent deterministic
    // simulation, so frames run concurrently under the sweep engine's
    // outer-parallel/inner-serial split (ScenarioRegion); results land in
    // pre-sized slots and the stream arithmetic below is serial, so the
    // outcome is bit-identical at any job count. A chunk materializes its
    // frames into one scratch trace — the shared geometry is copied once
    // per chunk, never once per frame. At one job or one chunk the pool
    // runs the chunks inline on this thread, in index order.
    result.frames.resize(n);
    globalPool().parallelFor(n, 1, [&](std::size_t begin, std::size_t end) {
        ScenarioRegion region;
        FrameTrace scratch;
        for (std::size_t i = begin; i < end; ++i) {
            seq.materializeFrame(i, scratch);
            result.frames[i] = runScheme(scheme, group_cfg, scratch);
        }
    });

    // Stream scheduling: frame i pipelines onto group i % groups, which
    // renders its frames back to back; with carry-over the group frees
    // once the frame's composition/sync tail is all that remains.
    std::vector<Tick> group_free(groups, 0);
    result.frame_start.reserve(n);
    result.frame_complete.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const FrameResult &r = result.frames[i];
        Tick tail = opt.carry_over
                        ? r.breakdown.composition + r.breakdown.sync
                        : 0;
        Tick &free_at = group_free[i % groups];
        Tick start = free_at;
        Tick complete = start + r.cycles;
        free_at = complete - std::min(tail, r.cycles);
        result.frame_start.push_back(start);
        result.frame_complete.push_back(complete);
        result.makespan = std::max(result.makespan, complete);
    }

    // Stream metrics over the completion timeline.
    double latency_sum = 0.0;
    for (const FrameResult &r : result.frames)
        latency_sum += static_cast<double>(r.cycles);
    result.avg_latency = latency_sum / static_cast<double>(n);
    result.frames_per_mcycle =
        result.makespan == 0
            ? 0.0
            : static_cast<double>(n) * 1e6 /
                  static_cast<double>(result.makespan);

    if (n < 2) {
        result.avg_frame_interval = static_cast<double>(result.makespan);
        result.worst_frame_interval = result.makespan;
        result.micro_stutter = 0.0;
    } else {
        std::vector<Tick> sorted = result.frame_complete;
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> gaps;
        gaps.reserve(n - 1);
        for (std::size_t i = 1; i < n; ++i) {
            Tick gap = sorted[i] - sorted[i - 1];
            result.worst_frame_interval =
                std::max(result.worst_frame_interval, gap);
            gaps.push_back(static_cast<double>(gap));
        }
        double mean = 0.0;
        for (double g : gaps)
            mean += g;
        mean /= static_cast<double>(gaps.size());
        result.avg_frame_interval = mean;
        double var = 0.0;
        for (double g : gaps)
            var += (g - mean) * (g - mean);
        var /= static_cast<double>(gaps.size());
        result.micro_stutter = std::sqrt(var);
    }

    Fingerprinter hash;
    hash.str("SequenceHash/v1");
    for (std::size_t i = 0; i < n; ++i) {
        hash.u64(result.frames[i].frame_hash)
            .u64(result.frames[i].content_hash)
            .u64(result.frames[i].cycles)
            .u64(result.frame_complete[i]);
    }
    result.sequence_hash = hash.value();

    if (tracer) {
        Tracer::TrackId track = tracer->track("sequence.frames");
        for (std::size_t i = 0; i < n; ++i) {
            tracer->span(
                track, "sequence",
                "frame " + std::to_string(i) + " (group " +
                    std::to_string(i % groups) + ")",
                result.frame_start[i], result.frame_complete[i],
                {{"cycles", result.frames[i].cycles},
                 {"frame_hash", result.frames[i].frame_hash}});
        }
    }
    return result;
}

} // namespace chopin
