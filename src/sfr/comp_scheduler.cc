#include "sfr/comp_scheduler.hh"

#include <algorithm>
#include <functional>
#include <numeric>

#include "sim/resource.hh"
#include "util/check.hh"
#include "util/sequential.hh"

namespace chopin
{

namespace
{

/** Wire size of one composed pixel: RGBA8 color + 32-bit depth/coverage. */
constexpr Bytes bytesPerPixel = 8;

/** Local ROP cost of merging each GPU's own-region pixels. */
void
applySelfMerge(const CompositionJob &job, const TimingParams &timing,
               std::vector<Resource> &compose, std::vector<Tick> &done)
{
    for (GpuId g = 0; g < job.num_gpus; ++g) {
        Tick t = compose[g].claim(job.ready[g],
                                  timing.composeCycles(job.self_pixels[g]));
        done[g] = std::max(done[g], t);
    }
}

/** One whole-algorithm span on the comp_scheduler track (if tracing). */
void
traceComposition(const CompositionJob &job, Interconnect &net,
                 const char *algorithm, const CompositionTiming &out)
{
    Tracer *tr = net.tracer();
    if (tr == nullptr)
        return;
    Tick start = *std::min_element(job.ready.begin(), job.ready.end());
    tr->span(tr->track("comp_scheduler"), "comp", algorithm,
             std::min(start, out.end), out.end,
             {{"pair_pixels", job.pairPixels()},
              {"gpus", job.num_gpus}});
}

/**
 * Composition-ownership invariant of a job: vectors are sized for
 * num_gpus, the diagonal of pair_pixels is empty, and no sub-image
 * exceeds the screen. With @p opaque_routing (the opaque composers, which
 * route regions through the pair matrix), additionally every touched
 * sub-image pixel must be routed to exactly one destination: per GPU
 * self_pixels + sum over dst of pair_pixels == subimage_pixels.
 * Transparent composers move whole partial composites and ignore the pair
 * matrix, so only the weak form applies. Fails through the check layer;
 * called by every compose* entry point.
 *
 * Also asserts the sequential-ownership contract (util/sequential.hh):
 * composition timing mutates the coordinator-owned Interconnect, so no
 * compose* function may run inside a parallelFor region. The per-GPU
 * *functional* merges stay parallel; only the timing model is serial.
 */
void
checkCompositionJob(const CompositionJob &job, bool opaque_routing)
{
    // Every compose* entry point funnels through here: composition timing
    // mutates the interconnect's busy-until state, which is
    // coordinator-owned (util/sequential.hh).
    assertSequential("checkCompositionJob");
    unsigned n = job.num_gpus;
    CHOPIN_ASSERT(n >= 1, "composition job without GPUs");
    CHOPIN_ASSERT(job.ready.size() == n && job.self_pixels.size() == n &&
                      job.subimage_pixels.size() == n &&
                      job.pair_pixels.size() ==
                          static_cast<std::size_t>(n) * n,
                  "composition job vectors not sized for ", n, " GPUs");
    for (GpuId g = 0; g < n; ++g) {
        CHOPIN_ASSERT(job.pairPixels(g, g) == 0, "GPU ", g,
                      " routes pixels to itself via the pair matrix");
        CHOPIN_ASSERT(job.subimage_pixels[g] <= job.screen_pixels, "GPU ", g,
                      " sub-image larger than the screen: ",
                      job.subimage_pixels[g], " > ", job.screen_pixels);
        if (!opaque_routing)
            continue;
        std::uint64_t routed = job.self_pixels[g];
        for (GpuId dst = 0; dst < n; ++dst)
            routed += job.pairPixels(g, dst);
        CHOPIN_ASSERT(routed == job.subimage_pixels[g], "GPU ", g,
                      " sub-image ownership leak: ", routed,
                      " pixels routed vs ", job.subimage_pixels[g],
                      " touched");
    }
}

} // namespace

CompositionTiming
composeOpaqueDirectSend(const CompositionJob &job, Interconnect &net,
                        const TimingParams &timing)
{
    checkCompositionJob(job, /*opaque_routing=*/true);
    unsigned n = job.num_gpus;
    CompositionTiming out;
    out.gpu_done.assign(n, 0);
    std::vector<Resource> compose(n);

    applySelfMerge(job, timing, compose, out.gpu_done);
    if (n == 1) {
        out.end = out.gpu_done[0];
        traceComposition(job, net, "direct-send", out);
        return out;
    }

    // Incoming regions DMA into the destination's memory even while it is
    // still rendering; what congests the naive scheme is port convergence:
    // several senders finish around the same time and walk destinations in
    // the same fixed order, serializing on the victims' ingress ports while
    // everything behind the head of each sender's queue waits.

    // Senders start the moment they finish, walking destinations in fixed
    // order (src+1, src+2, ...) with no regard for readiness: a
    // destination whose ingress is busy blocks the head of the sender's
    // queue and everything behind it (the paper's congestion scenario).
    // Process senders in ready order so port arbitration is time-consistent.
    std::vector<GpuId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](GpuId a, GpuId b) {
        return job.ready[a] < job.ready[b];
    });

    for (GpuId src : order) {
        Tick t = job.ready[src];
        for (GpuId step = 1; step < n; ++step) {
            GpuId dst = (src + step) % n;
            std::uint64_t px = job.pairPixels(src, dst);
            // The sender's ROPs read the sub-image region out of memory
            // while it streams (operation (a) of Section IV-B): the read
            // pipelines with the transfer, but it still occupies the ROPs,
            // so back-to-back sends serialize on whichever is slower.
            Tick read_free = compose[src].freeAt();
            compose[src].claim(std::max(t, read_free),
                               timing.composeCycles(px));
            Tick arrival = net.transfer(src, dst, px * bytesPerPixel,
                                        std::max(t, read_free),
                                        TrafficClass::Composition);
            Tick merged =
                compose[dst].claim(arrival, timing.composeCycles(px));
            out.gpu_done[dst] = std::max(out.gpu_done[dst], merged);
            out.gpu_done[src] =
                std::max(out.gpu_done[src], arrival - net.params().latency);
        }
    }
    out.end = *std::max_element(out.gpu_done.begin(), out.gpu_done.end());
    traceComposition(job, net, "direct-send", out);
    return out;
}

CompositionTiming
composeOpaqueScheduled(const CompositionJob &job, Interconnect &net,
                       const TimingParams &timing)
{
    checkCompositionJob(job, /*opaque_routing=*/true);
    unsigned n = job.num_gpus;
    CompositionTiming out;
    out.gpu_done.assign(n, 0);
    std::vector<Resource> compose(n);

    applySelfMerge(job, timing, compose, out.gpu_done);
    if (n == 1) {
        out.end = out.gpu_done[0];
        traceComposition(job, net, "scheduled", out);
        return out;
    }

    // Event-driven greedy matching: at every "GPU became available" event,
    // pair any two available GPUs that have not yet composed with each
    // other (Fig. 12's rules: Ready set, same group, not in SentGPUs /
    // ReceivedGPUs, not currently sending or receiving).
    EventQueue eq;
    std::vector<bool> ready(n, false);
    std::vector<bool> busy(n, false);
    std::vector<std::uint64_t> done_mask(n, 0);

    auto fully_done = [&](GpuId g) {
        std::uint64_t all = (n >= 64 ? ~0ULL : (1ULL << n) - 1) &
                            ~(1ULL << g);
        return (done_mask[g] & all) == all;
    };

    // Forward declaration idiom for the recursive lambda.
    std::function<void()> try_match = [&]() {
        bool progress = true;
        while (progress) {
            progress = false;
            for (GpuId a = 0; a < n && !progress; ++a) {
                if (!ready[a] || busy[a] || fully_done(a))
                    continue;
                for (GpuId b = a + 1; b < n; ++b) {
                    if (!ready[b] || busy[b])
                        continue;
                    if ((done_mask[a] >> b) & 1ULL)
                        continue;
                    // Start the pairwise exchange a <-> b.
                    busy[a] = busy[b] = true;
                    Tick now = eq.now();
                    std::uint64_t px_ab = job.pairPixels(a, b);
                    std::uint64_t px_ba = job.pairPixels(b, a);
                    // Each side's ROPs read the outgoing region while it
                    // streams (operation (a) of Section IV-B); the read
                    // pipelines with the transfer at matched rates.
                    Tick start_a = std::max(now, compose[a].freeAt());
                    Tick start_b = std::max(now, compose[b].freeAt());
                    compose[a].claim(start_a, timing.composeCycles(px_ab));
                    compose[b].claim(start_b, timing.composeCycles(px_ba));
                    Tick arr_b = net.transfer(a, b, px_ab * bytesPerPixel,
                                              start_a,
                                              TrafficClass::Composition);
                    Tick arr_a = net.transfer(b, a, px_ba * bytesPerPixel,
                                              start_b,
                                              TrafficClass::Composition);
                    Tick merged_b =
                        compose[b].claim(arr_b, timing.composeCycles(px_ab));
                    Tick merged_a =
                        compose[a].claim(arr_a, timing.composeCycles(px_ba));
                    out.gpu_done[a] = std::max(out.gpu_done[a], merged_a);
                    out.gpu_done[b] = std::max(out.gpu_done[b], merged_b);
                    // The pair is busy until the slower direction's last
                    // byte clears the ports; wire latency and ROP
                    // composition happen off the scheduling critical path.
                    Tick session_end = std::max(
                        {net.egressFreeAt(a), net.egressFreeAt(b),
                         net.ingressFreeAt(a), net.ingressFreeAt(b),
                         eq.now()});
                    eq.schedule(session_end, [&, a, b]() {
                        busy[a] = busy[b] = false;
                        done_mask[a] |= 1ULL << b;
                        done_mask[b] |= 1ULL << a;
                        try_match();
                    });
                    progress = true;
                    break;
                }
            }
        }
    };

    for (GpuId g = 0; g < n; ++g) {
        eq.schedule(job.ready[g], [&, g]() {
            ready[g] = true;
            try_match();
        });
    }
    eq.run();

    for (GpuId g = 0; g < n; ++g)
        CHOPIN_CHECK(fully_done(g),
                     "composition scheduler finished with GPU ", g,
                     " not fully composed");
    out.end = *std::max_element(out.gpu_done.begin(), out.gpu_done.end());
    traceComposition(job, net, "scheduled", out);
    return out;
}

namespace
{

/** Distribute the finished transparent composite from @p holder to the
 *  region owners and account their background merge. */
void
distributeComposite(const CompositionJob &job, Interconnect &net,
                    const TimingParams &timing, GpuId holder,
                    Tick holder_ready, std::uint64_t composite_pixels,
                    std::vector<Resource> &compose, CompositionTiming &out)
{
    unsigned n = job.num_gpus;
    // Each region owner receives roughly 1/n of the composite's pixels.
    std::uint64_t share = composite_pixels / n;
    Tick t = holder_ready;
    // The holder merges its own share with its background.
    Tick self = compose[holder].claim(holder_ready,
                                      timing.composeCycles(share));
    out.gpu_done[holder] = std::max(out.gpu_done[holder], self);
    for (GpuId dst = 0; dst < n; ++dst) {
        if (dst == holder)
            continue;
        Tick read_start = std::max(t, compose[holder].freeAt());
        compose[holder].claim(read_start, timing.composeCycles(share));
        Tick arrival = net.transfer(holder, dst, share * bytesPerPixel,
                                    read_start, TrafficClass::Composition);
        Tick merged = compose[dst].claim(arrival, timing.composeCycles(share));
        out.gpu_done[dst] = std::max(out.gpu_done[dst], merged);
    }
}

} // namespace

CompositionTiming
composeTransparentChain(const CompositionJob &job, Interconnect &net,
                        const TimingParams &timing)
{
    checkCompositionJob(job, /*opaque_routing=*/false);
    unsigned n = job.num_gpus;
    CompositionTiming out;
    out.gpu_done.assign(n, 0);
    std::vector<Resource> compose(n);

    if (n == 1) {
        distributeComposite(job, net, timing, 0, job.ready[0],
                            job.subimage_pixels[0], compose, out);
        out.end = *std::max_element(out.gpu_done.begin(), out.gpu_done.end());
        traceComposition(job, net, "chain", out);
        return out;
    }

    // Left fold into GPU 0: 1 -> 0, then 2 -> 0, ... strictly in order.
    Tick acc_ready = job.ready[0];
    std::uint64_t acc_pixels = job.subimage_pixels[0];
    for (GpuId g = 1; g < n; ++g) {
        std::uint64_t px = job.subimage_pixels[g];
        Tick read_start = std::max(job.ready[g], compose[g].freeAt());
        compose[g].claim(read_start, timing.composeCycles(px));
        Tick arrival = net.transfer(g, 0, px * bytesPerPixel,
                                    std::max(acc_ready, read_start),
                                    TrafficClass::Composition);
        acc_ready = compose[0].claim(arrival, timing.composeCycles(px));
        acc_pixels = std::min(acc_pixels + px, job.screen_pixels);
        out.gpu_done[g] = std::max(out.gpu_done[g], arrival);
    }
    distributeComposite(job, net, timing, 0, acc_ready, acc_pixels, compose,
                        out);
    out.end = *std::max_element(out.gpu_done.begin(), out.gpu_done.end());
    traceComposition(job, net, "chain", out);
    return out;
}

CompositionTiming
composeTransparentTree(const CompositionJob &job, Interconnect &net,
                       const TimingParams &timing)
{
    checkCompositionJob(job, /*opaque_routing=*/false);
    unsigned n = job.num_gpus;
    CompositionTiming out;
    out.gpu_done.assign(n, 0);
    std::vector<Resource> compose(n);

    // Segments of adjacent sub-images; each merge fires at the max of its
    // own two children only (asynchronous adjacent composition).
    struct Segment
    {
        GpuId holder;
        Tick ready;
        std::uint64_t pixels;
    };
    std::vector<Segment> segs;
    segs.reserve(n);
    for (GpuId g = 0; g < n; ++g)
        segs.push_back({g, job.ready[g], job.subimage_pixels[g]});

    while (segs.size() > 1) {
        std::vector<Segment> next;
        next.reserve((segs.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < segs.size(); i += 2) {
            const Segment &l = segs[i];
            const Segment &r = segs[i + 1];
            // The right holder sends its partial composite to the left.
            Tick read_start = std::max(r.ready, compose[r.holder].freeAt());
            compose[r.holder].claim(read_start,
                                    timing.composeCycles(r.pixels));
            Tick arrival = net.transfer(r.holder, l.holder,
                                        r.pixels * bytesPerPixel,
                                        std::max(l.ready, read_start),
                                        TrafficClass::Composition);
            Tick merged = compose[l.holder].claim(
                arrival, timing.composeCycles(r.pixels));
            out.gpu_done[r.holder] = std::max(out.gpu_done[r.holder],
                                              arrival);
            next.push_back({l.holder, merged,
                            std::min(l.pixels + r.pixels,
                                     job.screen_pixels)});
        }
        if (segs.size() % 2 == 1)
            next.push_back(segs.back());
        segs = std::move(next);
    }

    distributeComposite(job, net, timing, segs[0].holder, segs[0].ready,
                        segs[0].pixels, compose, out);
    out.end = *std::max_element(out.gpu_done.begin(), out.gpu_done.end());
    traceComposition(job, net, "tree", out);
    return out;
}

} // namespace chopin
