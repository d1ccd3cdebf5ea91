/**
 * @file
 * Inter-GPU interconnect model.
 *
 * Following the paper's methodology (Section V), GPUs are connected
 * point-to-point, NVLink/DGX style: one unidirectional link per ordered GPU
 * pair, 64 GB/s and 200 cycles by default (Table II). Each GPU additionally
 * has a single serialized egress port and a single serialized ingress port,
 * so (a) a GPU streams one outgoing message at a time, and (b) a busy
 * destination back-pressures senders. That port
 * serialization — not any tuned constant — is what produces the head-of-line
 * blocking that makes naive direct-send composition congest and gives
 * CHOPIN's image-composition scheduler something to fix.
 *
 * The model is busy-until arithmetic over sim::Resource: a transfer claims
 * the source egress and the destination ingress port from its start time
 * for size/bandwidth cycles, and delivers wire-latency later. A link has
 * one sender, whose egress port already serializes it, so the link itself
 * holds no busy-until state; it only counts its bytes (linkBytes()).
 */

#ifndef CHOPIN_NET_INTERCONNECT_HH
#define CHOPIN_NET_INTERCONNECT_HH

#include <array>
#include <limits>
#include <queue>
#include <vector>

#include "sim/resource.hh"
#include "stats/metrics.hh"
#include "stats/tracer.hh"
#include "util/sequential.hh"
#include "util/types.hh"

namespace chopin
{

/** Link configuration (Table II defaults). */
struct LinkParams
{
    /** Unidirectional bandwidth in bytes per GPU cycle (64 GB/s at 1 GHz). */
    double bytes_per_cycle = 64.0;
    /** Wire latency in cycles. */
    Tick latency = 200;

    /** Idealized links: unlimited bandwidth, zero latency (Fig. 5 setup). */
    static LinkParams
    ideal()
    {
        return {std::numeric_limits<double>::infinity(), 0};
    }
};

/** What a message carries, for per-category traffic accounting. */
enum class TrafficClass : std::uint8_t
{
    Composition,  ///< sub-image pixels (CHOPIN)
    PrimDist,     ///< primitive ids (GPUpd distribution)
    Sync,         ///< render-target / depth-buffer broadcasts
    Scheduler,    ///< scheduler status messages
    NumClasses,
};

/** Short lowercase name of a traffic class (trace spans, reports). */
constexpr const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::Composition: return "composition";
      case TrafficClass::PrimDist:    return "prim_dist";
      case TrafficClass::Sync:        return "sync";
      case TrafficClass::Scheduler:   return "scheduler";
      case TrafficClass::NumClasses:  break;
    }
    return "?";
}

/** Traffic counters, total and per class. */
struct TrafficStats
{
    Bytes total = 0;
    std::array<Bytes, static_cast<int>(TrafficClass::NumClasses)> by_class{};
    std::uint64_t messages = 0;

    Bytes
    ofClass(TrafficClass c) const
    {
        return by_class[static_cast<std::size_t>(c)];
    }

    TrafficStats &
    operator+=(const TrafficStats &o)
    {
        total += o.total;
        for (std::size_t i = 0; i < by_class.size(); ++i)
            by_class[i] += o.by_class[i];
        messages += o.messages;
        return *this;
    }

    /** Metric registry visitation (stats/metrics.hh). */
    template <typename Self, typename V>
    static void
    visitMetrics(Self &self, V &&v)
    {
        v.field({"traffic.total", "bytes"}, self.total);
        v.field({"traffic.composition", "bytes"},
                self.by_class[static_cast<int>(TrafficClass::Composition)]);
        v.field({"traffic.prim_dist", "bytes"},
                self.by_class[static_cast<int>(TrafficClass::PrimDist)]);
        v.field({"traffic.sync", "bytes"},
                self.by_class[static_cast<int>(TrafficClass::Sync)]);
        v.field({"traffic.scheduler", "bytes"},
                self.by_class[static_cast<int>(TrafficClass::Scheduler)]);
        v.field({"traffic.messages", "count"}, self.messages);
    }
};

/**
 * The all-pairs point-to-point interconnect of one multi-GPU system.
 *
 * Coordinator-owned (see util/sequential.hh): port and traffic state are
 * timing-model bookkeeping, mutated strictly sequentially. Every entry
 * point asserts the sequential capability; the busy-until arithmetic is
 * order-dependent, so concurrent transfers would silently destroy
 * determinism long before they corrupted memory.
 */
class Interconnect
{
  public:
    Interconnect(unsigned num_gpus, const LinkParams &params);

    unsigned numGpus() const { return gpus; }
    const LinkParams &params() const { return linkParams; }

    /**
     * Transfer @p bytes from @p src to @p dst, starting no earlier than
     * @p earliest and no earlier than both involved ports are free.
     *
     * @return the delivery time (transfer end + wire latency).
     */
    Tick transfer(GpuId src, GpuId dst, Bytes bytes, Tick earliest,
                  TrafficClass cls);

    /** Time the egress port of @p gpu is next free. */
    Tick
    egressFreeAt(GpuId gpu) const
    {
        seq.assertHeld("Interconnect::egressFreeAt");
        return egress[gpu].freeAt();
    }

    /** Time the ingress port of @p gpu is next free. */
    Tick
    ingressFreeAt(GpuId gpu) const
    {
        seq.assertHeld("Interconnect::ingressFreeAt");
        return ingress[gpu].freeAt();
    }

    /** Duration in cycles of a @p bytes transfer at link bandwidth. */
    Tick transferCycles(Bytes bytes) const;

    const TrafficStats &
    traffic() const
    {
        seq.assertHeld("Interconnect::traffic");
        return stats;
    }

    /** Bytes injected so far on the @p src -> @p dst link. */
    Bytes linkBytes(GpuId src, GpuId dst) const;

    /** Delivery time of the latest-arriving message sent so far. */
    Tick
    lastDelivery() const
    {
        seq.assertHeld("Interconnect::lastDelivery");
        return last_delivery;
    }

    /** Messages whose delivery time is later than @p now. */
    std::uint64_t inflightAfter(Tick now);

    /**
     * Flow conservation: bytes injected per link sum to the bytes delivered
     * and to the per-class traffic totals. Violations mean a transfer was
     * double-counted or lost between the two accounting paths.
     */
    void checkFlowConservation() const;

    /**
     * All traffic must have drained by @p frame_end: a message still in
     * flight after the frame's reported cycle count means some scheme
     * failed to fold a delivery into its completion time.
     */
    void checkDrained(Tick frame_end);

    /**
     * Attach (or detach, with nullptr) a timeline tracer. Every transfer
     * then emits a span on its source GPU's egress track, named by traffic
     * class and destination — egress/ingress head-of-line blocking shows
     * up directly as spans pushed past their `earliest` time.
     */
    void setTracer(Tracer *t);

    /** The attached tracer, or nullptr (shared with the sfr layer so
     *  composition phases land in the same timeline). */
    Tracer *
    tracer() const
    {
        seq.assertHeld("Interconnect::tracer");
        return tracer_;
    }

  private:
    std::size_t
    linkIndex(GpuId src, GpuId dst) const
    {
        return static_cast<std::size_t>(src) * gpus + dst;
    }

    SequentialCap seq; ///< coordinator ownership; guards the port state

    unsigned gpus;         ///< immutable after construction
    LinkParams linkParams; ///< immutable after construction
    std::vector<Resource> egress CHOPIN_GUARDED_BY(seq);  ///< one per GPU
    std::vector<Resource> ingress CHOPIN_GUARDED_BY(seq); ///< one per GPU
    TrafficStats stats CHOPIN_GUARDED_BY(seq);

    Tracer *tracer_ CHOPIN_GUARDED_BY(seq) = nullptr;
    /** One trace track per GPU egress port (valid while tracer_ != null). */
    std::vector<Tracer::TrackId> egress_tracks CHOPIN_GUARDED_BY(seq);

    // Invariant bookkeeping (see checkFlowConservation / checkDrained).
    std::vector<Bytes> link_bytes CHOPIN_GUARDED_BY(seq);
    Bytes delivered_bytes CHOPIN_GUARDED_BY(seq) = 0;
    Tick last_delivery CHOPIN_GUARDED_BY(seq) = 0;
    Occupancy inflight CHOPIN_GUARDED_BY(seq);
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        pending_deliveries CHOPIN_GUARDED_BY(seq);

    /** Release in-flight occupancy for messages delivered by @p now. */
    void drainUpTo(Tick now) CHOPIN_REQUIRES(seq);
};

} // namespace chopin

#endif // CHOPIN_NET_INTERCONNECT_HH
