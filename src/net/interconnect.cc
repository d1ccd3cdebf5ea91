#include "net/interconnect.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hh"

namespace chopin
{

Interconnect::Interconnect(unsigned num_gpus, const LinkParams &params)
    : gpus(num_gpus), linkParams(params), egress(num_gpus), ingress(num_gpus),
      link_bytes(static_cast<std::size_t>(num_gpus) * num_gpus, 0)
{
    CHOPIN_CHECK(num_gpus >= 1);
    CHOPIN_CHECK(params.bytes_per_cycle > 0.0);
}

Tick
Interconnect::transferCycles(Bytes bytes) const
{
    if (std::isinf(linkParams.bytes_per_cycle))
        return 0;
    return static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / linkParams.bytes_per_cycle));
}

Tick
Interconnect::transfer(GpuId src, GpuId dst, Bytes bytes, Tick earliest,
                       TrafficClass cls)
{
    seq.assertHeld("Interconnect::transfer");
    CHOPIN_ASSERT(src < gpus && dst < gpus && src != dst,
                  "bad transfer ", src, " -> ", dst);

    Tick duration = transferCycles(bytes);
    Resource &out = egress[src];
    Resource &in = ingress[dst];

    Tick start = std::max({earliest, out.freeAt(), in.freeAt()});
    out.claim(start, duration);
    in.claim(start, duration);

    // Injection-side accounting.
    link_bytes[linkIndex(src, dst)] += bytes;
    stats.total += bytes;
    stats.by_class[static_cast<int>(cls)] += bytes;
    stats.messages += 1;

    // Delivery-side accounting: the message is in flight until `delivery`.
    Tick delivery = start + duration + linkParams.latency;
    delivered_bytes += bytes;
    last_delivery = std::max(last_delivery, delivery);

    if (tracer_ != nullptr) {
        // The gap between `earliest` and `start` is port contention —
        // exactly the egress/ingress head-of-line blocking the composition
        // scheduler exists to avoid, made visible per message.
        tracer_->span(egress_tracks[src], "net",
                      std::string(trafficClassName(cls)) + "->gpu" +
                          std::to_string(dst),
                      start, start + duration,
                      {{"bytes", bytes},
                       {"requested", earliest},
                       {"delivery", delivery}});
    }
    return delivery;
}

void
Interconnect::setTracer(Tracer *t)
{
    seq.assertHeld("Interconnect::setTracer");
    tracer_ = t;
    egress_tracks.clear();
    if (t == nullptr)
        return;
    for (unsigned g = 0; g < gpus; ++g)
        egress_tracks.push_back(
            t->track("gpu" + std::to_string(g) + ".egress"));
}

Bytes
Interconnect::linkBytes(GpuId src, GpuId dst) const
{
    seq.assertHeld("Interconnect::linkBytes");
    CHOPIN_ASSERT(src < gpus && dst < gpus);
    return link_bytes[linkIndex(src, dst)];
}

void
Interconnect::checkFlowConservation() const
{
    seq.assertHeld("Interconnect::checkFlowConservation");
    Bytes injected = std::accumulate(link_bytes.begin(), link_bytes.end(),
                                     Bytes{0});
    CHOPIN_CHECK(injected == delivered_bytes,
                 "link flow not conserved: injected ", injected,
                 " B, delivered ", delivered_bytes, " B");
    CHOPIN_CHECK(injected == stats.total,
                 "per-link and total traffic disagree: ", injected, " B vs ",
                 stats.total, " B");
    Bytes by_class = 0;
    for (Bytes b : stats.by_class)
        by_class += b;
    CHOPIN_CHECK(by_class == stats.total,
                 "per-class traffic does not sum to total: ", by_class,
                 " B vs ", stats.total, " B");
}

void
Interconnect::checkDrained(Tick frame_end) const
{
    seq.assertHeld("Interconnect::checkDrained");
    CHOPIN_CHECK(last_delivery <= frame_end,
                 "a message is still in flight at frame end ", frame_end,
                 "; latest delivery at ", last_delivery);
}

} // namespace chopin
