#include <gtest/gtest.h>

#include "net/interconnect.hh"

namespace chopin
{
namespace
{

TEST(Interconnect, TransferTimeIsSizeOverBandwidthPlusLatency)
{
    LinkParams link{64.0, 200};
    Interconnect net(4, link);
    // 6400 bytes at 64 B/cycle = 100 cycles + 200 latency.
    EXPECT_EQ(net.transfer(0, 1, 6400, 0, TrafficClass::Composition), 300u);
}

TEST(Interconnect, TransferRoundsUpPartialCycles)
{
    Interconnect net(2, {64.0, 0});
    EXPECT_EQ(net.transfer(0, 1, 65, 0, TrafficClass::Sync), 2u);
}

TEST(Interconnect, EgressSerializesASendersMessages)
{
    Interconnect net(4, {64.0, 0});
    Tick first = net.transfer(0, 1, 6400, 0, TrafficClass::Composition);
    // Different destination, same source: waits for the egress port.
    Tick second = net.transfer(0, 2, 6400, 0, TrafficClass::Composition);
    EXPECT_EQ(first, 100u);
    EXPECT_EQ(second, 200u);
}

TEST(Interconnect, IngressSerializesAReceiversMessages)
{
    Interconnect net(4, {64.0, 0});
    net.transfer(1, 0, 6400, 0, TrafficClass::Composition);
    Tick second = net.transfer(2, 0, 6400, 0, TrafficClass::Composition);
    EXPECT_EQ(second, 200u);
}

TEST(Interconnect, DisjointPairsRunInParallel)
{
    Interconnect net(4, {64.0, 0});
    Tick a = net.transfer(0, 1, 6400, 0, TrafficClass::Composition);
    Tick b = net.transfer(2, 3, 6400, 0, TrafficClass::Composition);
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 100u); // no shared resource
}

TEST(Interconnect, FullDuplexPairExchange)
{
    Interconnect net(2, {64.0, 0});
    Tick ab = net.transfer(0, 1, 6400, 0, TrafficClass::Composition);
    Tick ba = net.transfer(1, 0, 6400, 0, TrafficClass::Composition);
    EXPECT_EQ(ab, 100u);
    EXPECT_EQ(ba, 100u); // opposite directions use separate links/ports
}

TEST(Interconnect, HeadOfLineBlockingThroughBusyReceiver)
{
    Interconnect net(3, {64.0, 0});
    // GPU2 keeps GPU1's ingress busy until cycle 1000.
    EXPECT_EQ(net.transfer(2, 1, 64000, 0, TrafficClass::Composition),
              1000u);
    // Sender 0 first targets busy GPU1, then free GPU2: the second send
    // is stuck behind the first on GPU0's egress port.
    EXPECT_EQ(net.transfer(0, 1, 64, 0, TrafficClass::Composition), 1001u);
    Tick second = net.transfer(0, 2, 64, 0, TrafficClass::Composition);
    EXPECT_GE(second, 1001u);
}

TEST(Interconnect, EarliestParameterRespected)
{
    Interconnect net(2, {64.0, 10});
    EXPECT_EQ(net.transfer(0, 1, 64, 777, TrafficClass::Sync), 788u);
}

TEST(Interconnect, IdealLinksAreInstant)
{
    Interconnect net(2, LinkParams::ideal());
    EXPECT_EQ(net.transfer(0, 1, 1 << 30, 42, TrafficClass::Composition),
              42u);
    EXPECT_EQ(net.transferCycles(1 << 30), 0u);
}

TEST(Interconnect, TrafficAccountedPerClass)
{
    Interconnect net(4, {64.0, 0});
    net.transfer(0, 1, 100, 0, TrafficClass::Composition);
    net.transfer(0, 2, 200, 0, TrafficClass::PrimDist);
    net.transfer(1, 2, 300, 0, TrafficClass::Sync);
    net.transfer(3, 2, 400, 0, TrafficClass::Composition);
    const TrafficStats &t = net.traffic();
    EXPECT_EQ(t.total, 1000u);
    EXPECT_EQ(t.messages, 4u);
    EXPECT_EQ(t.ofClass(TrafficClass::Composition), 500u);
    EXPECT_EQ(t.ofClass(TrafficClass::PrimDist), 200u);
    EXPECT_EQ(t.ofClass(TrafficClass::Sync), 300u);
    EXPECT_EQ(t.ofClass(TrafficClass::Scheduler), 0u);
}

#if CHOPIN_CHECK_LEVEL >= 1
TEST(InterconnectDeath, SelfTransferPanics)
{
    Interconnect net(2, {64.0, 0});
    EXPECT_DEATH(net.transfer(1, 1, 64, 0, TrafficClass::Sync),
                 "bad transfer");
}
#endif

} // namespace
} // namespace chopin
