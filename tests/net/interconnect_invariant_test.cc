#include <gtest/gtest.h>

#include "net/interconnect.hh"
#include "util/check.hh"

namespace chopin
{
namespace
{

[[noreturn]] void
throwHandler(const CheckFailure &failure)
{
    throw failure;
}

TEST(InterconnectInvariants, LinkBytesTracksPerPairInjection)
{
    Interconnect net(3, {64.0, 0});
    net.transfer(0, 1, 100, 0, TrafficClass::Composition);
    net.transfer(0, 1, 50, 0, TrafficClass::Sync);
    net.transfer(1, 2, 10, 0, TrafficClass::PrimDist);
    EXPECT_EQ(net.linkBytes(0, 1), 150u);
    EXPECT_EQ(net.linkBytes(1, 2), 10u);
    EXPECT_EQ(net.linkBytes(1, 0), 0u);
    EXPECT_EQ(net.linkBytes(2, 1), 0u);
}

TEST(InterconnectInvariants, FlowConservationHoldsAfterMixedTraffic)
{
    Interconnect net(4, {64.0, 200});
    net.transfer(0, 1, 4096, 0, TrafficClass::Composition);
    net.transfer(1, 0, 128, 50, TrafficClass::Sync);
    net.transfer(2, 3, 777, 0, TrafficClass::PrimDist);
    net.transfer(3, 0, 64, 10, TrafficClass::Scheduler);
    net.checkFlowConservation(); // must not fire
    EXPECT_EQ(net.traffic().total, 4096u + 128u + 777u + 64u);
}

TEST(InterconnectInvariants, FlowConservationHoldsOnIdleNetwork)
{
    Interconnect net(2, {64.0, 0});
    net.checkFlowConservation();
    net.checkDrained(0);
}

TEST(InterconnectInvariants, InflightDrainsAtDeliveryTimes)
{
    Interconnect net(2, {64.0, 100});
    Tick d1 = net.transfer(0, 1, 64, 0, TrafficClass::Composition);
    Tick d2 = net.transfer(0, 1, 64, 0, TrafficClass::Composition);
    ASSERT_LT(d1, d2); // serialized on the egress port
    EXPECT_EQ(net.inflightAfter(0), 2u);
    EXPECT_EQ(net.inflightAfter(d1 - 1), 2u);
    EXPECT_EQ(net.inflightAfter(d1), 1u);
    EXPECT_EQ(net.inflightAfter(d2), 0u);
    EXPECT_EQ(net.lastDelivery(), d2);
}

TEST(InterconnectInvariants, CheckDrainedPassesAtFrameEnd)
{
    Interconnect net(2, {64.0, 10});
    Tick done = net.transfer(0, 1, 640, 0, TrafficClass::Composition);
    net.checkDrained(done); // frame ends no earlier than the last delivery
    net.checkFlowConservation();
}

TEST(InterconnectInvariants, UndrainedTrafficReportsThroughHandler)
{
    ScopedCheckHandler guard(throwHandler);
    Interconnect net(2, {64.0, 10});
    Tick done = net.transfer(0, 1, 640, 0, TrafficClass::Composition);
    try {
        net.checkDrained(done - 1);
        FAIL() << "checkDrained did not fire";
    } catch (const CheckFailure &f) {
        EXPECT_STREQ(f.kind, "CHECK");
        EXPECT_NE(f.message.find("still in flight"), std::string::npos);
    }
}

TEST(InterconnectInvariantsDeath, CheckDrainedAbortsUnderDefaultHandler)
{
    Interconnect net(2, {64.0, 10});
    Tick done = net.transfer(0, 1, 640, 0, TrafficClass::Composition);
    EXPECT_DEATH(net.checkDrained(done - 1), "still in flight at frame end");
}

} // namespace
} // namespace chopin
