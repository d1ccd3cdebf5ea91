#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "util/check.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    Tick end = eq.run();
    EXPECT_EQ(end, 30u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesDuringExecution)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(eq.now() + 9, [&] { ++fired; });
    });
    Tick end = eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(end, 10u);
}

TEST(EventQueue, RunUntilTickMaxDrainsEverything)
{
    // Events at the extreme representable tick still execute rather than
    // being fenced out by a "run forever" sentinel.
    EventQueue eq;
    int fired = 0;
    eq.schedule(0, [&] { ++fired; });
    eq.schedule(kTickMax, [&] { ++fired; });
    Tick end = eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(end, kTickMax);
}

TEST(EventQueue, SameTickFifoSurvivesHeapChurn)
{
    // The FIFO tie-break must hold even when the heap is churned by pops
    // and re-pushes between insertions at the tied tick (batches of
    // same-tick entries interleaved with execution). Events at tick 100
    // are scheduled from several earlier events; execution order must be
    // exactly global insertion order.
    EventQueue eq;
    std::vector<int> order;
    int next_tag = 0;
    for (Tick t = 1; t <= 5; ++t) {
        eq.schedule(t, [&eq, &order, &next_tag] {
            for (int i = 0; i < 4; ++i) {
                int tag = next_tag++;
                eq.schedule(100, [&order, tag] { order.push_back(tag); });
            }
        });
    }
    eq.run();
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// A pool worker that opens a ScenarioRegion owns a private simulation:
// its own EventQueue passes the sequential check.
TEST(EventQueue, ScenarioRegionWorkerDrivesItsOwnQueue)
{
    ThreadPool pool(4);
    std::vector<Tick> ends(8);
    pool.parallelFor(ends.size(), [&](std::size_t i) {
        ScenarioRegion region;
        EventQueue eq;
        eq.schedule(10 * (i + 1), [] {});
        ends[i] = eq.run();
    });
    for (std::size_t i = 0; i < ends.size(); ++i)
        EXPECT_EQ(ends[i], 10 * (i + 1));
}

#if CHOPIN_CHECK_LEVEL >= 1
TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(10, [&] { eq.schedule(5, [] {}); });
            eq.run();
        },
        "scheduled into the past");
}

// The run-time half of SequentialCap: a coordinator-owned queue touched
// from inside a parallelFor region aborts.
TEST(EventQueueDeath, NowFromAParallelForWorkerPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            ThreadPool pool(4);
            pool.parallelFor(8, [&](std::size_t) { (void)eq.now(); });
        },
        "coordinator-owned state");
}
#endif

} // namespace
} // namespace chopin
