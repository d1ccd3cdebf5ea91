/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The composition scheduler's pairwise ready-matching (sfr/comp_scheduler)
 * runs on this queue: every GPU-ready and session-end activity schedules a
 * callback at an absolute Tick. Events scheduled for the same Tick fire in
 * insertion order (deterministic FIFO tie-break), which the scheduler
 * relies on for reproducibility.
 */

#ifndef CHOPIN_SIM_EVENT_QUEUE_HH
#define CHOPIN_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sequential.hh"
#include "util/types.hh"

namespace chopin
{

/**
 * The event queue driving one simulation.
 *
 * Coordinator-owned (see util/sequential.hh): the queue and the simulated
 * clock are part of the timing model, which is sequential by contract.
 * Every entry point asserts the sequential capability, so touching the
 * queue from inside a parallelFor region fails the thread-safety build
 * under clang and aborts at runtime in checked builds.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick
    now() const
    {
        seq.assertHeld("EventQueue::now");
        return currentTick;
    }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= now() (no scheduling into the past).
     */
    void schedule(Tick when, Callback cb);

    /** Pre-size the event storage for a known event count. */
    void
    reserve(std::size_t n)
    {
        seq.assertHeld("EventQueue::reserve");
        heap.reserve(n);
    }

    /**
     * Run until the queue drains.
     * @return the time of the last executed event.
     */
    Tick run();

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq; ///< insertion order for same-tick determinism
        Callback cb;
    };

    /** Heap order: the root is the earliest (when, seq). */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    SequentialCap seq; ///< coordinator ownership; guards all state below

    std::vector<Event> heap CHOPIN_GUARDED_BY(seq);
    Tick currentTick CHOPIN_GUARDED_BY(seq) = 0;
    std::uint64_t nextSeq CHOPIN_GUARDED_BY(seq) = 0;
};

} // namespace chopin

#endif // CHOPIN_SIM_EVENT_QUEUE_HH
