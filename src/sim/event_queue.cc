#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "util/check.hh"

namespace chopin
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    seq.assertHeld("EventQueue::schedule");
    CHOPIN_ASSERT(when >= currentTick,
                  "event scheduled into the past: ", when, " < ", currentTick);
    CHOPIN_ASSERT(static_cast<bool>(cb), "null callback scheduled at ", when);
    heap.push_back(Event{when, nextSeq++, std::move(cb)});
    std::push_heap(heap.begin(), heap.end(), Later{});
}

Tick
EventQueue::run()
{
    seq.assertHeld("EventQueue::run");
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        Event e = std::move(heap.back());
        heap.pop_back();
        // Simulated time is monotone: the heap can never surface an event
        // earlier than one already executed.
        CHOPIN_ASSERT(e.when >= currentTick, "time ran backwards: ", e.when,
                      " < ", currentTick);
        currentTick = e.when;
        e.cb();
    }
    return currentTick;
}

} // namespace chopin
