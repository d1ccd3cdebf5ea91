/**
 * @file
 * EventHeap: the (when, seq)-ordered binary heap underlying EventQueue.
 *
 * Events pop in ascending Tick order, ties broken by ascending insertion
 * sequence (deterministic FIFO). The heap is capability-agnostic; its
 * owner guards it (EventQueue with its SequentialCap).
 *
 * Unlike std::priority_queue, pop() moves the entry out (no const_cast
 * workaround) and the backing vector is reservable.
 */

#ifndef CHOPIN_SIM_EVENT_HEAP_HH
#define CHOPIN_SIM_EVENT_HEAP_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace chopin
{

/** Min-heap of (when, seq, callback) entries; see the file comment. */
template <typename CallbackT>
class EventHeap
{
  public:
    struct Entry
    {
        Tick when;
        std::uint64_t seq; ///< insertion order for same-tick determinism
        CallbackT cb;
    };

    bool empty() const { return heap.empty(); }
    std::size_t size() const { return heap.size(); }

    /** Pre-size the backing vector (hot loops with known event counts). */
    void reserve(std::size_t n) { heap.reserve(n); }

    /** Tick of the earliest entry; kTickMax when empty. */
    Tick
    nextWhen() const
    {
        return heap.empty() ? kTickMax : heap.front().when;
    }

    void
    push(Tick when, std::uint64_t seq, CallbackT cb)
    {
        heap.push_back(Entry{when, seq, std::move(cb)});
        std::push_heap(heap.begin(), heap.end(), Later{});
    }

    /** Remove and return the earliest entry (FIFO among equal ticks). */
    Entry
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        Entry e = std::move(heap.back());
        heap.pop_back();
        return e;
    }

    void clear() { heap.clear(); }

  private:
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Entry> heap;
};

} // namespace chopin

#endif // CHOPIN_SIM_EVENT_HEAP_HH
