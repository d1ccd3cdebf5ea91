/**
 * @file
 * A serialized hardware resource (a pipeline stage, a link port).
 *
 * Work items claim the resource back-to-back: a claim issued at time t for
 * duration d begins at max(t, freeAt) and the resource becomes free again at
 * begin + d. This gives FIFO busy-until semantics, which is how the GPU
 * pipeline stages and the per-GPU network ports are modelled.
 *
 * Occupancy is the companion counting resource: a bounded population
 * (in-flight messages, queue slots) whose count must stay within
 * [0, capacity] at all times.
 */

#ifndef CHOPIN_SIM_RESOURCE_HH
#define CHOPIN_SIM_RESOURCE_HH

#include <cstdint>
#include <limits>

#include "util/check.hh"
#include "util/types.hh"

namespace chopin
{

/** Busy-until FIFO resource. */
class Resource
{
  public:
    /** Time at which the resource next becomes idle. */
    Tick freeAt() const { return _freeAt; }

    /** Total busy time accumulated so far (for utilization stats). */
    Tick busyTime() const { return _busyTime; }

    /**
     * Claim the resource for @p duration starting no earlier than @p at.
     * @return the completion time of this work item.
     */
    Tick
    claim(Tick at, Tick duration)
    {
        Tick begin = at > _freeAt ? at : _freeAt;
        // Tick arithmetic is unsigned: a negative duration produced by a
        // bad float->cycle conversion shows up as a near-2^64 value and
        // would silently wrap the busy-until horizon.
        CHOPIN_ASSERT(duration <= ~Tick(0) - begin,
                      "claim overflows the tick horizon: begin ", begin,
                      " + duration ", duration);
        CHOPIN_ASSERT(_busyTime <= ~Tick(0) - duration,
                      "busy-time accumulator overflow");
        _freeAt = begin + duration;
        _busyTime += duration;
        return _freeAt;
    }

  private:
    Tick _freeAt = 0;
    Tick _busyTime = 0;
};

/**
 * Counting resource with a hard capacity: the population never goes
 * negative and never exceeds @p capacity. Violations are simulator bugs
 * (double release, lost drain) and fail through the check layer.
 */
class Occupancy
{
  public:
    /** Unbounded capacity for populations without a structural limit. */
    static constexpr std::uint64_t unbounded =
        std::numeric_limits<std::uint64_t>::max();

    explicit Occupancy(std::uint64_t capacity = unbounded) : cap(capacity) {}

    std::uint64_t used() const { return count; }
    std::uint64_t capacity() const { return cap; }
    bool empty() const { return count == 0; }

    /** Add @p n occupants; the population must stay within capacity. */
    void
    acquire(std::uint64_t n = 1)
    {
        CHOPIN_ASSERT(n <= cap - count, "occupancy above capacity: ", count,
                      " + ", n, " > ", cap);
        count += n;
    }

    /** Remove @p n occupants; the population must never go negative. */
    void
    release(std::uint64_t n = 1)
    {
        CHOPIN_ASSERT(n <= count, "occupancy below zero: ", count, " - ", n);
        count -= n;
    }

  private:
    std::uint64_t cap;
    std::uint64_t count = 0;
};

} // namespace chopin

#endif // CHOPIN_SIM_RESOURCE_HH
