/**
 * @file
 * A serialized hardware resource (a pipeline stage, a link port).
 *
 * Work items claim the resource back-to-back: a claim issued at time t for
 * duration d begins at max(t, freeAt) and the resource becomes free again at
 * begin + d. This gives FIFO busy-until semantics, which is how the GPU
 * pipeline stages and the per-GPU network ports are modelled.
 */

#ifndef CHOPIN_SIM_RESOURCE_HH
#define CHOPIN_SIM_RESOURCE_HH

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

} // namespace chopin

#endif // CHOPIN_SIM_RESOURCE_HH
