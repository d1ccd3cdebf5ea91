#include "util/sequential.hh"

#include "util/check.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace detail
{

void
failUnlessSequential([[maybe_unused]] const char *what)
{
    CHOPIN_ASSERT(!inParallelRegion(), what,
                  ": coordinator-owned state touched from inside a "
                  "ThreadPool parallelFor region; timing-model objects are "
                  "sequential by contract (see util/sequential.hh)");
}

} // namespace detail
} // namespace chopin
