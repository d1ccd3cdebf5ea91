#include "util/partition_cap.hh"

#include "util/check.hh"
#include "util/thread_pool.hh"

namespace chopin
{

namespace
{

/** The partition this thread is executing; kNoPartition off-epoch. */
thread_local PartitionId tl_partition = kNoPartition;

} // namespace

PartitionId
currentPartition()
{
    return tl_partition;
}

PartitionScope::PartitionScope(PartitionId partition) : saved(tl_partition)
{
    tl_partition = partition;
}

PartitionScope::~PartitionScope()
{
    tl_partition = saved;
}

namespace detail
{

void
failUnlessOnPartition(PartitionId owner, [[maybe_unused]] const char *what)
{
    PartitionId current = tl_partition;
    if (current == owner)
        return; // the owning partition's epoch worker
    CHOPIN_ASSERT(current == kNoPartition && !inParallelRegion(), what,
                  ": partition ", owner,
                  "-owned state touched from partition ", current,
                  " / a parallel region; cross-partition effects must go "
                  "through the epoch mailboxes (see util/partition_cap.hh)");
}

} // namespace detail

} // namespace chopin
