#include "util/thread_pool.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "util/check.hh"
#include "util/thread_annotations.hh"

namespace chopin
{

namespace
{

/** True while the current thread is executing pool chunks: nested
 *  parallelFor calls detect this and degrade to the inline serial path. */
thread_local bool tl_in_parallel = false;

/** True while the current thread runs a ScenarioRegion that was entered
 *  from inside a parallel region: every parallelFor on any pool degrades
 *  to the inline serial path (outer scenario parallelism => inner serial
 *  rendering; see ScenarioRegion in the header). */
thread_local bool tl_inline_only = false;

} // namespace

bool
inParallelRegion()
{
    return tl_in_parallel;
}

ScenarioRegion::ScenarioRegion()
    : saved_in_parallel(tl_in_parallel), saved_inline_only(tl_inline_only)
{
    if (saved_in_parallel) {
        // This pool task is one whole, thread-confined simulation: the
        // scenario thread is the coordinator of its private timing-model
        // objects, so sequential ownership holds with the flag cleared.
        tl_in_parallel = false;
        tl_inline_only = true;
    }
}

ScenarioRegion::~ScenarioRegion()
{
    tl_in_parallel = saved_in_parallel;
    tl_inline_only = saved_inline_only;
}

struct ThreadPool::Impl
{
    // Mutated only by the owning thread (construction fills it, join()
    // in the destructor drains it); workers never touch the vector.
    std::vector<std::thread> workers; // chopin-lint: allow(lock-coverage)

    Mutex m;
    std::condition_variable cv_work; ///< workers: a new generation exists
    std::condition_variable cv_done; ///< caller: all chunks retired

    // Job-control state, written by the caller of parallelFor and read by
    // workers, always under `m` (jobs are serialized by `job_mutex`, so
    // exactly one is live at once).
    std::uint64_t generation CHOPIN_GUARDED_BY(m) = 0;
    bool job_active CHOPIN_GUARDED_BY(m) = false;
    bool shutdown CHOPIN_GUARDED_BY(m) = false;
    std::size_t pending CHOPIN_GUARDED_BY(m) = 0;        ///< chunks left
    std::size_t workers_in_job CHOPIN_GUARDED_BY(m) = 0; ///< touching `fn`
    std::exception_ptr error CHOPIN_GUARDED_BY(m);

    // Job descriptor: written by the submitting caller under `m` *before*
    // the generation bump publishes it, then immutable until every chunk
    // retires — workers read it lock-free inside runChunks. Not
    // GUARDED_BY(m): the generation protocol, not the mutex, makes these
    // reads race-free (TSan-verified in CI).
    std::size_t n = 0;      // chopin-lint: allow(lock-coverage)
    std::size_t grain = 1;  // chopin-lint: allow(lock-coverage)
    std::size_t chunks = 0; // chopin-lint: allow(lock-coverage)
    const RangeFn *fn = nullptr; // chopin-lint: allow(lock-coverage)

    std::atomic<std::size_t> next_chunk{0}; ///< dynamic chunk tickets

    /** Serializes concurrent external parallelFor callers. */
    Mutex job_mutex CHOPIN_ACQUIRED_BEFORE(m);

    /** Claim and run chunks until the ticket counter is exhausted. */
    void
    runChunks()
    {
        for (;;) {
            std::size_t c = next_chunk.fetch_add(1);
            if (c >= chunks)
                return;
            std::size_t begin = c * grain;
            std::size_t end = std::min(n, begin + grain);
            try {
                (*fn)(begin, end);
            } catch (...) {
                LockGuard lk(m);
                if (!error)
                    error = std::current_exception();
            }
            {
                LockGuard lk(m);
                pending -= 1;
                if (pending == 0)
                    cv_done.notify_all();
            }
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        UniqueLock lk(m);
        for (;;) {
            // Explicit wait loop (not the predicate overload): the guarded
            // reads stay in this function's scope, where the analysis can
            // see the lock is held on both sides of the wait.
            while (!shutdown && generation == seen)
                cv_work.wait(lk.native());
            if (shutdown)
                return;
            seen = generation;
            if (!job_active)
                continue; // woke after the job already retired
            workers_in_job += 1;
            lk.native().unlock();
            tl_in_parallel = true;
            runChunks();
            tl_in_parallel = false;
            lk.native().lock();
            workers_in_job -= 1;
            if (workers_in_job == 0)
                cv_done.notify_all();
        }
    }
};

ThreadPool::ThreadPool(unsigned jobs_requested)
    : job_count(jobs_requested == 0 ? 1 : jobs_requested)
{
    if (job_count == 1)
        return; // serial pool: no Impl, no threads, ever
    impl = new Impl;
    impl->workers.reserve(job_count - 1);
    for (unsigned i = 0; i + 1 < job_count; ++i)
        impl->workers.emplace_back([this] { impl->workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (impl == nullptr)
        return;
    {
        LockGuard lk(impl->m);
        impl->shutdown = true;
    }
    impl->cv_work.notify_all();
    for (std::thread &w : impl->workers)
        w.join();
    delete impl;
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t grain, const RangeFn &fn)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;

    // Bound the ticket count so tiny chunks never dominate: at most ~4
    // chunks per job keeps scheduling overhead negligible while dynamic
    // claiming still balances uneven chunk costs.
    std::size_t min_grain =
        (n + static_cast<std::size_t>(job_count) * 4 - 1) /
        (static_cast<std::size_t>(job_count) * 4);
    std::size_t eff_grain = std::max(grain, min_grain);
    std::size_t chunks = (n + eff_grain - 1) / eff_grain;

    if (impl == nullptr || chunks < 2 || tl_in_parallel || tl_inline_only) {
        // Serial path: inline, in index order. Bit-identical to the
        // parallel path by the engine's slot-writing discipline; also the
        // nested-call fallback (a worker must never block on its own pool).
        for (std::size_t begin = 0; begin < n; begin += eff_grain)
            fn(begin, std::min(n, begin + eff_grain));
        return;
    }

    LockGuard job_lk(impl->job_mutex);
    {
        LockGuard lk(impl->m);
        impl->n = n;
        impl->grain = eff_grain;
        impl->chunks = chunks;
        impl->pending = chunks;
        impl->fn = &fn;
        impl->error = nullptr;
        impl->next_chunk.store(0);
        impl->job_active = true;
        impl->generation += 1;
    }
    impl->cv_work.notify_all();

    tl_in_parallel = true;
    impl->runChunks(); // the caller is one of the `jobs` workers
    tl_in_parallel = false;

    std::exception_ptr error;
    {
        UniqueLock lk(impl->m);
        while (impl->pending != 0 || impl->workers_in_job != 0)
            impl->cv_done.wait(lk.native());
        impl->job_active = false;
        impl->fn = nullptr;
        error = impl->error;
        impl->error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

namespace
{

Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool          // NOLINT: process singleton
    CHOPIN_GUARDED_BY(g_pool_mutex);
unsigned g_requested_jobs                   // 0 = use defaultJobs()
    CHOPIN_GUARDED_BY(g_pool_mutex) = 0;

} // namespace

unsigned
defaultJobs()
{
    // Read once at pool construction, before any worker exists.
    const char *env = std::getenv("CHOPIN_JOBS"); // NOLINT(concurrency-mt-unsafe)
    if (env != nullptr && *env != '\0') {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != nullptr && *end == '\0' && v >= 1 && v <= 1024)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool &
globalPool()
{
    LockGuard lk(g_pool_mutex);
    if (!g_pool) {
        unsigned jobs =
            g_requested_jobs == 0 ? defaultJobs() : g_requested_jobs;
        g_pool = std::make_unique<ThreadPool>(jobs);
    }
    return *g_pool;
}

void
setGlobalJobs(unsigned job_count)
{
    LockGuard lk(g_pool_mutex);
    unsigned jobs = job_count == 0 ? defaultJobs() : job_count;
    CHOPIN_CHECK(!tl_in_parallel,
                 "setGlobalJobs() called from inside a parallel region");
    if (g_pool && g_pool->jobs() == jobs) {
        g_requested_jobs = job_count;
        return;
    }
    g_pool.reset(); // joins workers before the new pool spins up
    g_pool = std::make_unique<ThreadPool>(jobs);
    g_requested_jobs = job_count;
}

unsigned
globalJobs()
{
    LockGuard lk(g_pool_mutex);
    if (g_pool)
        return g_pool->jobs();
    return g_requested_jobs == 0 ? defaultJobs() : g_requested_jobs;
}

} // namespace chopin
