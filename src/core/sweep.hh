/**
 * @file
 * Scenario-parallel sweep engine with a content-addressed result cache.
 *
 * The paper's evaluation is a large grid of *independent, deterministic*
 * simulations: 8 Table III workloads x up to 6 schemes x sweeps over GPU
 * count, bandwidth, latency and thresholds (Figs. 13-22). Every run is a
 * pure function of (scheme, trace, config), and PR 2/3 made each frame
 * bit-deterministic (`frame_hash`/`content_hash`) at any host job count —
 * which gives both parallel execution and cache reuse a free correctness
 * oracle.
 *
 * SweepRunner exploits that in three stacked ways:
 *
 *  1. *Scenario parallelism* (the outer level): a declared grid of
 *     scenarios executes concurrently on a dedicated chopin::ThreadPool at
 *     one-family-per-task granularity (3. below). The outer-scenarios x
 *     inner-renderer-jobs split is explicit: when tasks run in parallel,
 *     each simulation's inner rendering is forced serial
 *     (ThreadPool::ScenarioRegion), so the default is
 *     outer-parallel/inner-serial; with sweep_jobs = 1 the inner renderer
 *     parallelism (`--jobs`) flows through the global pool as before.
 *
 *  2. *Result memoization*: results are memoized in-process and optionally
 *     persisted to an on-disk content-addressed cache keyed by an
 *     exhaustive fingerprint — SystemConfig::fingerprint() (every config
 *     field) + traceFingerprint() (every trace byte) + the result schema
 *     version. A result holds metrics, hashes and draw timings, never an
 *     image, so neither the memo nor an entry carries pixels. Hits are
 *     validated against a checksum stored with each entry; corrupt,
 *     truncated or version-mismatched entries are rejected and
 *     recomputed, never trusted and never fatal.
 *
 *  3. *Functional families* (prefetch() only): scenarios whose functional
 *     path reads the same inputs (familyKey()) run as one task. The first
 *     member that computes renders and records a FunctionalLog
 *     (sfr/functional_log.hh); every later member runs the timing model
 *     live over the logged functional results. A log lives only as long
 *     as its task, so at most sweep_jobs exist at once. run() never
 *     replays.
 *
 * See DESIGN.md §9 for the fingerprint scheme, the parallelism contract
 * and the cache invalidation rules; bench/sweep_all runs the whole figure
 * suite on top of this engine.
 */

#ifndef CHOPIN_CORE_SWEEP_HH
#define CHOPIN_CORE_SWEEP_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sfr/schemes.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "util/thread_annotations.hh"
#include "util/thread_pool.hh"

namespace chopin
{

/**
 * Result-cache schema version: part of every cache key and file header.
 * Bump whenever the FrameResult serialization *framing* (magic, header,
 * checksum) or simulation semantics change, so stale entries from older
 * binaries are evicted (rejected on load and overwritten on the next
 * store) instead of aliasing. v2: the accounting payload is the metric
 * registry's wire format (stats/metrics.hh) instead of hand-listed fields.
 * v3: no image; a checksum of every preceding byte precedes the end magic.
 * v4: SystemConfig lost its epoch-timing field, so every config
 * fingerprint changed.
 */
inline constexpr std::uint32_t resultSchemaVersion = 4;

/**
 * The cache version every SweepRunner keys and stores with:
 * resultSchemaVersion mixed with the metric-schema fingerprints of the
 * serialized registries (FrameAccounting and DrawTiming). Adding,
 * removing, renaming or re-typing any registered metric changes the
 * fingerprint and therefore evicts stale cache entries automatically,
 * with no manual version bump to forget.
 */
std::uint32_t resultCacheVersion();

/** One cell of a sweep grid: a scheme run on a benchmark under a config. */
struct Scenario
{
    Scheme scheme = Scheme::SingleGpu;
    std::string bench; ///< Table III profile name (e.g. "ut3")
    SystemConfig cfg;
};

struct SweepOptions
{
    /** Outer degree of parallelism: concurrent scenarios. 0 selects
     *  defaultJobs(); 1 runs scenarios serially on the calling thread
     *  (inner renderer parallelism then applies as usual). */
    unsigned sweep_jobs = 0;
    /** Trace scale divisor for benchmarks named in scenarios. */
    int scale = 1;
    /** On-disk cache directory; empty = in-process memoization only. */
    std::string cache_dir;
    /** False = ignore existing disk entries (cold run) but still store. */
    bool cache_read = true;
};

/** Where each result came from (monotone counters; see stats()). */
struct SweepStats
{
    std::uint64_t computed = 0;      ///< simulated (timing model run live)
    /** The part of computed that took its functional results from a
     *  family member's FunctionalLog instead of rendering. */
    std::uint64_t replayed = 0;
    std::uint64_t memo_hits = 0;     ///< served from the in-process memo
    std::uint64_t disk_hits = 0;     ///< loaded and validated from disk
    std::uint64_t disk_rejected = 0; ///< corrupt/stale entries recomputed
    std::uint64_t stored = 0;        ///< entries written to disk
};

/**
 * The combined cache key of one scenario: schema version + scheme + trace
 * fingerprint + exhaustive config fingerprint.
 */
std::uint64_t scenarioFingerprint(Scheme scheme, std::uint64_t trace_fp,
                                  const SystemConfig &cfg,
                                  std::uint32_t cache_version);

/**
 * The functional family of a scenario (DESIGN.md §9.4): scenarios with
 * equal keys render the same draws into the same surfaces, so one run's
 * FunctionalLog serves the others. Mixes @p trace_fp, the scheme's
 * FunctionalClass, and the fingerprint of @p cfg with every timing-only
 * field (timing, link, cull_retention, comp_payload, gpupd_batch_prims,
 * gpupd_runahead, sched_update_tris) reset to its default, so any other
 * field, one added later included, splits families. nullopt for
 * SingleGpu, which joins no family.
 */
std::optional<std::uint64_t> familyKey(Scheme scheme, std::uint64_t trace_fp,
                                       const SystemConfig &cfg);

/** Outcome of a cache probe. */
enum class CacheLoad
{
    Hit,      ///< entry present, fully validated, deserialized
    Miss,     ///< no entry on disk
    Rejected, ///< entry present but truncated/corrupt/version-mismatched
};

/**
 * On-disk content-addressed FrameResult store. One file per scenario key
 * (`<dir>/<16-hex-key>.chopinres`), written atomically (temp file + rename)
 * so concurrent writers and readers — including other processes sharing the
 * directory — see either nothing or a complete entry.
 */
class ResultCache
{
  public:
    ResultCache(std::string dir, std::uint32_t version);

    /** The file path a key maps to. */
    std::string path(std::uint64_t key) const;

    /**
     * Load and validate the entry for @p key. Validation covers the magic,
     * the schema version, the key echo, every length field, a checksum of
     * every byte before it, a trailing sentinel and exact EOF. Returns
     * Rejected — never crashes, never fails a check — on a truncated,
     * corrupt or version-mismatched entry; the caller recomputes, and the
     * next store() evicts the bad file.
     */
    CacheLoad load(std::uint64_t key, FrameResult &out) const;

    /** Serialize @p r for @p key (overwrites any stale entry).
     *  @return false on IO failure (treated as a soft error by callers). */
    bool store(std::uint64_t key, const FrameResult &r) const;

  private:
    std::string dir;
    std::uint32_t version;
};

/**
 * Executes sweep grids with scenario-level parallelism and memoization.
 * All public methods are thread-safe; returned references stay valid for
 * the runner's lifetime (results live in node-stable maps).
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    const SweepOptions &options() const { return opts; }

    /** Generate (or reuse) the trace for @p bench at the runner's scale. */
    const FrameTrace &trace(const std::string &bench);

    /** Content fingerprint of trace(bench) (memoized with the trace). */
    std::uint64_t traceFp(const std::string &bench);

    /** Run (or reuse) one scenario; memoized by scenarioFingerprint(). */
    const FrameResult &run(const Scenario &s);

    const FrameResult &
    run(Scheme scheme, const std::string &bench, const SystemConfig &cfg)
    {
        return run(Scenario{scheme, bench, cfg});
    }

    /**
     * Enqueue and execute a whole grid before the first read: generates
     * each distinct trace once, deduplicates scenarios by fingerprint,
     * groups the remainder into functional families (familyKey()), and
     * executes one task per family concurrently on the runner's scenario
     * pool (sweep_jobs wide). Within a task the members run in grid order;
     * the first that computes records a FunctionalLog and later ones
     * replay it. Subsequent run() calls for any scenario in the grid are
     * memo hits. Results and counters are bit-identical at any sweep_jobs
     * value: a family is one deterministic task, and each simulation's
     * inner parallelism contract is unchanged.
     */
    void prefetch(const std::vector<Scenario> &grid);

    SweepStats stats() const;

  private:
    struct TraceEntry
    {
        FrameTrace trace;
        std::uint64_t fp = 0;
    };

    /** trace() + traceFp() share this lookup. */
    const TraceEntry &traceEntry(const std::string &bench);

    /** Compute-or-fetch one scenario given its resolved key; a computed
     *  one records into or replays from @p log when given. */
    const FrameResult &runKeyed(const Scenario &s, std::uint64_t key,
                                FunctionalLog *log = nullptr);

    // Immutable after construction (normalized/created in the ctor's
    // init list), so scenario workers read them without locking.
    const SweepOptions opts; ///< sweep_jobs already resolved
    const std::unique_ptr<ThreadPool> pool; ///< dedicated scenario pool
    const std::unique_ptr<ResultCache> disk;

    mutable Mutex m;
    std::map<std::string, TraceEntry> traces CHOPIN_GUARDED_BY(m);
    std::map<std::uint64_t, FrameResult> results CHOPIN_GUARDED_BY(m);
    SweepStats counters CHOPIN_GUARDED_BY(m);
};

} // namespace chopin

#endif // CHOPIN_CORE_SWEEP_HH
