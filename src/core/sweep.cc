#include "core/sweep.hh"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include <unistd.h> // getpid(), for unique cache temp-file names

#include "stats/metrics.hh"
#include "util/check.hh"
#include "util/fingerprint.hh"

namespace chopin
{

std::uint32_t
resultCacheVersion()
{
    Fingerprinter fp;
    fp.str("ResultCache");
    fp.u64(resultSchemaVersion);
    fp.u64(metricSchemaFingerprint<FrameAccounting>());
    fp.u64(metricSchemaFingerprint<DrawTiming>());
    return static_cast<std::uint32_t>(fp.value());
}

std::uint64_t
scenarioFingerprint(Scheme scheme, std::uint64_t trace_fp,
                    const SystemConfig &cfg, std::uint32_t cache_version)
{
    Fingerprinter fp;
    fp.str("Scenario/v1");
    fp.u64(cache_version);
    fp.u64(static_cast<std::uint64_t>(scheme));
    fp.u64(trace_fp);
    fp.u64(cfg.fingerprint());
    return fp.value();
}

std::optional<std::uint64_t>
familyKey(Scheme scheme, std::uint64_t trace_fp, const SystemConfig &cfg)
{
    FunctionalClass cls = functionalClass(scheme);
    if (cls == FunctionalClass::None)
        return std::nullopt;
    // Reset what only the timing model reads; everything else, a field
    // added later included, stays in the key.
    SystemConfig functional = cfg;
    const SystemConfig defaults;
    functional.timing = defaults.timing;
    functional.link = defaults.link;
    functional.cull_retention = defaults.cull_retention;
    functional.comp_payload = defaults.comp_payload;
    functional.gpupd_batch_prims = defaults.gpupd_batch_prims;
    functional.gpupd_runahead = defaults.gpupd_runahead;
    functional.sched_update_tris = defaults.sched_update_tris;

    Fingerprinter fp;
    fp.str("FunctionalFamily/v1");
    fp.u64(static_cast<std::uint64_t>(cls));
    fp.u64(trace_fp);
    fp.u64(functional.fingerprint());
    return fp.value();
}

// --- FrameResult (de)serialization ----------------------------------------
//
// An entry is: magic/version/key header, scheme, the accounting block
// (FrameAccounting), the draw timings, a checksum of every preceding
// byte, and an end magic. The accounting and each DrawTiming are written
// through the metric registry (stats/metrics.hh): one 64-bit word per
// registered metric, in registration order, so the serializer can never
// drift from the structs — a new field either registers (and ships) or
// trips the metrics round-trip test. No image is stored: frame_hash and
// content_hash in the accounting block identify it.

namespace
{

constexpr std::uint32_t resultMagic = 0x43485243;    // "CHRC"
constexpr std::uint32_t resultEndMagic = 0x444e4552; // "ENDR"

/** The entry checksum over @p bytes, every byte that precedes it in the
 *  entry. FNV-1a, so a single changed byte always changes it. */
std::uint64_t
checksum(std::string_view bytes)
{
    return Fingerprinter().bytes(bytes.data(), bytes.size()).value();
}

/** Reader that fails soft: every get() after a short read returns false
 *  and poisons the reader, so corrupt files surface as a rejected load
 *  rather than a crash or a failed check. It keeps every byte it reads for
 *  the checksum. */
class SoftReader
{
  public:
    explicit SoftReader(const std::string &path)
        : is(path, std::ios::binary)
    {
        ok_flag = is.good();
    }

    bool opened() const { return ok_flag; }

    template <typename T>
    bool
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (!ok_flag)
            return false;
        is.read(reinterpret_cast<char *>(&v), sizeof(T));
        ok_flag = static_cast<bool>(is);
        if (ok_flag)
            consumed.append(reinterpret_cast<const char *>(&v), sizeof(T));
        return ok_flag;
    }

    /** Every byte read so far, in order. */
    std::string_view bytesRead() const { return consumed; }

    /** True iff every byte has been consumed (no trailing garbage). */
    bool
    atEof()
    {
        if (!ok_flag)
            return false;
        return is.peek() == std::ifstream::traits_type::eof();
    }

  private:
    std::ifstream is;
    bool ok_flag = false;
    std::string consumed;
};

template <typename T>
void
put(std::ostream &os, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

} // namespace

ResultCache::ResultCache(std::string cache_dir, std::uint32_t schema_version)
    : dir(std::move(cache_dir)), version(schema_version)
{
    CHOPIN_CHECK(!dir.empty(), "result cache directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    CHOPIN_CHECK(!ec, "cannot create result cache directory '", dir,
                 "': ", ec.message());
}

std::string
ResultCache::path(std::uint64_t key) const
{
    static const char digits[] = "0123456789abcdef";
    std::string name(16, '0');
    std::uint64_t v = key;
    for (int i = 15; i >= 0; --i, v >>= 4)
        name[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return dir + "/" + name + ".chopinres";
}

CacheLoad
ResultCache::load(std::uint64_t key, FrameResult &out) const
{
    SoftReader r(path(key));
    if (!r.opened())
        return CacheLoad::Miss;

    std::uint32_t magic = 0, file_version = 0;
    std::uint64_t file_key = 0;
    if (!r.get(magic) || magic != resultMagic)
        return CacheLoad::Rejected;
    if (!r.get(file_version) || file_version != version)
        return CacheLoad::Rejected;
    if (!r.get(file_key) || file_key != key)
        return CacheLoad::Rejected;

    FrameResult res;
    std::uint32_t scheme_raw = 0;
    if (!r.get(scheme_raw) ||
        scheme_raw > static_cast<std::uint32_t>(Scheme::ChopinIdeal))
        return CacheLoad::Rejected;
    res.scheme = static_cast<Scheme>(scheme_raw);

    // The whole accounting block ships through the metric registry: every
    // registered metric, in registration order, one word each.
    if (!readMetrics(r, static_cast<FrameAccounting &>(res)))
        return CacheLoad::Rejected;

    std::uint64_t n_timings = 0;
    if (!r.get(n_timings) || n_timings > (1ull << 26))
        return CacheLoad::Rejected;
    res.draw_timings.resize(n_timings);
    for (DrawTiming &t : res.draw_timings)
        if (!readMetrics(r, t))
            return CacheLoad::Rejected;

    // Content validation: the stored checksum must match every byte read
    // above. This catches bit rot anywhere in the entry — an accounting
    // word included — that the framing checks cannot see.
    std::uint64_t want = checksum(r.bytesRead());
    std::uint64_t stored = 0;
    std::uint32_t end_magic = 0;
    if (!r.get(stored) || stored != want || !r.get(end_magic) ||
        end_magic != resultEndMagic || !r.atEof())
        return CacheLoad::Rejected;

    out = std::move(res);
    return CacheLoad::Hit;
}

bool
ResultCache::store(std::uint64_t key, const FrameResult &r) const
{
    std::string final_path = path(key);
    std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid());
    std::ostringstream body;
    put(body, resultMagic);
    put(body, version);
    put(body, key);
    put(body, static_cast<std::uint32_t>(r.scheme));
    writeMetrics(body, static_cast<const FrameAccounting &>(r));
    put(body, static_cast<std::uint64_t>(r.draw_timings.size()));
    for (const DrawTiming &t : r.draw_timings)
        writeMetrics(body, t);
    const std::string bytes = body.str();
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        put(os, checksum(bytes));
        put(os, resultEndMagic);
        if (!os)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        std::filesystem::remove(tmp_path, ec);
        return false;
    }
    return true;
}

// --- SweepRunner ----------------------------------------------------------

/** Validate and resolve defaults before the const members freeze. */
static SweepOptions
normalizeOptions(SweepOptions o)
{
    CHOPIN_CHECK(o.scale >= 1, "sweep scale divisor must be >= 1, got ",
                 o.scale);
    if (o.sweep_jobs == 0)
        o.sweep_jobs = defaultJobs();
    return o;
}

SweepRunner::SweepRunner(SweepOptions options)
    : opts(normalizeOptions(std::move(options))),
      pool(std::make_unique<ThreadPool>(opts.sweep_jobs)),
      disk(opts.cache_dir.empty()
               ? nullptr
               : std::make_unique<ResultCache>(opts.cache_dir,
                                               resultCacheVersion()))
{
}

SweepRunner::~SweepRunner() = default;

const SweepRunner::TraceEntry &
SweepRunner::traceEntry(const std::string &bench)
{
    {
        LockGuard lk(m);
        auto it = traces.find(bench);
        if (it != traces.end())
            return it->second;
    }
    // Generate outside the lock: traces are deterministic in (bench,
    // scale), so a concurrent duplicate generation produces an identical
    // entry and emplace keeps whichever landed first.
    TraceEntry entry;
    entry.trace = generateBenchmark(bench, opts.scale);
    entry.fp = traceFingerprint(entry.trace);
    LockGuard lk(m);
    return traces.emplace(bench, std::move(entry)).first->second;
}

const FrameTrace &
SweepRunner::trace(const std::string &bench)
{
    return traceEntry(bench).trace;
}

std::uint64_t
SweepRunner::traceFp(const std::string &bench)
{
    return traceEntry(bench).fp;
}

const FrameResult &
SweepRunner::run(const Scenario &s)
{
    std::uint64_t key = scenarioFingerprint(s.scheme, traceFp(s.bench),
                                            s.cfg, resultCacheVersion());
    return runKeyed(s, key);
}

const FrameResult &
SweepRunner::runKeyed(const Scenario &s, std::uint64_t key,
                      FunctionalLog *log)
{
    {
        LockGuard lk(m);
        auto it = results.find(key);
        if (it != results.end()) {
            counters.memo_hits += 1;
            return it->second;
        }
    }

    if (disk && opts.cache_read) {
        FrameResult loaded;
        CacheLoad outcome = disk->load(key, loaded);
        if (outcome == CacheLoad::Hit) {
            LockGuard lk(m);
            auto [it, inserted] = results.emplace(key, std::move(loaded));
            if (inserted)
                counters.disk_hits += 1;
            else
                counters.memo_hits += 1;
            return it->second;
        }
        if (outcome == CacheLoad::Rejected) {
            LockGuard lk(m);
            counters.disk_rejected += 1;
        }
    }

    FrameResult computed;
    bool replayed = false;
    {
        // The scenario owns a complete private simulation; inside an
        // outer-parallel sweep this clears the in-parallel flag and forces
        // the simulation's inner rendering serial (see thread_pool.hh).
        ScenarioRegion region;
        std::uint64_t replays = log != nullptr ? log->replays : 0;
        computed = runScheme(s.scheme, s.cfg, trace(s.bench), nullptr,
                             nullptr, log);
        replayed = log != nullptr && log->replays > replays;
    }

    bool inserted;
    const FrameResult *res;
    {
        LockGuard lk(m);
        auto [it, ins] = results.emplace(key, std::move(computed));
        inserted = ins;
        res = &it->second;
        counters.computed += 1;
        counters.replayed += replayed ? 1 : 0;
    }
    // Only the inserting thread persists, so no two in-process writers
    // ever race on one entry; cross-process writers are isolated by the
    // per-pid temp file + atomic rename in ResultCache::store().
    if (inserted && disk && disk->store(key, *res)) {
        LockGuard lk(m);
        counters.stored += 1;
    }
    return *res;
}

void
SweepRunner::prefetch(const std::vector<Scenario> &grid)
{
    // Stage 1: generate each distinct trace exactly once, in parallel.
    std::vector<std::string> benches;
    {
        std::set<std::string> seen;
        LockGuard lk(m);
        for (const Scenario &s : grid)
            if (traces.find(s.bench) == traces.end() &&
                seen.insert(s.bench).second)
                benches.push_back(s.bench);
    }
    pool->parallelFor(benches.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                              ScenarioRegion region;
                              traceEntry(benches[i]);
                          }
                      });

    // Stage 2: resolve keys and deduplicate (identical cells appear in
    // several figures' grids; first occurrence wins), then group the
    // distinct scenarios into functional families in grid order. A
    // SingleGpu scenario is a family of its own.
    struct Member
    {
        const Scenario *scenario;
        std::uint64_t key;
    };
    std::vector<std::vector<Member>> families;
    std::map<std::uint64_t, std::size_t> family_index;
    std::set<std::uint64_t> seen_keys;
    for (const Scenario &s : grid) {
        std::uint64_t trace_fp = traceFp(s.bench);
        std::uint64_t key = scenarioFingerprint(s.scheme, trace_fp, s.cfg,
                                                resultCacheVersion());
        if (!seen_keys.insert(key).second)
            continue;
        std::optional<std::uint64_t> family =
            familyKey(s.scheme, trace_fp, s.cfg);
        if (!family) {
            families.push_back({Member{&s, key}});
            continue;
        }
        auto [it, fresh] = family_index.emplace(*family, families.size());
        if (fresh)
            families.emplace_back();
        families[it->second].push_back(Member{&s, key});
    }

    // Stage 3: one task per family. Its log is a local of the task, so
    // none outlives it and at most sweep_jobs exist at once.
    pool->parallelFor(
        families.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                FunctionalLog log;
                FunctionalLog *shared =
                    families[i].size() > 1 ? &log : nullptr;
                for (const Member &member : families[i])
                    runKeyed(*member.scenario, member.key, shared);
            }
        });
}

SweepStats
SweepRunner::stats() const
{
    LockGuard lk(m);
    return counters;
}

} // namespace chopin
