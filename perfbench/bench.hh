/**
 * @file
 * Shared pieces of the perfbench binary: host clocks, the span log used by
 * the traced run, summary statistics, the simulated-statistics digest and
 * the metric records printed at the end of a run.
 *
 * Everything here measures *host* wall-clock time. Simulated cycles only
 * ever enter as correctness guards and through the digest.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/metrics.hh"

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One named value with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * The highest nearest-rank percentile with at least ten samples above it.
 * @p pct receives the percentile (whole number); with fewer than eleven
 * samples it falls back to the maximum and reports 100.
 */
double tail(std::vector<double> v, int &pct);

/**
 * One timed interval of the traced run: name, start, end, the index of
 * the enclosing span (-1 at top level) and the operation it belongs to.
 */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::uint64_t op = 0;
};

/**
 * In-memory span recorder. Disabled (the untraced run) it records nothing
 * and a Scope costs one branch. Spans are opened and closed on the
 * calling thread only: they wrap calls into the library from outside.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }
    void setEnabled(bool enabled) { on = enabled; }

    /** Start a new operation id for the spans that follow. */
    void nextOp() { ++op; }

    int open(const char *name);
    void close(int id);

    const std::vector<Span> &spans() const { return log; }

    /** Durations (ns) of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Summed duration (ns) of every span called @p name. */
    double total(const std::string &name) const;

    /** Write every span as a JSON array to @p path. */
    bool write(const std::string &path) const;

    /** RAII span; a no-op when the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : owner(log), id(log.on ? log.open(name) : -1)
        {}
        ~Scope()
        {
            if (id >= 0)
                owner.close(id);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &owner;
        int id;
    };

  private:
    bool on;
    std::uint64_t op = 0;
    std::vector<Span> log;
    std::vector<int> stack;
};

/** FNV-1a fold of every registered metric of every result it is fed. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &accounting)
    {
        for (const chopin::MetricSample &s : chopin::collectMetrics(accounting))
            word(s.bits);
    }

    void word(std::uint64_t w);

    std::string hex() const;

  private:
    std::uint64_t h = 1469598103934665603ull;
};

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** Current resident set of this process in KB (/proc/self/statm). */
double currentRssKb();

/** Bytes in the regular files directly under @p dir. */
std::uint64_t dirBytes(const std::string &dir);

/** The options one run was started with. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs for the self-test. */
    bool tiny = false;
    /** Corrupt one reference hash (self-test of the correctness checks). */
    bool inject_mismatch = false;
    unsigned jobs = 1;
    /** Scratch directory for caches and the span file. */
    std::string work_dir;
};

/** Correctness bookkeeping: checks attempted and failed. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> first_failures;

    void expect(bool ok, const std::string &what);
};

/** Everything a workload reports back to main(). */
struct RunOutput
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    Checks checks;
    Digest digest;
    /** Per-layer counts and times gathered outside spans (traced run). */
    std::map<std::string, double> counts;
};

/** Derive a perturbed 64-bit seed (splitmix64 of @p a mixed with @p b). */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** Fixed-point formatting for the notes. */
std::string fmt(double v, int decimals = 3);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
