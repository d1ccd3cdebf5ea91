/**
 * @file
 * Shared scaffolding for the per-figure benchmark harnesses.
 *
 * Every harness accepts:
 *   --scale=N      trace scale divisor (1 = the paper's full Table III
 *                  sizes; scaled traces are proportional miniatures, see
 *                  trace/profile.hh, so relative results are preserved)
 *   --gpus=N       GPU count where the figure does not sweep it
 *   --bench=X      restrict to one benchmark (default: all eight)
 *   --csv=B        also print a machine-readable CSV block (default true)
 *   --jobs=N       inner renderer host threads (per simulation)
 *   --sweep-jobs=N outer concurrent scenarios (see core/sweep.hh; inner
 *                  rendering is forced serial while scenarios run in
 *                  parallel)
 *   --cache=DIR    on-disk content-addressed result cache (default: the
 *                  CHOPIN_RESULT_CACHE environment variable; empty = off)
 *
 * perf_frame and sweep_all also accept --trace-out=F (addTraceOutFlag()):
 * a Chrome trace-event JSON timeline of one sample scenario, written by
 * writeTraceSample(); the path is validated up front.
 *
 * figureSuite() is the one declaration of every figure's scenario grid.
 * A simulating harness must call prefetch("<its name>") right after
 * parse(): that executes its grid scenario-parallel on the sweep engine
 * (core/sweep.hh), memoized under the exhaustive scenario fingerprint and
 * shared through the optional disk cache. Every later run() must be a
 * memo hit on that grid; a read outside it fails, so a report and its
 * declared grid cannot drift apart. sweep_all runs the same suite.
 */

#ifndef CHOPIN_BENCH_COMMON_HH
#define CHOPIN_BENCH_COMMON_HH

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/chopin.hh"
#include "core/sweep.hh"

namespace chopin::bench
{

/** One figure's declared scenario grid. */
struct FigureSpec
{
    std::string name; ///< the harness binary that reports it
    std::vector<Scenario> grid;
};

/**
 * The whole evaluation suite, one FigureSpec per simulating harness, for
 * the selected @p benches with @p gpus wherever a figure does not sweep
 * the GPU count. The suite order is the row order of BENCH_sweep.json.
 */
std::vector<FigureSpec> figureSuite(const std::vector<std::string> &benches,
                                    unsigned gpus);

/** Parsed common options plus the underlying CommandLine. */
class Harness
{
  public:
    /**
     * @param description one-line description printed as the header
     * @param default_scale default trace scale divisor for this figure
     */
    Harness(std::string description, int default_scale);
    ~Harness();

    /** Register an extra flag before parse(). */
    void addFlag(const std::string &name, const std::string &def,
                 const std::string &help)
    {
        cli.addFlag(name, def, help);
    }

    /** Register --trace-out before parse(); see writeTraceSample(). */
    void addTraceOutFlag();

    /**
     * Parse and validate argv. Malformed values (e.g. --gpus=-1,
     * --scale=0) produce a "<prog>: error: ..." diagnostic and exit
     * code 2; they never wrap through unsigned conversions.
     */
    void parse(int argc, char **argv);

    int scale() const { return scale_div; }
    unsigned gpus() const { return gpu_count; }
    const std::vector<std::string> &benchmarks() const { return benches; }
    const CommandLine &flags() const { return cli; }

    /** Generate (and cache) the trace for @p bench at the run's scale. */
    const FrameTrace &trace(const std::string &bench);

    /**
     * Execute the figureSuite() entry named @p name scenario-parallel
     * before the first read. An unknown name fails.
     */
    void prefetch(const std::string &name);

    /**
     * The result of a scheme on a benchmark with this config. It must be
     * a cell of the prefetched grid: a read the in-process memo does not
     * already hold fails through the check layer (exit 2), naming the
     * figure, scheme, benchmark and GPU count.
     */
    const FrameResult &run(Scheme scheme, const std::string &bench,
                           const SystemConfig &cfg);

    /** Print the table, then its CSV block if --csv. */
    void emit(const TextTable &table) const;

    /**
     * If --trace-out was given, simulate @p scheme on the first selected
     * benchmark under @p cfg with the timeline tracer attached and write
     * the Chrome trace-event JSON. The traced run deliberately bypasses
     * the sweep engine: cached results carry no spans, and the recorder
     * must observe a live simulation. No-op when the flag is empty;
     * requires addTraceOutFlag().
     */
    void writeTraceSample(Scheme scheme, const SystemConfig &cfg);

  private:
    CommandLine cli;
    std::string desc;
    int default_scale;
    int scale_div = 1;
    unsigned gpu_count = 8;
    std::vector<std::string> benches;
    bool trace_out_flag = false;
    std::string figure; ///< the prefetched figureSuite() entry
    std::unique_ptr<SweepRunner> sweep;
};

/** Geometric mean of a non-empty vector of positive ratios. */
double gmean(const std::vector<double> &values);

/** A percentage string with one decimal, e.g. "23.4%". */
std::string percent(double ratio);

/** Wall-clock nanoseconds of one invocation of @p fn (steady clock). */
template <typename Fn>
double
elapsedNs(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/**
 * Assert that two runs of one configuration are bit-identical: the scheme,
 * every registered metric (frame_hash and content_hash included; the
 * failure names the ones that differ) and every draw timing. @p what
 * names the configuration and the two runs in the failure message.
 */
void checkIdentical(const FrameResult &a, const FrameResult &b,
                    const std::string &what);

} // namespace chopin::bench

#endif // CHOPIN_BENCH_COMMON_HH
