/**
 * @file
 * sweep_all: the whole figure suite as one declared grid on the sweep
 * engine (core/sweep.hh) — "reproduce the paper in one cached, parallel
 * invocation".
 *
 * Takes figureSuite() (bench/common.hh), the grid every figNN / table /
 * ablation harness prefetches (Figs. 2-22, scheduler-traffic and ablation
 * tables), and runs it twice in-process:
 *
 *   1. cold-serial — a fresh runner prefetches each figure's grid with
 *      scenarios strictly serial and disk-cache reads disabled (computes
 *      everything; stores into the cache). This is the wall-clock baseline
 *      "one figure at a time" corresponds to. Each functional family
 *      renders once and its other members replay its log (core/sweep.hh);
 *      the computed and replayed counts are reported.
 *   2. warm-parallel — a second fresh runner on the same cache directory,
 *      scenario-parallel (`--sweep-jobs` wide), reading the entries phase 1
 *      stored.
 *
 * Every FrameResult of phase 2 is asserted bit-identical to its phase 1
 * counterpart — hashes, cycles, breakdown, traffic, totals, stage-busy
 * counters, group/scheduler statistics and draw timings — so cache reuse
 * and scenario parallelism are exercised against the determinism oracle
 * on every run. The frame and content hashes stand for the image, which
 * results do not carry.
 *
 * Like perf_frame, this harness measures *host* wall clock (std::chrono);
 * the simulated results are the correctness oracle, not the metric. Writes
 * a JSON summary (default BENCH_sweep.json) consumed by
 * tools/bench_json.py, whose --min-speedup gates the warm-over-cold
 * speedup in CI and whose --max-rss-mb gates the process's peak resident
 * set (retained results stay small only while they carry no pixels).
 */

#include "common.hh"

#include <filesystem>
#include <fstream>

#include <sys/resource.h> // getrusage(), for the peak resident set

#include "stats/report.hh"

namespace
{

using namespace chopin;
using namespace chopin::bench;

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

/** Total size of the regular files directly in @p dir. */
std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t sum = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            sum += e.file_size(ec);
    return sum;
}

struct FigureTimes
{
    std::string name;
    std::size_t scenarios = 0;
    std::uint64_t tris = 0;
    double cold_ns = 0.0;
    double warm_ns = 0.0;
    std::uint64_t hash_mix = 0; ///< XOR of scenario frame hashes
    std::uint64_t cycles = 0;   ///< sum of scenario cycle counts
};

void
emitStats(JsonWriter &w, const char *label, const SweepStats &s)
{
    w.key(label);
    w.beginObject();
    w.field("computed", s.computed);
    w.field("replayed", s.replayed);
    w.field("memo_hits", s.memo_hits);
    w.field("disk_hits", s.disk_hits);
    w.field("disk_rejected", s.disk_rejected);
    w.field("stored", s.stored);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Harness h("sweep_all: the whole figure suite, scenario-parallel with a "
              "shared result cache",
              8);
    h.addFlag("out", "BENCH_sweep.json",
              "JSON summary path (empty = don't write)");
    h.addTraceOutFlag();
    h.parse(argc, argv);

    std::string cache_dir = h.flags().getString("cache");
    if (cache_dir.empty())
        cache_dir = "BENCH_sweep.cache"; // the two phases must share a cache
    std::string out_path = h.flags().getString("out");
    if (!out_path.empty())
        checkWritablePath(out_path, "--out");
    unsigned inner_jobs =
        static_cast<unsigned>(h.flags().getInt("jobs"));
    unsigned sweep_jobs =
        static_cast<unsigned>(h.flags().getInt("sweep-jobs"));

    std::vector<FigureSpec> figures = figureSuite(h.benchmarks(), h.gpus());
    std::size_t total_scenarios = 0;
    for (const FigureSpec &fig : figures)
        total_scenarios += fig.grid.size();

    std::vector<FigureTimes> times;

    // --- Phase 1: cold serial (the baseline) -----------------------------
    // Fresh runner, scenarios serial, inner rendering serial, cache reads
    // disabled; everything is computed (rendered or replayed) and stored.
    setGlobalJobs(1);
    SweepOptions cold_opts;
    cold_opts.sweep_jobs = 1;
    cold_opts.scale = h.scale();
    cold_opts.cache_dir = cache_dir;
    cold_opts.cache_read = false;
    SweepRunner cold(cold_opts);

    for (const FigureSpec &fig : figures) {
        FigureTimes t;
        t.name = fig.name;
        t.scenarios = fig.grid.size();
        t.cold_ns = elapsedNs([&] { cold.prefetch(fig.grid); });
        for (const Scenario &s : fig.grid) {
            const FrameResult &r = cold.run(s);
            t.hash_mix ^= r.frame_hash;
            t.cycles += r.cycles;
            t.tris += cold.trace(s.bench).totalTriangles();
        }
        times.push_back(std::move(t));
    }
    SweepStats cold_stats = cold.stats();

    // --- Phase 2: warm parallel ------------------------------------------
    // Fresh runner (empty memo) on the same cache directory,
    // scenario-parallel; inner rendering is forced serial while scenarios
    // run in parallel (ScenarioRegion), so --jobs only matters at
    // --sweep-jobs=1.
    setGlobalJobs(inner_jobs);
    SweepOptions warm_opts;
    warm_opts.sweep_jobs = sweep_jobs;
    warm_opts.scale = h.scale();
    warm_opts.cache_dir = cache_dir;
    warm_opts.cache_read = true;
    SweepRunner warm(warm_opts);

    for (FigureTimes &t : times) {
        const FigureSpec &fig = figures[static_cast<std::size_t>(
            &t - times.data())];
        t.warm_ns = elapsedNs([&] { warm.prefetch(fig.grid); });
    }
    SweepStats warm_stats = warm.stats();

    // --- Verification: warm results bit-identical to the cold baseline ---
    std::size_t verified = 0;
    for (const FigureSpec &fig : figures)
        for (const Scenario &s : fig.grid) {
            checkIdentical(cold.run(s), warm.run(s),
                           fig.name + "/" + s.bench + "/" +
                               toString(s.scheme) + " (cold vs warm)");
            verified += 1;
        }

    // --- Report -----------------------------------------------------------
    double cold_total = 0.0, warm_total = 0.0;
    TextTable table({"figure", "scenarios", "cold-serial ms",
                     "warm-parallel ms", "speedup"});
    for (const FigureTimes &t : times) {
        cold_total += t.cold_ns;
        warm_total += t.warm_ns;
        double speedup = t.warm_ns > 0.0 ? t.cold_ns / t.warm_ns : 1.0;
        table.addRow({t.name, std::to_string(t.scenarios),
                      formatDouble(t.cold_ns / 1e6, 1),
                      formatDouble(t.warm_ns / 1e6, 1),
                      formatDouble(speedup, 2) + "x"});
    }
    double total_speedup =
        warm_total > 0.0 ? cold_total / warm_total : 1.0;
    table.addRow({"total", std::to_string(total_scenarios),
                  formatDouble(cold_total / 1e6, 1),
                  formatDouble(warm_total / 1e6, 1),
                  formatDouble(total_speedup, 2) + "x"});
    h.emit(table);

    double warm_lookups =
        static_cast<double>(warm_stats.memo_hits + warm_stats.disk_hits +
                            warm_stats.computed);
    double hit_rate =
        warm_lookups > 0.0
            ? static_cast<double>(warm_stats.memo_hits +
                                  warm_stats.disk_hits) /
                  warm_lookups
            : 0.0;
    double peak_rss_mb = peakRssMb();
    std::uint64_t cache_bytes = dirBytes(cache_dir);
    std::cout << "verified " << verified
              << " scenario results bit-identical (cold-serial vs "
                 "warm-parallel)\n"
              << "cold phase: " << cold_stats.computed << " computed, "
              << cold_stats.replayed << " of them replayed from a family "
                 "log\n"
              << "warm-phase cache hit rate: " << percent(hit_rate) << " ("
              << warm_stats.disk_hits << " disk, " << warm_stats.memo_hits
              << " memo, " << warm_stats.computed << " computed, "
              << warm_stats.disk_rejected << " rejected)\n"
              << "peak RSS " << formatDouble(peak_rss_mb, 1)
              << " MB, cache directory "
              << formatDouble(static_cast<double>(cache_bytes) / 1e6, 1)
              << " MB\n";

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        CHOPIN_CHECK(out.good(), "cannot write ", out_path);
        JsonWriter w(out);
        w.beginObject();
        w.field("scale", h.scale());
        w.field("gpus", h.gpus());
        w.field("jobs_parallel", warm.options().sweep_jobs);
        w.field("repeat", 1);
        w.field("total_scenarios", total_scenarios);
        w.field("verified", verified);
        w.field("cold_serial_ns", cold_total);
        w.field("warm_parallel_ns", warm_total);
        w.field("gmean_speedup", total_speedup);
        w.field("peak_rss_mb", peak_rss_mb);
        w.key("cache");
        w.beginObject();
        w.field("dir", cache_dir);
        w.field("dir_bytes", cache_bytes);
        w.field("warm_hit_rate", hit_rate);
        emitStats(w, "cold", cold_stats);
        emitStats(w, "warm", warm_stats);
        w.endObject();
        w.key("results");
        w.beginArray();
        for (const FigureTimes &t : times) {
            double speedup =
                t.warm_ns > 0.0 ? t.cold_ns / t.warm_ns : 1.0;
            double mtris = t.warm_ns > 0.0
                               ? static_cast<double>(t.tris) * 1000.0 /
                                     t.warm_ns
                               : 0.0;
            w.beginObject();
            w.field("bench", t.name);
            w.field("scheme", "suite");
            w.field("tris", t.tris);
            w.field("ns_frame_serial", t.cold_ns);
            w.field("ns_frame_parallel", t.warm_ns);
            w.field("mtris_per_s", mtris);
            w.field("speedup", speedup);
            w.field("frame_hash", t.hash_mix);
            w.field("cycles", t.cycles);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.finish();
        std::cout << "wrote " << out_path << "\n";
    }

    SystemConfig trace_cfg;
    trace_cfg.num_gpus = h.gpus();
    h.writeTraceSample(Scheme::ChopinCompSched, trace_cfg);
    return 0;
}
