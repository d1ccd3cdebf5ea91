#include "common.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "stats/metrics.hh"
#include "stats/tracer.hh"
#include "util/check.hh"

namespace chopin::bench
{

namespace
{

/** Basename of argv[0] for "<prog>: error: ..." diagnostics. */
std::string
programName(int argc, char **argv)
{
    if (argc < 1 || argv[0] == nullptr)
        return "bench";
    std::string prog = argv[0];
    std::size_t slash = prog.find_last_of('/');
    return slash == std::string::npos ? prog : prog.substr(slash + 1);
}

SystemConfig
baseConfig(unsigned gpus)
{
    SystemConfig cfg;
    cfg.num_gpus = gpus;
    return cfg;
}

} // namespace

std::vector<FigureSpec>
figureSuite(const std::vector<std::string> &benches, unsigned gpus)
{
    std::vector<FigureSpec> figures;
    auto cross = [&](const std::string &name,
                     const std::vector<Scheme> &schemes,
                     const std::vector<SystemConfig> &cfgs) {
        FigureSpec fig{name, {}};
        for (const SystemConfig &cfg : cfgs)
            for (Scheme s : schemes)
                for (const std::string &bench : benches)
                    fig.grid.push_back(Scenario{s, bench, cfg});
        figures.push_back(std::move(fig));
    };
    // A sensitivity sweep normalized to Duplication at the base config:
    // the swept schemes at every variant, Duplication only at the base.
    auto sweepVsBase = [&](const std::string &name,
                           const std::vector<Scheme> &schemes,
                           const std::vector<SystemConfig> &cfgs) {
        cross(name, schemes, cfgs);
        for (const std::string &bench : benches)
            figures.back().grid.push_back(
                Scenario{Scheme::Duplication, bench, baseConfig(gpus)});
    };

    const std::vector<Scheme> main_schemes = {
        Scheme::Duplication,     Scheme::Gpupd, Scheme::GpupdIdeal,
        Scheme::Chopin,          Scheme::ChopinCompSched,
        Scheme::ChopinIdeal};

    // Fig. 2 / Table III: duplication across GPU counts (1 covers the
    // single-GPU geometry-fraction bars).
    {
        std::vector<SystemConfig> cfgs;
        for (unsigned g : {1u, 2u, 4u, 8u})
            cfgs.push_back(baseConfig(g));
        cross("fig02_geometry_fraction", {Scheme::Duplication}, cfgs);
    }
    // Fig. 4: GPUpd overheads across GPU counts.
    {
        std::vector<SystemConfig> cfgs;
        for (unsigned g : {2u, 4u, 8u})
            cfgs.push_back(baseConfig(g));
        cross("fig04_gpupd_overheads", {Scheme::Gpupd}, cfgs);
    }
    cross("fig05_ideal_speedup",
          {Scheme::Duplication, Scheme::Gpupd, Scheme::GpupdIdeal,
           Scheme::ChopinIdeal},
          {baseConfig(gpus)});
    cross("fig08_round_robin",
          {Scheme::Duplication, Scheme::Gpupd, Scheme::ChopinRoundRobin,
           Scheme::ChopinCompSched},
          {baseConfig(gpus)});
    cross("fig09_triangle_rate", {Scheme::SingleGpu}, {baseConfig(gpus)});
    cross("fig13_performance", main_schemes, {baseConfig(gpus)});
    cross("fig14_breakdown",
          {Scheme::Duplication, Scheme::Gpupd, Scheme::Chopin,
           Scheme::ChopinCompSched, Scheme::ChopinIdeal},
          {baseConfig(gpus)});
    cross("fig15_depth_test",
          {Scheme::Duplication, Scheme::ChopinCompSched},
          {baseConfig(gpus)});
    // Fig. 16: hypothetical-workload cull-retention sweep on ut3, or on
    // the one benchmark --bench selects.
    {
        FigureSpec fig{"fig16_culled_retention", {}};
        std::string bench =
            benches.size() == 1 ? benches[0] : std::string("ut3");
        fig.grid.push_back(
            Scenario{Scheme::Duplication, bench, baseConfig(gpus)});
        for (int pct = 0; pct <= 40; pct += 5) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.cull_retention = static_cast<double>(pct) / 100.0;
            fig.grid.push_back(
                Scenario{Scheme::ChopinCompSched, bench, cfg});
        }
        figures.push_back(std::move(fig));
    }
    cross("fig17_composition_traffic", {Scheme::ChopinCompSched},
          {baseConfig(gpus)});
    // Fig. 18: scheduler-feedback staleness sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (std::uint64_t interval : {1ull, 256ull, 512ull, 1024ull}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.sched_update_tris = interval;
            cfgs.push_back(cfg);
        }
        sweepVsBase("fig18_sched_update_freq",
                    {Scheme::Chopin, Scheme::ChopinCompSched,
                     Scheme::ChopinIdeal},
                    cfgs);
    }
    // Fig. 19: GPU-count sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (unsigned g : {2u, 4u, 8u, 16u})
            cfgs.push_back(baseConfig(g));
        cross("fig19_gpu_count", main_schemes, cfgs);
    }
    // Fig. 20: bandwidth sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (double bw : {16.0, 32.0, 64.0, 128.0}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.link.bytes_per_cycle = bw;
            cfgs.push_back(cfg);
        }
        cross("fig20_bandwidth", main_schemes, cfgs);
    }
    // Fig. 21: latency sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (Tick lat : {Tick{100}, Tick{200}, Tick{300}, Tick{400}}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.link.latency = lat;
            cfgs.push_back(cfg);
        }
        cross("fig21_latency", main_schemes, cfgs);
    }
    // Fig. 22: composition-group threshold sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (std::uint64_t thr : {256ull, 1024ull, 4096ull, 16384ull}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.group_threshold = thr;
            cfgs.push_back(cfg);
        }
        sweepVsBase("fig22_group_threshold",
                    {Scheme::Chopin, Scheme::ChopinCompSched,
                     Scheme::ChopinIdeal},
                    cfgs);
    }
    // Scheduler-traffic table (Section VI-D).
    {
        std::vector<SystemConfig> cfgs;
        for (std::uint64_t interval : {1ull, 1024ull}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.sched_update_tris = interval;
            cfgs.push_back(cfg);
        }
        cross("table_sched_traffic", {Scheme::ChopinCompSched}, cfgs);
    }
    // Ablations: composition payload, GPUpd batching, tile assignment.
    {
        std::vector<SystemConfig> cfgs;
        for (CompPayload p :
             {CompPayload::WrittenPixels, CompPayload::SubTiles,
              CompPayload::FullTiles}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.comp_payload = p;
            cfgs.push_back(cfg);
        }
        sweepVsBase("ablation_comp_payload", {Scheme::ChopinCompSched},
                    cfgs);
    }
    {
        std::vector<SystemConfig> cfgs;
        for (std::uint64_t batch : {512ull, 2048ull, 8192ull})
            for (bool runahead : {false, true}) {
                SystemConfig cfg = baseConfig(gpus);
                cfg.gpupd_batch_prims = batch;
                cfg.gpupd_runahead = runahead;
                cfgs.push_back(cfg);
            }
        sweepVsBase("ablation_gpupd_batching", {Scheme::Gpupd}, cfgs);
    }
    {
        std::vector<SystemConfig> cfgs;
        for (TileAssignment policy :
             {TileAssignment::Interleaved, TileAssignment::Blocked}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.tile_assignment = policy;
            cfgs.push_back(cfg);
        }
        cross("ablation_tile_assignment",
              {Scheme::Duplication, Scheme::Gpupd, Scheme::ChopinCompSched},
              cfgs);
    }
    return figures;
}

Harness::Harness(std::string description, int default_scale)
    : cli(description), desc(std::move(description)),
      default_scale(default_scale)
{
    cli.addFlag("scale", std::to_string(default_scale),
                "trace scale divisor (1 = full Table III size)");
    cli.addFlag("gpus", "8", "GPU count (where the figure does not sweep it)");
    cli.addFlag("bench", "all",
                "benchmark: cod2 cry grid mirror nfs stal ut3 wolf or 'all'");
    cli.addFlag("csv", "true", "print a CSV block after each table");
    cli.addFlag("jobs", "0",
                "host worker threads for the functional renderer inside one "
                "simulation (0 = CHOPIN_JOBS env or hardware concurrency; "
                "results are bit-identical at any value)");
    cli.addFlag("sweep-jobs", "0",
                "concurrent scenarios (whole simulations) executed by the "
                "sweep engine (0 = hardware concurrency, 1 = serial; inner "
                "rendering runs serial while scenarios are parallel; "
                "results are bit-identical at any value)");
    const char *cache_env = std::getenv("CHOPIN_RESULT_CACHE");
    cli.addFlag("cache", cache_env == nullptr ? "" : cache_env,
                "on-disk result cache directory shared across harnesses "
                "(default: CHOPIN_RESULT_CACHE env; empty = disabled)");
}

Harness::~Harness() = default;

void
Harness::addTraceOutFlag()
{
    cli.addFlag("trace-out", "",
                "write a Chrome trace-event JSON timeline of one sample "
                "scenario (open in Perfetto or chrome://tracing; "
                "empty = off)");
    trace_out_flag = true;
}

void
Harness::parse(int argc, char **argv)
{
    // Malformed arguments produce a "<prog>: error: ..." line and exit
    // code 2 instead of wrapping through unsigned conversions or aborting
    // deep inside the library.
    setCliCheckTool(programName(argc, argv));
    cli.parse(argc, argv);

    long scale = cli.getInt("scale");
    CHOPIN_CHECK(scale >= 1 && scale <= 1000000,
                 "--scale must be in [1, 1000000], got ", scale);
    scale_div = static_cast<int>(scale);

    long gpus_raw = cli.getInt("gpus");
    CHOPIN_CHECK(gpus_raw >= 1 && gpus_raw <= 256,
                 "--gpus must be in [1, 256], got ", gpus_raw);
    gpu_count = static_cast<unsigned>(gpus_raw);

    long jobs = cli.getInt("jobs");
    CHOPIN_CHECK(jobs >= 0 && jobs <= 1024,
                 "--jobs must be in [0, 1024], got ", jobs);
    setGlobalJobs(static_cast<unsigned>(jobs));

    long sweep_jobs = cli.getInt("sweep-jobs");
    CHOPIN_CHECK(sweep_jobs >= 0 && sweep_jobs <= 1024,
                 "--sweep-jobs must be in [0, 1024], got ", sweep_jobs);

    // Output paths fail fast, before any simulation runs.
    if (trace_out_flag) {
        std::string trace_out = cli.getString("trace-out");
        if (!trace_out.empty())
            checkWritablePath(trace_out, "--trace-out");
    }

    std::string bench = cli.getString("bench");
    if (bench == "all") {
        for (const BenchmarkProfile &p : allBenchmarkProfiles())
            benches.push_back(p.name);
    } else {
        benchmarkProfile(bench); // validates the name
        benches.push_back(bench);
    }

    SweepOptions opts;
    opts.sweep_jobs = static_cast<unsigned>(sweep_jobs);
    opts.scale = scale_div;
    opts.cache_dir = cli.getString("cache");
    sweep = std::make_unique<SweepRunner>(opts);

    std::cout << "# " << desc << "\n# scale divisor: " << scale_div
              << (scale_div == 1 ? " (full Table III trace sizes)" : "")
              << "\n\n";
}

const FrameTrace &
Harness::trace(const std::string &bench)
{
    CHOPIN_CHECK(sweep != nullptr, "Harness::trace() before parse()");
    return sweep->trace(bench);
}

void
Harness::prefetch(const std::string &name)
{
    CHOPIN_CHECK(sweep != nullptr, "Harness::prefetch() before parse()");
    for (const FigureSpec &fig : figureSuite(benches, gpu_count)) {
        if (fig.name == name) {
            figure = name;
            sweep->prefetch(fig.grid);
            return;
        }
    }
    CHOPIN_CHECK(false, "no figureSuite() entry is named '", name, "'");
}

const FrameResult &
Harness::run(Scheme scheme, const std::string &bench,
             const SystemConfig &cfg)
{
    CHOPIN_CHECK(!figure.empty(), "Harness::run() before prefetch()");
    std::uint64_t hits = sweep->stats().memo_hits;
    const FrameResult &r = sweep->run(scheme, bench, cfg);
    CHOPIN_CHECK(sweep->stats().memo_hits == hits + 1, toString(scheme),
                 " on ", bench, " at ", cfg.num_gpus,
                 " GPUs is not in the grid this harness prefetched ('",
                 figure, "' in figureSuite())");
    return r;
}

void
Harness::emit(const TextTable &table) const
{
    table.print(std::cout);
    if (cli.getBool("csv")) {
        std::cout << "\ncsv:\n";
        table.printCsv(std::cout);
    }
    std::cout << "\n";
}

void
Harness::writeTraceSample(Scheme scheme, const SystemConfig &cfg)
{
    std::string path = cli.getString("trace-out");
    if (path.empty())
        return;
    CHOPIN_CHECK(!benches.empty(), "--trace-out needs a benchmark");
    Tracer tracer;
    // Direct runScheme on purpose: a sweep-engine hit would return a
    // cached FrameResult with no spans recorded. (No suppression needed:
    // bench/common.* is the harness layer the rule exempts.)
    FrameResult r = runScheme(
        scheme, cfg, trace(benches.front()), &tracer);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    CHOPIN_CHECK(os.good(), "cannot write '", path, "'");
    tracer.exportChromeJson(os);
    os.flush();
    CHOPIN_CHECK(os.good(), "error while writing '", path, "'");
    std::cout << "# wrote " << path << " (" << tracer.spanCount()
              << " spans, " << toString(scheme) << " on "
              << benches.front() << ", " << r.num_gpus << " GPUs)\n";
}

double
gmean(const std::vector<double> &values)
{
    CHOPIN_CHECK(!values.empty());
    double log_sum = 0.0;
    for (double v : values) {
        CHOPIN_CHECK(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
percent(double ratio)
{
    return formatDouble(ratio * 100.0, 1) + "%";
}

void
checkIdentical(const FrameResult &a, const FrameResult &b,
               const std::string &what)
{
    CHOPIN_CHECK(a.scheme == b.scheme, what, ": scheme differs");
    const FrameAccounting &fa = a;
    const FrameAccounting &fb = b;
    if (!metricsEqual(fa, fb)) {
        std::string names;
        for (const std::string &n : metricsDiff(fa, fb))
            names += (names.empty() ? "" : ", ") + n;
        CHOPIN_CHECK(false, what, ": metrics differ: ", names);
    }
    CHOPIN_CHECK(a.draw_timings.size() == b.draw_timings.size(), what,
                 ": draw-timing record count differs");
    for (std::size_t i = 0; i < a.draw_timings.size(); ++i)
        CHOPIN_CHECK(metricsEqual(a.draw_timings[i], b.draw_timings[i]),
                     what, ": draw timing record ", i, " differs");
}

} // namespace chopin::bench
