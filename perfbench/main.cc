/**
 * @file
 * perfbench: host-time benchmark of the CHOPIN simulator.
 *
 *   perfbench --workload frame|sweep|stream --seed N --seconds S
 *             --trace 0|1 --work-dir DIR [--tiny] [--inject-mismatch]
 *
 * Prints notes (host facts, workload figures, the simulated-statistics
 * digest) and, as the last line, one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones (tracing off); with
 * --trace 1 they are the per-layer ones of the traced run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "util/simd.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace
{

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunOutput;

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: error: " << msg << "\n"
              << "usage: perfbench --workload frame|sweep|stream --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--tiny] "
                 "[--inject-mismatch]\n";
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig rc;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                rc.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                rc.seed = std::stoull(value());
            } else if (a == "--seconds") {
                rc.seconds = std::stod(value());
            } else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace must be 0 or 1");
                rc.trace = v == "1";
            } else if (a == "--work-dir") {
                rc.work_dir = value();
            } else if (a == "--tiny") {
                rc.tiny = true;
            } else if (a == "--inject-mismatch") {
                rc.inject_mismatch = true;
            } else {
                usage("unknown argument '" + a + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (rc.workload != "frame" && rc.workload != "sweep" &&
        rc.workload != "stream")
        usage("unknown workload '" + rc.workload + "'");
    if (!(rc.seconds > 0.0 && rc.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    if (rc.work_dir.empty())
        usage("--work-dir is required");
    return rc;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig rc = parseArgs(argc, argv);
    rc.jobs = std::max(1u, std::thread::hardware_concurrency());
    std::error_code ec;
    std::filesystem::create_directories(rc.work_dir, ec);
    if (ec)
        usage("cannot create --work-dir '" + rc.work_dir + "'");
    chopin::setGlobalJobs(rc.jobs);

    std::cout << "# host {\"nproc\": " << rc.jobs << ", \"simd\": \""
              << chopin::simd::kNativeBackend << "\", \"lanes\": "
              << chopin::simd::NativeLanes::width << ", \"compiler\": \""
              << compiler() << "\", \"build\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"workload\": \"" << rc.workload << "\", \"scale\": "
              << perfbench::workloadScale(rc.workload, rc.tiny)
              << ", \"gpus\": 8, \"seed\": " << rc.seed
              << ", \"trace\": " << (rc.trace ? 1 : 0)
              << ", \"tiny\": " << (rc.tiny ? 1 : 0) << "}\n";

    RunOutput out;
    if (rc.workload == "frame")
        out = perfbench::runFrameWorkload(rc);
    else if (rc.workload == "sweep")
        out = perfbench::runSweepWorkload(rc);
    else
        out = perfbench::runStreamWorkload(rc);

    for (const std::string &n : out.notes)
        std::cout << "# " << n << "\n";
    for (const std::string &f : out.checks.first_failures)
        std::cout << "# FAILED: " << f << "\n";
    std::cout << "# digest " << rc.workload << " " << out.digest.hex()
              << "\n";

    const std::vector<Metric> &metrics =
        rc.trace ? out.per_layer : out.end_to_end;
    std::cout << "# " << (rc.trace ? "per-layer (traced run)"
                                   : "end-to-end (tracing off)")
              << ":\n";
    for (const Metric &m : metrics)
        std::cout << "#   " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";

    std::string json = "{\"correct\": ";
    json += out.checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.checks.attempted);
    json += ", \"failed\": " + std::to_string(out.checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
