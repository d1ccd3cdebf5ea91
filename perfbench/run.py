#!/usr/bin/env python3
"""Build and run the CHOPIN host-time benchmark.

    python3 perfbench/run.py --workload frame|sweep|stream --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The simulator libraries (../src) and the perfbench binary are built from
source with CMake (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, under the repository root. Build output goes to
stderr; the binary's stdout is passed through unchanged, so the last line
is the JSON result. See perfbench/README.md for what is measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("frame", "sweep", "stream")


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configure (once) and build the binary; False on any failure."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_binary(binary, work_dir, workload, seed, seconds, trace, extra=()):
    """Run the binary once; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def digest_of(lines):
    for line in lines:
        if line.startswith("# digest "):
            return line.split()[-1]
    return None


def self_test(binary, work_dir):
    """Tiny-input checks of the benchmark itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        digests = []
        for trace, table in ((0, "end_to_end"), (1, "per_layer"), (0, None)):
            code, lines = run_binary(binary, work_dir, w, 7, 0.5, trace,
                                     ["--tiny"])
            res = result_of(lines) if code == 0 else None
            if res is None:
                problems.append(f"{w} trace={trace}: exit {code}")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: checks failed")
            digests.append(digest_of(lines))
            for m in spec[table] if table else ():
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w}: metric {m['name']} missing or "
                                    f"not in {m['unit']}")
        if len(set(digests)) != 1 or None in digests:
            problems.append(f"{w}: same seed gave different digests "
                            f"{digests}")
        code, lines = run_binary(binary, work_dir, w, 7, 0.5, 0,
                                 ["--tiny", "--inject-mismatch"])
        res = result_of(lines) if code == 0 else None
        if res is None or res["failed"] == 0 or res["correct"]:
            problems.append(f"{w}: an injected hash mismatch was not caught")
        print(f"self-test {w}: "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    work_dir = os.path.join(root, "work")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    if args.self_test:
        return self_test(binary, work_dir)
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
