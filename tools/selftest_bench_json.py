#!/usr/bin/env python3
"""Regression test for tools/bench_json.py against checked-in fixtures.

bench_json.py is the CI perf gate for bench/perf_frame: --compare is the
cross-run determinism check (frame hashes / simulated cycles must match
between a --jobs=1 run and a --jobs=N run) and --min-speedup is the
scalability bound. A gate that silently stops failing is worse than no
gate, so this script proves both paths still reject bad inputs, using
fixture dumps under tests/data/bench_json/:

  run_fast.json     healthy run: gmean speedup 3.47x, raster kernel
                    2.84x, stream pipeline 2.76x
  run_slow.json     same simulation results (hashes/cycles/tris identical
                    to run_fast) but no speedup anywhere: gmean 1.02x,
                    raster 1.04x, stream 1.02x
  run_badhash.json  run_fast with one frame_hash and one cycle count
                    corrupted — what a determinism regression looks like —
                    and without the raster/stream series keys (an old
                    dump)
  run_sweep.json    a sweep_all dump: cache block with the directory's
                    byte count, peak RSS 412.3 MB
  run_chopin.json   a perf_frame dump with named scheme rows and no
                    series keys: all-rows gmean 1.27x, CHOPIN and
                    CHOPIN+CompSched rows 1.66x

Registered as the `bench_json_selftest` ctest. Usage:

  python3 tools/selftest_bench_json.py /path/to/repo
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

FAILED = 0


def runTool(root: pathlib.Path, *argv: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "tools" / "bench_json.py"), *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def expect(name: str, proc: subprocess.CompletedProcess,
           want_exit: int, want_in_output: str = "") -> None:
    global FAILED
    output = proc.stdout + proc.stderr
    problems = []
    if proc.returncode != want_exit:
        problems.append(f"exit {proc.returncode}, expected {want_exit}")
    if want_in_output and want_in_output not in output:
        problems.append(f"output lacks {want_in_output!r}")
    if problems:
        FAILED += 1
        print(f"FAIL: {name}: {'; '.join(problems)}")
        print(output.rstrip())
    else:
        print(f"ok: {name}")


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: selftest_bench_json.py <repo-root>", file=sys.stderr)
        return 2
    root = pathlib.Path(sys.argv[1]).resolve()
    data = root / "tests" / "data" / "bench_json"
    fast = str(data / "run_fast.json")
    slow = str(data / "run_slow.json")
    badhash = str(data / "run_badhash.json")

    # Plain report on a healthy dump succeeds.
    expect("report(run_fast)", runTool(root, fast),
           want_exit=0, want_in_output="geometric-mean speedup: 3.47x")

    # Determinism compare: same hashes/cycles/tris at different host speeds
    # is exactly the jobs=1 vs jobs=N case and must pass.
    expect("compare(fast, slow) identical results",
           runTool(root, fast, "--compare", slow),
           want_exit=0, want_in_output="configurations identical")

    # Corrupted hash and cycle count must fail the compare, naming both.
    proc = runTool(root, fast, "--compare", badhash)
    expect("compare(fast, badhash) rejects", proc,
           want_exit=1, want_in_output="frame_hash differs")
    expect("compare(fast, badhash) also flags cycles", proc,
           want_exit=1, want_in_output="cycles differs")

    # Speedup gate: the slow run is below the bound, the fast one above it.
    expect("min-speedup rejects run_slow",
           runTool(root, slow, "--min-speedup", "2.0"),
           want_exit=1, want_in_output="FAIL: gmean speedup")
    expect("min-speedup accepts run_fast",
           runTool(root, fast, "--min-speedup", "2.0"),
           want_exit=0, want_in_output="OK: gmean speedup")

    # The raster series (SIMD quad rasterizer vs scalar reference) is
    # gated independently of the frame gmean: run_fast carries a healthy 2.84x kernel,
    # run_slow a 1.04x one (what a vectorization regression — or a
    # forced-scalar build leaking into the gated leg — looks like).
    expect("raster series reported",
           runTool(root, fast),
           want_exit=0, want_in_output="raster kernel: sse2 x4: 2.84x")
    expect("raster min-speedup accepts run_fast",
           runTool(root, fast, "--series", "raster", "--min-speedup", "1.5"),
           want_exit=0, want_in_output="OK: raster-kernel speedup")
    expect("raster min-speedup rejects run_slow",
           runTool(root, slow, "--series", "raster", "--min-speedup", "1.5"),
           want_exit=1, want_in_output="FAIL: raster-kernel speedup")
    expect("raster gate on old dump is a hard error",
           runTool(root, badhash, "--series", "raster",
                   "--min-speedup", "1.5"),
           want_exit=1, want_in_output="missing key 'raster_speedup'")

    # The stream series (frame-stream pipeline: 16-frame hybrid AFR+SFR
    # sequence, frames simulated scenario-parallel) is the third
    # independent gate: run_fast carries a healthy 2.76x pipeline, run_slow
    # a 1.02x one (what a frame-parallelism regression looks like).
    expect("stream series reported",
           runTool(root, fast),
           want_exit=0, want_in_output="stream pipeline: 2.76x")
    expect("stream min-speedup accepts run_fast",
           runTool(root, fast, "--series", "stream", "--min-speedup", "1.5"),
           want_exit=0, want_in_output="OK: stream-pipeline speedup")
    expect("stream min-speedup rejects run_slow",
           runTool(root, slow, "--series", "stream", "--min-speedup", "1.5"),
           want_exit=1, want_in_output="FAIL: stream-pipeline speedup")
    expect("stream gate on old dump is a hard error",
           runTool(root, badhash, "--series", "stream",
                   "--min-speedup", "1.5"),
           want_exit=1, want_in_output="missing key 'stream_speedup'")

    # Dumps that predate the raster and stream series stay loadable (the
    # keys are optional); gating on an absent series is the hard error
    # checked above.
    expect("old dump without series keys still loads",
           runTool(root, badhash),
           want_exit=0, want_in_output="geometric-mean speedup")

    # The chopin series (CHOPIN's per-GPU render fan-out) is computed from
    # the per-row speedups, so a dump without any series key still
    # carries it; a dump without CHOPIN rows cannot be gated on it.
    chopin = str(data / "run_chopin.json")
    expect("chopin series reported", runTool(root, chopin),
           want_exit=0,
           want_in_output="CHOPIN-rows speedup: 1.66x gmean over 4 rows")
    expect("chopin min-speedup accepts run_chopin",
           runTool(root, chopin, "--series", "chopin",
                   "--min-speedup", "1.34"),
           want_exit=0, want_in_output="OK: CHOPIN-rows speedup 1.66x")
    expect("chopin min-speedup rejects a higher bound",
           runTool(root, chopin, "--series", "chopin",
                   "--min-speedup", "1.7"),
           want_exit=1, want_in_output="FAIL: CHOPIN-rows speedup 1.66x")
    expect("chopin gate on a dump without CHOPIN rows is a hard error",
           runTool(root, fast, "--series", "chopin",
                   "--min-speedup", "1.34"),
           want_exit=1, want_in_output="no CHOPIN or CHOPIN+CompSched rows")

    # The peak-RSS gate (sweep_all): reported with the cache directory's
    # size, accepted under the bound, rejected over it, and a hard error
    # on a dump that does not emit the key.
    sweep = str(data / "run_sweep.json")
    expect("sweep peak RSS reported", runTool(root, sweep),
           want_exit=0, want_in_output="peak RSS: 412.3 MB")
    expect("sweep cache size reported", runTool(root, sweep),
           want_exit=0, want_in_output="directory size: 2.5 MB")
    expect("max-rss-mb accepts run_sweep",
           runTool(root, sweep, "--max-rss-mb", "800"),
           want_exit=0, want_in_output="OK: peak RSS 412.3 MB")
    expect("max-rss-mb rejects run_sweep",
           runTool(root, sweep, "--max-rss-mb", "400"),
           want_exit=1, want_in_output="FAIL: peak RSS 412.3 MB")
    expect("max-rss-mb on a dump without the key is a hard error",
           runTool(root, fast, "--max-rss-mb", "800"),
           want_exit=1, want_in_output="missing key 'peak_rss_mb'")

    # Malformed input (missing top-level keys) is a hard error, not a pass.
    expect("malformed dump rejected",
           runTool(root, str(data / "run_malformed.json")),
           want_exit=1, want_in_output="missing key")

    print(f"bench_json self-test: {FAILED} failure(s)")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
