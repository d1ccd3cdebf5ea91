#!/usr/bin/env python3
"""Pretty-print and validate bench JSON dumps (perf_frame, sweep_all).

Reads the JSON summary a wall-clock harness writes, prints a compact
per-(benchmark, scheme) report and the geometric-mean speedup, and can gate
CI:

  python3 tools/bench_json.py BENCH_frame.json
  python3 tools/bench_json.py BENCH_sweep.json --min-speedup 3.0
  python3 tools/bench_json.py BENCH_sweep.json --max-rss-mb 400
  python3 tools/bench_json.py BENCH_frame.json --series raster --min-speedup 1.5
  python3 tools/bench_json.py BENCH_frame.json --series chopin --min-speedup 1.34
  python3 tools/bench_json.py new.json --compare old.json

Both producers share the contract: top-level `results` / `gmean_speedup` /
`jobs_parallel`, per-result `bench, scheme, tris, ns_frame_serial,
ns_frame_parallel, mtris_per_s, speedup, frame_hash, cycles`. sweep_all
additionally emits the process's `peak_rss_mb` and a `cache` block (hit
rates, per-phase counters and the cache directory's `dir_bytes`), which
are reported when present. perf_frame additionally emits the
quad-rasterizer series (`raster_speedup`, `raster_ns_per_pixel`,
`raster_ns_per_pixel_scalar`, `raster_pixels`, `raster_backend`,
`raster_width`) and the frame-stream series (`stream_speedup`,
`stream_frames`, `stream_frames_per_s`, `stream_frames_per_mcycle`,
`stream_micro_stutter`, `stream_sequence_hash`); these keys are optional
so older dumps stay valid. perf_frame --stream-out writes a standalone
stream dump (one row per stream scheme, frame_hash = sequence hash,
cycles = stream makespan) under the same top-level contract, so every
mode here — report, gates, --compare — works on it unchanged.

--min-speedup fails (exit 1) when the selected speedup series is below the
bound. --series picks which one: `gmean` (default) is the geometric-mean
--jobs=N over --jobs=1 frame-rendering speedup, `raster` is the SIMD-over-scalar
ns/pixel ratio of the quad rasterizer (the harness asserts the two paths
emitted bit-identical fragments before computing it), `stream` is the
frame-stream pipeline's serial-over-parallel ratio on a 16-frame hybrid
AFR+SFR sequence (the harness asserts every registered stream metric,
including the sequence hash, is bit-identical between the legs), and
`chopin` is the geometric mean of `speedup` over the CHOPIN and
CHOPIN+CompSched rows, i.e. what CHOPIN's per-GPU render fan-out buys.
chopin is computed from `results`, so any perf_frame dump carries it.
gmean, stream and chopin are only meaningful on multi-core machines; the
harness itself already asserts bit-identical simulation results at every
job count, which is the correctness gate.

--max-rss-mb fails (exit 1) when the dump's `peak_rss_mb` exceeds the
bound, and is a hard error on a dump without that key. On sweep_all it
keeps retained results small: a result that carried pixels again would
multiply the peak.

--compare checks that frame hashes and simulated cycle counts of matching
(bench, scheme) pairs are identical between two runs — e.g. a --jobs=1 run
against a --jobs=N run, or today's run against a stored baseline.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


# --series name -> (JSON key holding the speedup, human label).
SERIES = {
    "gmean": ("gmean_speedup", "gmean speedup"),
    "raster": ("raster_speedup", "raster-kernel speedup"),
    "stream": ("stream_speedup", "stream-pipeline speedup"),
}

# --series chopin averages the `speedup` of these schemes' rows.
CHOPIN_SCHEMES = ("CHOPIN", "CHOPIN+CompSched")
CHOPIN_LABEL = "CHOPIN-rows speedup"


def chopin_gmean(data: dict) -> tuple[float, int] | None:
    """Geometric-mean `speedup` over the CHOPIN_SCHEMES rows, with the row
    count; None when the dump has no such row."""
    logs = [math.log(r["speedup"]) for r in data["results"]
            if r["scheme"] in CHOPIN_SCHEMES]
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs)), len(logs)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    for key in ("results", "gmean_speedup", "jobs_parallel"):
        if key not in data:
            sys.exit(f"{path}: missing key '{key}' (not a bench dump?)")
    return data


def report(data: dict) -> None:
    jobs = data["jobs_parallel"]
    tool = "sweep_all" if "cache" in data else "perf_frame"
    print(f"# {tool}: scale={data.get('scale', '?')} "
          f"gpus={data.get('gpus', '?')} jobs={jobs} "
          f"repeat={data.get('repeat', '?')}")
    header = (f"{'benchmark':<10} {'scheme':<18} {'ktris':>8} "
              f"{'ns j1':>12} {'ns j' + str(jobs):>12} "
              f"{'Mtris/s':>9} {'speedup':>8}")
    print(header)
    print("-" * len(header))
    for r in data["results"]:
        print(f"{r['bench']:<10} {r['scheme']:<18} "
              f"{r['tris'] // 1000:>8} "
              f"{r['ns_frame_serial']:>12.0f} "
              f"{r['ns_frame_parallel']:>12.0f} "
              f"{r['mtris_per_s']:>9.2f} "
              f"{r['speedup']:>7.2f}x")
    print(f"\ngeometric-mean speedup: {data['gmean_speedup']:.2f}x")
    chopin = chopin_gmean(data)
    if chopin is not None:
        print(f"{CHOPIN_LABEL}: {chopin[0]:.2f}x gmean over {chopin[1]} rows")
    if "peak_rss_mb" in data:
        print(f"peak RSS: {data['peak_rss_mb']:.1f} MB")
    if "raster_speedup" in data:
        print(f"raster kernel: {data.get('raster_backend', '?')} "
              f"x{data.get('raster_width', '?')}: "
              f"{data['raster_speedup']:.2f}x speedup "
              f"({data.get('raster_ns_per_pixel_scalar', 0.0):.2f} -> "
              f"{data.get('raster_ns_per_pixel', 0.0):.2f} ns/px)")
    if "stream_speedup" in data:
        print(f"stream pipeline: {data['stream_speedup']:.2f}x speedup "
              f"({data.get('stream_frames', '?')} frames, "
              f"{data.get('stream_frames_per_s', 0.0):.1f} frames/s, "
              f"micro-stutter "
              f"{data.get('stream_micro_stutter', 0.0):.1f} cycles)")
    cache = data.get("cache")
    if cache:
        print(f"result cache: dir={cache.get('dir', '?')} "
              f"warm hit rate {cache.get('warm_hit_rate', 0.0) * 100:.1f}%")
        if "dir_bytes" in cache:
            print(f"  directory size: {cache['dir_bytes'] / 1e6:.1f} MB")
        for phase in ("cold", "warm"):
            s = cache.get(phase)
            if s:
                print(f"  {phase}: computed={s.get('computed', 0)} "
                      f"memo={s.get('memo_hits', 0)} "
                      f"disk={s.get('disk_hits', 0)} "
                      f"rejected={s.get('disk_rejected', 0)} "
                      f"stored={s.get('stored', 0)}")


def compare(data: dict, baseline: dict) -> int:
    """Cross-run determinism check; returns the number of mismatches."""
    def key(r: dict) -> tuple:
        return (r["bench"], r["scheme"])

    base = {key(r): r for r in baseline["results"]}
    mismatches = 0
    for r in data["results"]:
        b = base.get(key(r))
        if b is None:
            print(f"compare: {key(r)} missing from baseline", file=sys.stderr)
            mismatches += 1
            continue
        for field in ("frame_hash", "cycles", "tris"):
            if r[field] != b[field]:
                print(f"compare: {key(r)}: {field} differs "
                      f"({r[field]} != {b[field]})", file=sys.stderr)
                mismatches += 1
    if mismatches == 0:
        print(f"compare: {len(data['results'])} configurations identical "
              "(frame_hash, cycles, tris)")
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path", help="BENCH_frame.json from perf_frame")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the selected speedup series is below "
                             "this bound")
    parser.add_argument("--series", choices=(*SERIES, "chopin"),
                        default="gmean",
                        help="which speedup series --min-speedup gates: "
                             "frame-rendering gmean, the SIMD quad "
                             "rasterizer, the frame-stream pipeline, or "
                             "the CHOPIN rows' gmean (default: gmean)")
    parser.add_argument("--max-rss-mb", type=float, default=None,
                        help="fail if the dump's peak_rss_mb exceeds this "
                             "bound")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="check hashes/cycles against another dump")
    args = parser.parse_args()

    data = load(args.json_path)
    report(data)

    status = 0
    if args.compare is not None:
        if compare(data, load(args.compare)) != 0:
            status = 1
    if args.min_speedup is not None:
        if args.series == "chopin":
            label = CHOPIN_LABEL
            chopin = chopin_gmean(data)
            if chopin is None:
                sys.exit(f"{args.json_path}: no "
                         f"{' or '.join(CHOPIN_SCHEMES)} rows "
                         "(--series chopin needs them)")
            g = chopin[0]
        else:
            key, label = SERIES[args.series]
            if key not in data:
                sys.exit(f"{args.json_path}: missing key '{key}' "
                         f"(--series {args.series} needs a dump that "
                         "emits it)")
            g = data[key]
        if g < args.min_speedup:
            print(f"FAIL: {label} {g:.2f}x < required "
                  f"{args.min_speedup:.2f}x", file=sys.stderr)
            status = 1
        else:
            print(f"OK: {label} {g:.2f}x >= {args.min_speedup:.2f}x")
    if args.max_rss_mb is not None:
        if "peak_rss_mb" not in data:
            sys.exit(f"{args.json_path}: missing key 'peak_rss_mb' "
                     "(--max-rss-mb needs a dump that emits it)")
        rss = data["peak_rss_mb"]
        if rss > args.max_rss_mb:
            print(f"FAIL: peak RSS {rss:.1f} MB > allowed "
                  f"{args.max_rss_mb:.1f} MB", file=sys.stderr)
            status = 1
        else:
            print(f"OK: peak RSS {rss:.1f} MB <= {args.max_rss_mb:.1f} MB")
    return status


if __name__ == "__main__":
    sys.exit(main())
