#!/usr/bin/env python3
"""Repo lint v2: simulator-specific source rules for the CHOPIN code base.

A rule-registry framework: every rule is declared once (name, summary,
path scope, matcher, fix hint) and the driver handles comment/string
stripping, suppressions, reporting, JSON output and the self-test.

Rules (run `--list-rules` for the live registry, `--fix-hints` for the
remediation recipe of each finding):

  rng           No rand()/srand()/std::random_device/drand48 outside
                src/util/rng.* — all randomness flows through the seeded
                chopin::Rng so simulations stay reproducible.
  wallclock     No wall-clock sources (std::chrono clocks, gettimeofday,
                clock()) in src/sim and src/sfr — simulated time is the
                only clock the timing model may observe.
  hosttime      No host time()/date or locale calls anywhere in src/ —
                formatting and hashing must not depend on when or where
                the simulator runs.
  tick-float    No implicit float/double -> Tick conversions, and no
                C-style (Tick)/(float)/(double) casts in src/ —
                truncation must be explicit and reviewable.
  thread        No raw threading primitives (std::thread, std::jthread,
                std::async, pthread_create) outside src/util/thread_pool.*
                — all host parallelism flows through
                ThreadPool::parallelFor.
  unordered     No std::unordered_{map,set,...} in src/ — hash-table
                iteration order is implementation-defined and would feed
                schedule- or libc-dependent order into stats, hashes and
                timing. Use std::map / sorted vectors.
  global-state  No mutable file-scope / function-static / thread_local
                state outside src/util/ — hidden cross-draw state breaks
                the "results are a pure function of (trace, config)"
                contract. The sanctioned exceptions live in util/ (global
                thread pool) and gfx/renderer.cc (per-thread scratch,
                suppressed explicitly).
  naked-sync    No naked std::mutex/std::atomic/std::condition_variable
                declarations outside src/util/ — use the annotated
                chopin::Mutex/LockGuard wrappers (thread_annotations.hh)
                or attach CHOPIN_GUARDED_BY so clang's thread-safety
                analysis can see the capability.
  bench-runscheme
                No direct runScheme() calls in bench/ outside the harness
                / sweep layer (bench/common.*) — benchmark harnesses route
                simulations through bench::Harness::run()/prefetch() so
                every result is fingerprint-memoized and shareable through
                the on-disk result cache. perf_frame's intentional direct
                timing calls carry explicit suppressions.
  bench-stats-print
                No ad-hoc streaming of FrameResult counter fields in
                bench/ outside the harness layer — report output flows
                through the metric registry serializers (TextTable /
                JsonWriter / writeMetricsJson in stats/report.hh) so every
                harness emits one schema instead of hand-rolled prints.

  trace-version No raw trace-format magic/version literals outside
                src/trace/trace_io.cc — the on-disk constants (magic
                0x43484f50, traceVersionFrame, traceVersionSequence) have
                exactly one home so a format bump is a one-file change and
                every loader/upgrader dispatches off the same values.

  raw-simd      No vendor SIMD intrinsics, vector types or intrinsic
                headers outside src/util/simd.hh — the rasterizer's
                determinism contract (DESIGN.md §14) holds because every
                vector backend goes through the one audited Lanes layer;
                a stray _mm_* call elsewhere would not be covered by the
                scalar-vs-SIMD bit-equality sweep.

  stale-allow   Every `// chopin-lint: allow(...)` must still be doing
                work: naming a rule that exists, applies to the file, and
                fires on that line. Suppressions outlive refactors; this
                rule flags the leftovers so the allow-list stays an exact
                map of the accepted exceptions.

Suppressions: append `// chopin-lint: allow(<rule>[, <rule>...])` to the
offending line with a comment justifying it (the legacy spelling
`// lint:allow(...)` is still honored). A prophylactic suppression that
must survive refactors can carry `stale-allow` itself in the rule list.

Usage:

  python3 tools/lint_check.py REPO_ROOT [--json report.json] [--fix-hints]
  python3 tools/lint_check.py --self-test
  python3 tools/lint_check.py --list-rules

Exit codes: 0 clean, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys
from typing import Callable, Optional

SRC_EXTENSIONS = {".cc", ".hh", ".cpp"}

# Directories scanned relative to the repo root. Rules scope themselves by
# relative path, so src/-only rules never fire on bench/ files.
SCAN_DIRS = ("src", "bench")

# --- suppression ----------------------------------------------------------

ALLOW_RE = re.compile(
    r"//\s*(?:chopin-lint:\s*allow|lint:allow)\((?P<rules>[\w,\- ]+)\)")


def allowed(comment: str, rule: str) -> bool:
    m = ALLOW_RE.search(comment)
    return bool(m) and rule in [r.strip() for r in m.group("rules").split(",")]


# --- comment / string stripping ------------------------------------------


def strip_comments_and_strings(line: str,
                               in_block: bool) -> tuple[str, str, bool]:
    """Return (code, comment, in_block) with literals blanked out."""
    out = []
    comment = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end == -1:
                comment.append(line[i:])
                i = n
            else:
                comment.append(line[i:end + 2])
                i = end + 2
                in_block = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            comment.append(line[i:])
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), "".join(comment), in_block


# --- rule registry --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    summary: str
    fix_hint: str
    applies: Callable[[str], bool]          # rel path -> in scope?
    check: Callable[[str], Optional[str]]   # stripped code -> message


def in_src(rel: str) -> bool:
    return rel.startswith("src/")


def in_sim_or_sfr(rel: str) -> bool:
    return rel.startswith(("src/sim/", "src/sfr/"))


def outside_util(rel: str) -> bool:
    return in_src(rel) and not rel.startswith("src/util/")


def in_bench_outside_harness(rel: str) -> bool:
    """bench/ harness sources, excluding the Harness/sweep layer itself."""
    return rel.startswith("bench/") and not rel.startswith("bench/common.")


RNG_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|drand48|random_device)\s*\(|"
    r"std::random_device\b")
WALLCLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b|"
    r"(?<![\w:.])(?:gettimeofday|clock)\s*\(")
HOSTTIME_RE = re.compile(
    r"(?<![\w:.])(?:time|localtime|gmtime|strftime|asctime|ctime|"
    r"setlocale)\s*\(|"
    r"\bstd::locale\b|\.imbue\s*\(")
TICK_ASSIGN_RE = re.compile(r"\bTick\s+\w+\s*=\s*(?P<rhs>[^;]*);")
FLOATING_RE = re.compile(r"\d\.\d|\b(?:float|double)\b|\.0f\b")
CSTYLE_CAST_RE = re.compile(r"\(\s*(?:Tick|float|double)\s*\)\s*[\w(]")
THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread|async)\b|\bpthread_create\s*\(")
UNORDERED_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
GLOBAL_STATE_RE = re.compile(r"^\s*(?:static|thread_local)\s")
NAKED_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|atomic)\b")
RUNSCHEME_RE = re.compile(r"\brunScheme\s*\(")
# Streaming a registered counter field directly (`<< r.cycles`), including
# continuation lines of a multi-line `std::cout << ...` statement.
STATS_PRINT_RE = re.compile(
    r"<<.*\.(?:cycles|frame_hash|content_hash|traffic|breakdown|totals|"
    r"geom_busy|raster_busy|frag_busy|sched_status_bytes|groups_total|"
    r"groups_distributed|tris_distributed|retained_culled)\b")
# Vendor SIMD surface: x86 intrinsic calls (_mm_/_mm256_/_mm512_), x86
# vector types (__m128 etc.), NEON vector types (float32x4_t etc.) and the
# intrinsic headers themselves.
RAW_SIMD_RE = re.compile(
    r"\b_mm\d*_\w+|"
    r"\b__m(?:64|128|256|512)[di]?\b|"
    r"\b(?:float|int|uint|poly)(?:8|16|32|64)x\d+_t\b|"
    r"#\s*include\s*<(?:[a-z]*mmintrin|immintrin|x86intrin|arm_neon|"
    r"arm_acle)\.h>")
# The trace magic ("CHOP" as a little-endian u32) in any case, or a literal
# (re)definition of the format constants that live in trace_io.cc.
TRACE_VERSION_RE = re.compile(
    r"0[xX]43484[fF]50\b|"
    r"\btrace(?:Magic|Version\w*)\s*=\s*\d")


def check_rng(code: str) -> Optional[str]:
    if RNG_RE.search(code):
        return "raw randomness source; use chopin::Rng (src/util/rng.hh)"
    return None


def check_wallclock(code: str) -> Optional[str]:
    if WALLCLOCK_RE.search(code):
        return ("wall-clock / host-time source in the timing model; only "
                "simulated Ticks may drive it")
    return None


def check_hosttime(code: str) -> Optional[str]:
    if HOSTTIME_RE.search(code):
        return ("host time()/date or locale dependence in src/; simulator "
                "output must not vary with run time or host locale")
    return None


def check_tick_float(code: str) -> Optional[str]:
    m = TICK_ASSIGN_RE.search(code)
    if m and FLOATING_RE.search(m.group("rhs")) and \
            "static_cast" not in m.group("rhs"):
        return ("floating expression assigned to a Tick without "
                "static_cast<Tick>(...)")
    if CSTYLE_CAST_RE.search(code):
        return ("C-style cast involving Tick/float/double; use static_cast")
    return None


def check_thread(code: str) -> Optional[str]:
    if THREAD_RE.search(code):
        return ("raw threading primitive; use ThreadPool::parallelFor "
                "(src/util/thread_pool.hh)")
    return None


def check_unordered(code: str) -> Optional[str]:
    if UNORDERED_RE.search(code):
        return ("unordered container in src/; iteration order is "
                "implementation-defined and feeds nondeterminism into "
                "stats/hashes/timing")
    return None


def check_global_state(code: str) -> Optional[str]:
    if not GLOBAL_STATE_RE.match(code):
        return None
    # Immutable or non-variable declarations are fine.
    if re.search(r"\b(?:constexpr|consteval|static_assert)\b", code):
        return None
    if re.search(r"\bstatic\s+(?:const|inline\s+const)\b", code):
        return None
    # Heuristic: a variable declaration carries `;` or `=`; a `(` before
    # any `=` means this line declares/defines a function instead.
    if ";" not in code and "=" not in code:
        return None
    eq = code.find("=")
    paren = code.find("(")
    if paren != -1 and (eq == -1 or paren < eq):
        return None
    return ("mutable static / thread_local state outside util/; results "
            "must be a pure function of (trace, config) — pass state "
            "explicitly or move the cache into util/ with a determinism "
            "argument")


def check_bench_runscheme(code: str) -> Optional[str]:
    if RUNSCHEME_RE.search(code):
        return ("direct runScheme() call in a bench harness; route it "
                "through bench::Harness::run()/prefetch() (the sweep "
                "engine) so the result is fingerprint-memoized and shared "
                "via the on-disk result cache")
    return None


def check_bench_stats_print(code: str) -> Optional[str]:
    if STATS_PRINT_RE.search(code):
        return ("ad-hoc print of a registered counter field; emit it "
                "through TextTable / JsonWriter / writeMetricsJson "
                "(stats/report.hh) so the field stays inside the metric "
                "registry schema")
    return None


def check_trace_version(code: str) -> Optional[str]:
    if TRACE_VERSION_RE.search(code):
        return ("raw trace magic/version literal outside trace_io.cc; the "
                "on-disk format constants have exactly one home so a "
                "version bump stays a one-file change")
    return None


def check_raw_simd(code: str) -> Optional[str]:
    if RAW_SIMD_RE.search(code):
        return ("vendor SIMD intrinsic/type/header outside util/simd.hh; "
                "vector code must go through the Lanes policies so the "
                "scalar-vs-SIMD bit-equality sweep covers it")
    return None


def check_naked_sync(code: str) -> Optional[str]:
    if NAKED_SYNC_RE.search(code) and "CHOPIN_GUARDED_BY" not in code and \
            "CHOPIN_PT_GUARDED_BY" not in code:
        return ("naked synchronization primitive; use chopin::Mutex / "
                "chopin::LockGuard (util/thread_annotations.hh) or annotate "
                "the declaration with CHOPIN_GUARDED_BY so the clang "
                "thread-safety analysis tracks it")
    return None


RULES = [
    Rule("rng",
         "seeded chopin::Rng is the only randomness source",
         "replace with chopin::Rng drawn from the trace/config seed "
         "(src/util/rng.hh); plumb an Rng& parameter rather than "
         "constructing ad hoc",
         lambda rel: in_src(rel) and not rel.startswith("src/util/rng"),
         check_rng),
    Rule("wallclock",
         "timing model observes simulated Ticks only",
         "derive the value from EventQueue::now() or a Tick parameter; "
         "wall-clock measurement belongs in bench/ harnesses",
         in_sim_or_sfr,
         check_wallclock),
    Rule("hosttime",
         "no host time()/locale dependence in src/",
         "drop the call or move it to tools/bench code outside src/; "
         "timestamps in reports come from the harness, not the libraries",
         in_src,
         check_hosttime),
    Rule("tick-float",
         "float -> Tick conversions must be explicit",
         "wrap the expression in static_cast<Tick>(...) and check the "
         "rounding direction against the timing model's conventions",
         in_src,
         check_tick_float),
    Rule("thread",
         "host parallelism flows through ThreadPool::parallelFor",
         "express the parallel region as ThreadPool::parallelFor over "
         "pre-sized output slots (src/util/thread_pool.hh); raw threads "
         "bypass the determinism contract",
         lambda rel: in_src(rel) and
         not rel.startswith("src/util/thread_pool"),
         check_thread),
    Rule("unordered",
         "no unordered containers in src/",
         "use std::map/std::set (ordered iteration) or a vector sorted by "
         "an explicit deterministic key",
         in_src,
         check_unordered),
    Rule("global-state",
         "no mutable file-scope/static/thread_local state outside util/",
         "pass the state through a context struct or function parameter; "
         "if it is genuinely process-wide (a pool, an interner), move it "
         "to util/ and document why it cannot affect simulation results",
         outside_util,
         check_global_state),
    Rule("naked-sync",
         "sync primitives outside util/ must be annotated wrappers",
         "declare chopin::Mutex and guard members with "
         "CHOPIN_GUARDED_BY(mutex); lock via chopin::LockGuard so "
         "-Werror=thread-safety verifies every access path",
         outside_util,
         check_naked_sync),
    Rule("bench-runscheme",
         "bench harnesses run simulations through Harness::run()",
         "replace runScheme(scheme, cfg, trace) with "
         "h.run(scheme, bench, cfg) (or h.prefetch(grid) up front); if the "
         "direct call is intentional (e.g. wall-clock measurement of the "
         "computation itself), append "
         "`// chopin-lint: allow(bench-runscheme)` with a justification",
         in_bench_outside_harness,
         check_bench_runscheme),
    Rule("trace-version",
         "trace-format magic/version literals live only in "
         "src/trace/trace_io.cc",
         "reference the loaders/savers in trace/trace_io.hh instead of "
         "restating the constants; code that must forge a header (e.g. a "
         "corruption test) should patch the bytes of a saved file rather "
         "than rebuild one from raw literals",
         lambda rel: (in_src(rel) or rel.startswith("bench/")) and
         rel != "src/trace/trace_io.cc",
         check_trace_version),
    Rule("raw-simd",
         "vendor SIMD lives only in src/util/simd.hh",
         "express the operation through a Lanes policy (broadcast/add/mul/"
         "cmpGt/cmpEq/store in src/util/simd.hh) or add the missing "
         "primitive to every backend there, including the scalar reference, "
         "so tests/gfx/raster_simd_test.cc keeps the bit-equality guarantee",
         lambda rel: (in_src(rel) or rel.startswith("bench/")) and
         rel != "src/util/simd.hh",
         check_raw_simd),
    Rule("bench-stats-print",
         "bench counter output flows through the registry serializers",
         "route the value through TextTable rows or JsonWriter fields "
         "(stats/report.hh); for a full accounting dump use "
         "writeMetricsJson over the FrameAccounting registry instead of "
         "streaming individual fields",
         in_bench_outside_harness,
         check_bench_stats_print),
]


# --- stale-allow ----------------------------------------------------------
# Not a Rule: it inspects the suppression comment against the *other*
# rules' outcomes on the same line, which the (code)->message signature
# cannot express.

STALE_RULE = "stale-allow"
STALE_SUMMARY = "every chopin-lint suppression still matches a diagnostic"
STALE_FIX_HINT = ("delete the stale `// chopin-lint: allow(...)` comment "
                  "(or the one rule name in it that no longer fires); if "
                  "the suppression is intentionally prophylactic, add "
                  "'stale-allow' to its rule list with a justification")


def stale_allow_findings(rel: str, code: str, comment: str) -> list[str]:
    """Messages for suppressions on this line that no longer do work."""
    m = ALLOW_RE.search(comment)
    if not m:
        return []
    names = [r.strip() for r in m.group("rules").split(",") if r.strip()]
    if STALE_RULE in names:
        return []  # explicitly prophylactic
    known = {r.name for r in RULES}
    fired = {r.name for r in RULES if r.applies(rel) and r.check(code)}
    out = []
    for name in names:
        if name not in known:
            out.append(f"suppression names unknown rule '{name}'")
        elif name not in fired:
            out.append(
                f"stale suppression: rule '{name}' does not fire on this "
                f"line (out of scope for {rel} or no longer matching)")
    return out


# --- stale-analyzer-baseline ----------------------------------------------
# Also not a Rule: it reads tools/analyzer/baseline.json (the accepted
# chopin-analyze findings) and checks each entry still points at live
# code. Baseline entries are keyed by qualified function name, so a
# refactor that renames or deletes the host function leaves a dead entry
# that would silently mask a future finding with the same key.

BASELINE_RULE = "stale-analyzer-baseline"
BASELINE_SUMMARY = ("every chopin-analyze baseline entry still names an "
                    "existing file and function")
BASELINE_FIX_HINT = ("delete the dead entry from tools/analyzer/"
                     "baseline.json (or run chopin_analyze.py "
                     "--update-baseline after confirming the tree is "
                     "clean); baselines must shrink with the code they "
                     "excuse")

BASELINE_REL = "tools/analyzer/baseline.json"

_QUAL_SENTINEL = "\x00"


def _baseline_host(key: str) -> str:
    """The qualified function name prefix of a finding key.

    Keys look like `ns::Class::fn:callee#0` or `ns::fn:<kind>:capture` —
    the host ends at the first `:` that is not part of a `::`.
    """
    return key.replace("::", _QUAL_SENTINEL).split(":", 1)[0] \
              .replace(_QUAL_SENTINEL, "::")


def stale_baseline_msgs(entries: list[dict],
                        read_rel) -> list[dict]:
    """Violations for baseline entries whose anchor code vanished.

    @p read_rel maps a repo-relative path to file text or None when the
    file does not exist (injected so the self-test runs without a tree).
    """
    out = []
    for e in entries:
        rel, key = e.get("file", ""), e.get("key", "")
        text = read_rel(rel)
        if text is None:
            out.append({"file": BASELINE_REL, "line": 1,
                        "rule": BASELINE_RULE,
                        "message": f"baseline entry [{e.get('rule')}] "
                                   f"references missing file {rel}"})
            continue
        simple = _baseline_host(key).rsplit("::", 1)[-1]
        if simple and not re.search(rf"\b{re.escape(simple)}\b", text):
            out.append({"file": BASELINE_REL, "line": 1,
                        "rule": BASELINE_RULE,
                        "message": f"baseline entry [{e.get('rule')}] key "
                                   f"'{key}': function '{simple}' no "
                                   f"longer exists in {rel}"})
    return out


def stale_baseline_findings(root: pathlib.Path) -> list[dict]:
    path = root / BASELINE_REL
    if not path.is_file():
        return []
    try:
        entries = json.loads(path.read_text()).get("findings", [])
    except (json.JSONDecodeError, AttributeError):
        return [{"file": BASELINE_REL, "line": 1, "rule": BASELINE_RULE,
                 "message": "baseline file is not valid JSON"}]

    def read_rel(rel: str):
        p = root / rel
        return p.read_text() if p.is_file() else None

    return stale_baseline_msgs(entries, read_rel)


# --- driver ---------------------------------------------------------------


def lint_file(path: pathlib.Path, rel: str) -> list[dict]:
    rules = [r for r in RULES if r.applies(rel)]
    violations = []
    in_block_comment = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        code, comment, in_block_comment = strip_comments_and_strings(
            raw, in_block_comment)
        for rule in rules:
            message = rule.check(code)
            if message and not allowed(comment, rule.name):
                violations.append({"file": rel, "line": lineno,
                                   "rule": rule.name, "message": message})
        for message in stale_allow_findings(rel, code, comment):
            violations.append({"file": rel, "line": lineno,
                               "rule": STALE_RULE, "message": message})
    return violations


def run_lint(root: pathlib.Path, json_out: str | None,
             fix_hints: bool) -> int:
    if not (root / "src").is_dir():
        print(f"lint_check.py: no src/ under {root}", file=sys.stderr)
        return 2

    violations: list[dict] = []
    files = 0
    for top in SCAN_DIRS:
        directory = root / top
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob("*")):
            if path.suffix not in SRC_EXTENSIONS:
                continue
            files += 1
            violations += lint_file(path, path.relative_to(root).as_posix())
    violations += stale_baseline_findings(root)

    hint_by_rule = {r.name: r.fix_hint for r in RULES}
    hint_by_rule[STALE_RULE] = STALE_FIX_HINT
    hint_by_rule[BASELINE_RULE] = BASELINE_FIX_HINT
    for v in violations:
        print(f"{v['file']}:{v['line']}: [{v['rule']}] {v['message']}")
        if fix_hints:
            print(f"    hint: {hint_by_rule[v['rule']]}")
    print(f"lint_check: {files} files, {len(RULES) + 2} rules, "
          f"{len(violations)} violation(s)")

    if json_out:
        report = {
            "tool": "lint_check",
            "root": str(root),
            "files": files,
            "rules": [{"name": r.name, "summary": r.summary,
                       "fix_hint": r.fix_hint} for r in RULES] +
                     [{"name": STALE_RULE, "summary": STALE_SUMMARY,
                       "fix_hint": STALE_FIX_HINT},
                      {"name": BASELINE_RULE, "summary": BASELINE_SUMMARY,
                       "fix_hint": BASELINE_FIX_HINT}],
            "violations": violations,
        }
        pathlib.Path(json_out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if violations else 0


# --- self-test ------------------------------------------------------------
# One firing snippet and one clean/suppressed snippet per rule, proving
# each rule detects its violation and each suppression suppresses it.

SELFTEST_CASES = [
    # (rule, rel path, line of code, should fire?)
    ("rng", "src/gfx/raster.cc", "int x = rand();", True),
    ("rng", "src/gfx/raster.cc",
     "int x = rand(); // chopin-lint: allow(rng)", False),
    ("rng", "src/util/rng.cc", "int x = rand();", False),  # impl exempt
    ("wallclock", "src/sim/event_queue.cc",
     "auto t = std::chrono::steady_clock::now();", True),
    ("wallclock", "src/gfx/raster.cc",
     "auto t = std::chrono::steady_clock::now();", False),  # scope: sim/sfr
    ("hosttime", "src/gfx/raster.cc", "time_t t = time(nullptr);", True),
    ("hosttime", "src/stats/table.cc", "os.imbue(std::locale(\"\"));", True),
    ("hosttime", "src/gpu/timing.cc", "Tick finish_time(int g);", False),
    ("tick-float", "src/gpu/timing.cc", "Tick t = 2.5 * cycles;", True),
    ("tick-float", "src/gpu/timing.cc",
     "Tick t = static_cast<Tick>(2.5 * cycles);", False),
    ("thread", "src/comp/algorithms.cc",
     "std::thread worker(run);", True),
    ("thread", "src/util/thread_pool.cc",
     "std::thread worker(run);", False),  # pool impl exempt
    ("unordered", "src/sfr/grouping.cc",
     "std::unordered_map<int, int> seen;", True),
    ("unordered", "src/sfr/grouping.cc",
     "std::unordered_map<int, int> seen; // chopin-lint: allow(unordered)",
     False),
    ("global-state", "src/gfx/renderer.cc",
     "thread_local RenderScratch scratch;", True),
    ("global-state", "src/gfx/renderer.cc",
     "static int frame_counter = 0;", True),
    ("global-state", "src/gfx/renderer.cc",
     "static constexpr int kTileSize = 64;", False),
    ("global-state", "src/gfx/renderer.cc",
     "static BinGrid makeGrid(const Viewport &vp);", False),  # function
    ("global-state", "src/util/thread_pool.cc",
     "thread_local bool tl_in_parallel = false;", False),  # util/ exempt
    ("naked-sync", "src/net/interconnect.hh",
     "std::mutex m;", True),
    ("naked-sync", "src/net/interconnect.hh",
     "std::atomic<int> hits CHOPIN_GUARDED_BY(m);", False),  # annotated
    ("naked-sync", "src/util/thread_pool.cc",
     "std::condition_variable cv;", False),  # util/ exempt
    ("bench-runscheme", "bench/fig13_performance.cpp",
     "FrameResult r = runScheme(s, cfg, tr);", True),
    ("bench-runscheme", "bench/perf_frame.cpp",
     "serial = runScheme( // chopin-lint: allow(bench-runscheme)", False),
    ("bench-runscheme", "bench/common.cc",
     "return runScheme(s.scheme, s.cfg, trace);", False),  # harness layer
    ("bench-runscheme", "src/core/sweep.cc",
     "FrameResult r = runScheme(s.scheme, s.cfg, tr);", False),  # not bench/
    ("bench-stats-print", "bench/fig13_performance.cpp",
     "std::cout << r.cycles << \"\\n\";", True),
    ("bench-stats-print", "bench/fig13_performance.cpp",
     "          << serial.traffic.total() << \",\"", True),  # continuation
    ("bench-stats-print", "bench/fig13_performance.cpp",
     "w.field(\"cycles\", m.cycles);", False),  # JsonWriter is the way
    ("bench-stats-print", "bench/fig13_performance.cpp",
     "std::cout << r.cycles; // chopin-lint: allow(bench-stats-print)",
     False),
    ("bench-stats-print", "bench/common.cc",
     "std::cout << r.cycles << \"\\n\";", False),  # harness layer exempt
    ("trace-version", "src/core/sweep.cc",
     "std::uint32_t magic = 0x43484f50;", True),
    ("trace-version", "src/trace/sequence.cc",
     "constexpr std::uint32_t traceVersionSequence = 4;", True),
    ("trace-version", "src/trace/trace_io.cc",
     "constexpr std::uint32_t traceMagic = 0x43484F50;",
     False),  # the one sanctioned home
    ("trace-version", "src/core/sweep.cc",
     "std::uint32_t m = 0x43484f50; // chopin-lint: allow(trace-version)",
     False),
    ("trace-version", "src/trace/sequence.cc",
     "fp.u64(traceVersionOf(seq));", False),  # reference, not a literal
    ("raw-simd", "src/gfx/raster.cc",
     "__m128 w = _mm_add_ps(a, b);", True),
    ("raw-simd", "src/gfx/raster.hh",
     "#include <immintrin.h>", True),
    ("raw-simd", "bench/perf_frame.cpp",
     "float32x4_t v = vdupq_n_f32(x);", True),  # NEON type, bench in scope
    ("raw-simd", "src/util/simd.hh",
     "__m256 w = _mm256_add_ps(a, b);", False),  # the one sanctioned home
    ("raw-simd", "src/gfx/raster.cc",
     "// quad kernel: see util/simd.hh for the _mm_* backends", False),
    ("raw-simd", "src/gfx/raster.cc",
     "__m128 w; // chopin-lint: allow(raw-simd)", False),
    # Legacy suppression spelling still honored.
    ("rng", "src/gfx/raster.cc",
     "int x = rand(); // lint:allow(rng)", False),
]

# stale-allow cases run through stale_allow_findings directly (the rule
# reads the suppression comment, not the code).
STALE_SELFTEST_CASES = [
    # (rel path, line, should fire?)
    ("src/gfx/raster.cc",
     "int x = rand(); // chopin-lint: allow(rng)", False),  # still earning
    ("src/gfx/raster.cc",
     "int x = 3; // chopin-lint: allow(rng)", True),  # no longer fires
    ("src/gfx/raster.cc",
     "int x = 3; // chopin-lint: allow(no-such-rule)", True),  # unknown
    ("bench/common.cc",
     "r = runScheme(s, cfg, t); // chopin-lint: allow(bench-runscheme)",
     True),  # harness layer is out of the rule's scope: suppression inert
    ("src/gfx/raster.cc",
     "int x = 3; // chopin-lint: allow(stale-allow, rng)",
     False),  # prophylactic, explicitly marked
    ("src/gfx/raster.cc",
     "int x = 3; // lint:allow(rng)", True),  # legacy spelling checked too
    ("src/gfx/raster.cc", "int x = 3;", False),  # no suppression at all
]

# stale-analyzer-baseline cases run through stale_baseline_msgs with an
# injected file-content lookup (no tree needed). The fake tree has one
# file with one function.
_BASELINE_FAKE_TREE = {
    "src/sim/engine.cc": "Tick chopin::Engine::advance(Tick t) { }",
}

BASELINE_SELFTEST_CASES = [
    # (entry, should fire?)
    ({"rule": "tick-narrow", "file": "src/sim/engine.cc",
      "key": "chopin::Engine::advance:narrow#0"}, False),  # alive
    ({"rule": "tick-narrow", "file": "src/sim/engine.cc",
      "key": "chopin::Engine::renamed:narrow#0"}, True),  # fn vanished
    ({"rule": "partition-escape", "file": "src/sim/deleted.cc",
      "key": "chopin::gone:<ref>:ctx"}, True),  # file vanished
    ({"rule": "partition-escape", "file": "src/sim/engine.cc",
      "key": "chopin::Engine::advance:<ref>:ctx"}, False),  # multi-colon key
    ({"rule": "det-taint", "file": "src/sim/engine.cc",
      "key": "advance:span arg:thread-id"}, False),  # unqualified host
]


def self_test() -> int:
    failures = 0
    rules_by_name = {r.name: r for r in RULES}
    for rule_name, rel, line, should_fire in SELFTEST_CASES:
        rule = rules_by_name[rule_name]
        code, comment, _ = strip_comments_and_strings(line, False)
        fired = bool(rule.applies(rel)) and rule.check(code) is not None \
            and not allowed(comment, rule_name)
        if fired == should_fire:
            verdict = "fires on" if should_fire else "passes"
            print(f"self-test ok: [{rule_name}] {verdict} {line!r}")
        else:
            print(f"self-test FAIL: [{rule_name}] {line!r} in {rel}: "
                  f"fired={fired}, expected {should_fire}")
            failures += 1
    # Every rule must appear in the case list with at least one firing case.
    for r in RULES:
        if not any(c[0] == r.name and c[3] for c in SELFTEST_CASES):
            print(f"self-test FAIL: rule {r.name} has no firing case")
            failures += 1
    for rel, line, should_fire in STALE_SELFTEST_CASES:
        code, comment, _ = strip_comments_and_strings(line, False)
        fired = bool(stale_allow_findings(rel, code, comment))
        if fired == should_fire:
            verdict = "fires on" if should_fire else "passes"
            print(f"self-test ok: [{STALE_RULE}] {verdict} {line!r}")
        else:
            print(f"self-test FAIL: [{STALE_RULE}] {line!r} in {rel}: "
                  f"fired={fired}, expected {should_fire}")
            failures += 1
    for entry, should_fire in BASELINE_SELFTEST_CASES:
        fired = bool(stale_baseline_msgs([entry],
                                         _BASELINE_FAKE_TREE.get))
        if fired == should_fire:
            verdict = "fires on" if should_fire else "passes"
            print(f"self-test ok: [{BASELINE_RULE}] {verdict} "
                  f"{entry['key']!r}")
        else:
            print(f"self-test FAIL: [{BASELINE_RULE}] {entry!r}: "
                  f"fired={fired}, expected {should_fire}")
            failures += 1
    print(f"lint_check self-test: {failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("root", nargs="?", type=pathlib.Path,
                    help="repository root (containing src/)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write a machine-readable violation report")
    ap.add_argument("--fix-hints", action="store_true",
                    help="print the remediation recipe under each finding")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule registry and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on an injected violation")
    args = ap.parse_args(argv[1:])

    if args.list_rules:
        for r in RULES:
            print(f"{r.name:<13} {r.summary}")
        print(f"{STALE_RULE:<13} {STALE_SUMMARY}")
        print(f"{BASELINE_RULE} {BASELINE_SUMMARY}")
        return 0
    if args.self_test:
        return self_test()
    if args.root is None:
        ap.error("root is required unless --self-test/--list-rules is given")
    return run_lint(args.root.resolve(), args.json, args.fix_hints)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
