#!/usr/bin/env python3
"""Include-graph layering checker for the CHOPIN source tree.

The simulator libraries form a dependency DAG; every `#include "..."` edge
in src/ must point *down* it:

    util  ->  {trace, gfx, sim, stats}  ->  {gpu, net, comp}  ->  sfr  ->  core

(read "util may be depended on by trace/gfx/sim/stats", and so on). Two
same-layer edges are sanctioned: trace -> gfx (the trace format names gfx
primitive types) and gfx -> stats (DrawStats registers its fields with the
metric registry in stats/metrics.hh). Everything else the checker enforces:

  include-form   Quoted includes must be `module/file.hh` naming a known
                 src/ module; `#include "../..."` escapes and bare
                 `#include "file.hh"` are banned, so the include line alone
                 identifies the dependency edge.
  layering       An include from module A to module B requires
                 layer(B) < layer(A), A == B, or (A, B) in the sanctioned
                 same-layer list.
  header-cycle   The header-level include graph must be acyclic (checked
                 exactly, by DFS, not just via the module layers).

Run as a ctest (`ctest -R layer_check`) or directly:

  python3 tools/layer_check.py /path/to/repo [--json report.json]
  python3 tools/layer_check.py --self-test

Exit codes: 0 clean, 1 violations found, 2 usage/environment error.
The --json report is machine-readable: every violation carries
{file, line, kind, detail}, plus the observed module edge list so a CI
artifact records the architecture as-built.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import tempfile

# Module -> layer. An include edge must point to a strictly lower layer
# (or stay inside its module).
LAYERS = {
    "util": 0,
    "trace": 1,
    "gfx": 1,
    "sim": 1,
    "stats": 1,
    "gpu": 2,
    "net": 2,
    "comp": 2,
    "sfr": 3,
    "core": 4,
}

# Sanctioned same-layer edges (still acyclic: the header-cycle check and
# the one-directional list keep them honest).
ALLOWED_SAME_LAYER = {("trace", "gfx"), ("gfx", "stats")}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(?P<path>[^"]+)"')
WELL_FORMED_RE = re.compile(r"^[a-z0-9_]+/[a-z0-9_]+\.hh$")

SRC_EXTENSIONS = (".hh", ".cc")


def moduleOf(rel: str) -> str:
    """Module name of a path relative to src/ ("util/check.hh" -> "util")."""
    return rel.split("/", 1)[0]


def scanIncludes(path: pathlib.Path) -> list[tuple[int, str]]:
    """All quoted includes of @p path as (line number, include path)."""
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m:
            out.append((lineno, m.group("path")))
    return out


def checkTree(src: pathlib.Path) -> tuple[list[dict], list[dict]]:
    """Check src/; returns (violations, module edge list)."""
    violations: list[dict] = []
    # header -> set of headers it includes (for the cycle check)
    header_graph: dict[str, set[str]] = {}
    module_edges: dict[tuple[str, str], int] = {}

    def report(rel: str, lineno: int, kind: str, detail: str) -> None:
        violations.append(
            {"file": rel, "line": lineno, "kind": kind, "detail": detail})

    files = sorted(p for p in src.rglob("*")
                   if p.suffix in SRC_EXTENSIONS and p.is_file())
    if not files:
        raise RuntimeError(f"no sources under {src}")

    for path in files:
        rel = path.relative_to(src).as_posix()
        mod = moduleOf(rel)
        if mod not in LAYERS:
            report(rel, 0, "include-form",
                   f"unknown module '{mod}' (add it to LAYERS in "
                   "tools/layer_check.py with a deliberate layer)")
            continue
        if path.suffix == ".hh":
            header_graph.setdefault(rel, set())
        for lineno, inc in scanIncludes(path):
            if inc.startswith("../") or "/../" in inc:
                report(rel, lineno, "include-form",
                       f'"{inc}": relative ../ escapes are banned; include '
                       "as module/file.hh from the src/ root")
                continue
            if not WELL_FORMED_RE.match(inc):
                report(rel, lineno, "include-form",
                       f'"{inc}": quoted includes must be module/file.hh '
                       "(bare or nested paths hide the dependency edge)")
                continue
            dep_mod = moduleOf(inc)
            if dep_mod not in LAYERS:
                report(rel, lineno, "include-form",
                       f'"{inc}": unknown module \'{dep_mod}\'')
                continue
            if path.suffix == ".hh":
                header_graph[rel].add(inc)
            if dep_mod != mod:
                module_edges[(mod, dep_mod)] = \
                    module_edges.get((mod, dep_mod), 0) + 1
            ok = (dep_mod == mod or
                  LAYERS[dep_mod] < LAYERS[mod] or
                  (mod, dep_mod) in ALLOWED_SAME_LAYER)
            if not ok:
                relation = ("same-layer" if LAYERS[dep_mod] == LAYERS[mod]
                            else "upward")
                report(rel, lineno, "layering",
                       f'"{inc}": {relation} dependency {mod} '
                       f"(layer {LAYERS[mod]}) -> {dep_mod} "
                       f"(layer {LAYERS[dep_mod]}) violates the DAG "
                       "util -> {trace,gfx,sim,stats} -> {gpu,net,comp} "
                       "-> sfr -> core")

    violations += findHeaderCycles(header_graph)
    edges = [{"from": a, "to": b, "count": n}
             for (a, b), n in sorted(module_edges.items())]
    return violations, edges


def findHeaderCycles(graph: dict[str, set[str]]) -> list[dict]:
    """Exact cycle detection on the header include graph (iterative DFS)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {h: WHITE for h in graph}
    violations = []
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, list[str]]] = [(root, [root])]
        while stack:
            node, trail = stack.pop()
            if node.startswith("!"):  # post-visit marker
                color[node[1:]] = BLACK
                continue
            if color.get(node, BLACK) == BLACK:
                continue
            if color.get(node) == GREY:
                continue
            color[node] = GREY
            stack.append(("!" + node, trail))
            for dep in sorted(graph.get(node, ())):
                if dep not in color:
                    continue  # include of a missing header: not our check
                if color[dep] == GREY:
                    cycle = trail[trail.index(dep):] if dep in trail \
                        else [dep, node]
                    violations.append({
                        "file": node, "line": 0, "kind": "header-cycle",
                        "detail": "include cycle: " +
                                  " -> ".join(cycle + [dep])})
                elif color[dep] == WHITE:
                    stack.append((dep, trail + [dep]))
    return violations


def runCheck(root: pathlib.Path, json_out: str | None) -> int:
    src = root / "src"
    if not src.is_dir():
        print(f"layer_check.py: no src/ under {root}", file=sys.stderr)
        return 2
    try:
        violations, edges = checkTree(src)
    except RuntimeError as e:
        print(f"layer_check.py: {e}", file=sys.stderr)
        return 2

    for v in violations:
        print(f"src/{v['file']}:{v['line']}: [{v['kind']}] {v['detail']}")
    print(f"layer_check: {len(edges)} module edges, "
          f"{len(violations)} violation(s)")

    if json_out:
        report = {
            "tool": "layer_check",
            "root": str(root),
            "layers": LAYERS,
            "allowed_same_layer": sorted(list(e) for e in ALLOWED_SAME_LAYER),
            "module_edges": edges,
            "violations": violations,
        }
        pathlib.Path(json_out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if violations else 0


# --- self-test ------------------------------------------------------------
# Synthetic trees proving the checker fails on each violation class and
# passes on a clean layout (acceptance gate: "demonstrably fails on an
# injected violation").

CLEAN_TREE = {
    "util/check.hh": "#pragma once\n",
    "gfx/raster.hh": '#pragma once\n#include "util/check.hh"\n',
    "trace/trace.hh": '#pragma once\n#include "gfx/raster.hh"\n',
    "sfr/scheme.cc": '#include "gfx/raster.hh"\n#include "util/check.hh"\n',
}

BAD_TREES = {
    "upward include (util -> sfr)": {
        "util/check.hh": '#pragma once\n#include "sfr/scheme.hh"\n',
        "sfr/scheme.hh": "#pragma once\n",
    },
    "same-layer include (gfx -> sim)": {
        "gfx/raster.hh": '#pragma once\n#include "sim/event.hh"\n',
        "sim/event.hh": "#pragma once\n",
    },
    "../ escape": {
        "gfx/raster.hh": '#pragma once\n#include "../util/check.hh"\n',
        "util/check.hh": "#pragma once\n",
    },
    "bare include hides the edge": {
        "gfx/raster.hh": '#pragma once\n#include "surface.hh"\n',
        "gfx/surface.hh": "#pragma once\n",
    },
    "header cycle": {
        "gfx/a.hh": '#pragma once\n#include "gfx/b.hh"\n',
        "gfx/b.hh": '#pragma once\n#include "gfx/a.hh"\n',
    },
    "unknown module": {
        "render2/fast.hh": "#pragma once\n",
    },
}


def materialize(root: pathlib.Path, tree: dict[str, str]) -> None:
    for rel, content in tree.items():
        p = root / "src" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)


def selfTest() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = pathlib.Path(tmp) / "clean"
        materialize(clean, CLEAN_TREE)
        violations, _ = checkTree(clean / "src")
        if violations:
            print(f"self-test FAIL: clean tree reported {violations}")
            failures += 1
        else:
            print("self-test ok: clean tree passes")

        for name, tree in BAD_TREES.items():
            root = pathlib.Path(tmp) / re.sub(r"\W+", "_", name)
            materialize(root, tree)
            violations, _ = checkTree(root / "src")
            if violations:
                print(f"self-test ok: '{name}' detected "
                      f"({violations[0]['kind']})")
            else:
                print(f"self-test FAIL: '{name}' not detected")
                failures += 1
    print(f"layer_check self-test: {failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("root", nargs="?", type=pathlib.Path,
                    help="repository root (containing src/)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write a machine-readable violation report")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker catches injected violations")
    args = ap.parse_args(argv[1:])

    if args.self_test:
        return selfTest()
    if args.root is None:
        ap.error("root is required unless --self-test is given")
    return runCheck(args.root.resolve(), args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
