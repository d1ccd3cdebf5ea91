"""Program model shared by the analyzer frontends and passes.

Both frontends (frontend_clang / frontend_lite) reduce each translation
unit to one *TU summary* — a plain JSON-serializable dict, so summaries
round-trip through the content-hash cache (cache.py) unchanged. The
passes never see frontend objects, only the merged ProgramModel built
here; that is what keeps the two frontends interchangeable and warm runs
incremental.

TU summary schema (SUMMARY_VERSION bumps invalidate every cache entry):

  {
    "file": "src/gfx/renderer.cc",      # repo-relative path
    "frontend": "lite" | "clang",
    "functions": [FunctionSummary, ...],
    "classes": [ClassSummary, ...],
    "suppressions": {"<file>": {"<line>": ["rule", ...]}},
  }

Suppressions are keyed per *file* because a clang TU contributes
entities from every header it includes: a `// chopin-analyze:
allow(...)` comment in src/foo.hh must silence findings carrying the
header's path, not the including .cc's. The line sets are already
"effective" (cxxlex.effective_suppressions): a comment-only allow line
is expanded onto the following line at lex time, so the passes test the
finding line exactly.

FunctionSummary:
  id                  unique node id: "<file>:<line>:<name-or-lambda#k>"
  name                simple name ("renderDraw", "<lambda>")
  qualname            best-effort qualified name ("chopin::Interconnect::
                      transfer"); lambdas use "<enclosing>::<lambda>"
  kind                "function" | "method" | "lambda"
  file, line          definition site
  enclosing           id of the lexically enclosing function (lambdas), or ""
  calls               [{"name", "receiver", "line"}]   (receiver may be "")
  parallel_callbacks  [{"callee": "parallelFor"|"submit", "line",
                        "lambda_id"}]  lambdas passed to pool entry points
  asserts_sequential  body calls SequentialCap::assertHeld /
                      assertSequential — the function IS coordinator-only
  requires_sequential declaration carries CHOPIN_REQUIRES over a
                      sequential capability
  scenario_barrier    body constructs a ThreadPool ScenarioRegion: the
                      node runs a private, self-owned simulation and
                      seq-reach does not traverse through it
  captures_ref        (lambdas) capture list defaults to or contains &
  compound_float_writes [{"line", "target", "op", "base", "local",
                          "subscripted", "evidence"}]
  narrow_conversions  [{"line", "src", "dst", "detail"}]
  return_type         textual return type or ""
  params              [{"name", "type"}] in declaration order (v4)
  stmts               structured statement tree of the body (see
                      stmts.py for node shapes) — the input to CFG
                      lowering in dataflow.py (v4)
  captures            (lambdas) [{"name", "mode": "ref"|"copy"|"this",
                        "type", "implicit"}] — explicit entries plus
                      default-mode captures resolved against the
                      enclosing scope chain (v4; capture types are
                      resolved at build time from the member/param/local
                      scopes, so passes need no symbol table)

ClassSummary:
  name, qualname, file, line
  mutex_members       names of chopin::Mutex members
  has_sequential_cap  class owns a SequentialCap member
  members             [{"name", "line", "type", "is_const", "is_static",
                        "is_sync", "is_capability", "guarded_by"}]
                      is_sync: the member IS a synchronization primitive
                      (mutex / atomic / condition_variable) — exempt from
                      lock-coverage; is_capability: SequentialCap member.
"""

from __future__ import annotations

import dataclasses

SUMMARY_VERSION = 5

# Simple-call names never resolved to program functions when the call has
# an explicit receiver: these collide with std container/smart-pointer
# vocabulary, and a receiver-typed resolution is beyond the lite frontend.
# (A sink hidden behind one of these is still caught dynamically by
# assertSequential; see DESIGN.md §11 for the fidelity contract.)
AMBIGUOUS_METHOD_NAMES = frozenset({
    "assign", "at", "back", "begin", "c_str", "clear", "count", "data",
    "emplace", "emplace_back", "empty", "end", "erase", "find", "front",
    "get", "insert", "load", "lock", "max", "min", "native", "pop",
    "pop_back", "push", "push_back", "reserve", "reset", "resize", "size",
    "store", "str", "swap", "top", "unlock", "value",
})

# Types the tick-narrow pass treats as simulated-time / wide counters.
WIDE_SIM_TYPES = frozenset({"Tick", "Bytes"})

# Destination types narrower than 64-bit (or lossy for 64-bit integers).
NARROW_DEST_TYPES = frozenset({
    "float", "double", "int", "short", "char", "unsigned",
    "int8_t", "int16_t", "int32_t", "uint8_t", "uint16_t", "uint32_t",
    "std::int8_t", "std::int16_t", "std::int32_t",
    "std::uint8_t", "std::uint16_t", "std::uint32_t",
    "GpuId", "DrawId", "GroupId", "TrackId",
})


@dataclasses.dataclass
class ProgramModel:
    """Merged whole-program view the passes operate on."""

    functions: list[dict]
    classes: list[dict]
    # file -> line -> [allowed rule names]
    suppressions: dict[str, dict[int, list[str]]]
    by_id: dict[str, dict]
    by_simple_name: dict[str, list[dict]]
    by_qualname: dict[str, list[dict]]

    def allowed(self, rule: str, file: str, line: int) -> bool:
        return rule in self.suppressions.get(file, {}).get(line, [])


def merge(summaries: list[dict]) -> ProgramModel:
    """Merge per-TU summaries into one ProgramModel.

    Entities parsed from headers appear in several TU summaries under the
    clang frontend; they deduplicate by node id (file:line:name), which is
    stable across TUs by construction.
    """
    functions: dict[str, dict] = {}
    classes: dict[str, dict] = {}
    suppressions: dict[str, dict[int, list[str]]] = {}

    for s in summaries:
        for f in s.get("functions", []):
            prev = functions.get(f["id"])
            if prev is None:
                functions[f["id"]] = f
            else:
                # Keep the richer record (a definition beats a declaration).
                for flag in ("asserts_sequential", "requires_sequential",
                             "scenario_barrier"):
                    prev[flag] = prev.get(flag) or f.get(flag)
                if len(f.get("calls", [])) > len(prev.get("calls", [])):
                    for key in ("calls", "parallel_callbacks",
                                "compound_float_writes",
                                "narrow_conversions", "stmts",
                                "captures", "params"):
                        prev[key] = f.get(key, [])
        for c in s.get("classes", []):
            key = f"{c['file']}:{c['line']}:{c['name']}"
            prev = classes.get(key)
            if prev is None or len(c.get("members", [])) > \
                    len(prev.get("members", [])):
                classes[key] = c
        for file_str, lines in s.get("suppressions", {}).items():
            per_file = suppressions.setdefault(file_str, {})
            for line_str, rules in lines.items():
                per_line = per_file.setdefault(int(line_str), [])
                for r in rules:
                    if r not in per_line:
                        per_line.append(r)

    func_list = sorted(functions.values(), key=lambda f: f["id"])
    class_list = sorted(classes.values(),
                        key=lambda c: (c["file"], c["line"]))

    # Out-of-line method definitions (`void Engine::run() { ... }` in a
    # .cc whose class lives in a header) carry no "class" in their own
    # TU; resolve it here where every class is visible.
    class_names = {c["name"] for c in class_list}
    for f in func_list:
        if not f.get("class"):
            parts = (f.get("qualname") or "").split("::")
            if len(parts) >= 2 and parts[-2] in class_names:
                f["class"] = parts[-2]

    by_simple: dict[str, list[dict]] = {}
    by_qual: dict[str, list[dict]] = {}
    for f in func_list:
        by_simple.setdefault(f["name"], []).append(f)
        if f.get("qualname"):
            by_qual.setdefault(f["qualname"], []).append(f)

    # Propagate requires_sequential from method *declarations* (headers)
    # onto the out-of-line definitions: match by qualname suffix
    # "Class::name", anchored on a '::' boundary so a decl on `Net::drain`
    # never marks an unrelated `WideNet::drain`.
    declared = [f for f in func_list if f.get("requires_sequential")]
    for decl in declared:
        suffix = decl.get("qualname") or decl["name"]
        if "::" in suffix:
            needle = "::".join(suffix.split("::")[-2:])
            for f in by_simple.get(decl["name"], []):
                qn = f.get("qualname", "")
                if qn == needle or qn.endswith("::" + needle):
                    f["requires_sequential"] = True
        else:
            # Free-function decl: the simple-name index IS the match.
            for f in by_simple.get(decl["name"], []):
                f["requires_sequential"] = True

    return ProgramModel(
        functions=func_list,
        classes=class_list,
        suppressions=suppressions,
        by_id={f["id"]: f for f in func_list},
        by_simple_name=by_simple,
        by_qualname=by_qual,
    )


def resolve_call(model: ProgramModel, call: dict) -> list[dict]:
    """Candidate definitions a call site may dispatch to.

    Qualified names resolve exactly; bare names resolve to every function
    sharing the simple name *except* when the name is in
    AMBIGUOUS_METHOD_NAMES and the call has a receiver (std-vocabulary
    collisions; see module comment).
    """
    name = call["name"]
    if "::" in name:
        exact = model.by_qualname.get(name)
        if exact:
            return exact
        name = name.split("::")[-1]
    if call.get("receiver") and name in AMBIGUOUS_METHOD_NAMES:
        return []
    return model.by_simple_name.get(name, [])
