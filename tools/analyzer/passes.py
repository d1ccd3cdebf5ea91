"""Analysis passes for chopin-analyze.

Each pass is a function `(model: ir.ProgramModel) -> list[Finding]`
registered in PASSES, mirroring the Rule registry in tools/lint_check.py.
Findings carry a *stable key* — derived from qualified names, never line
numbers — so the baseline (baseline.json) survives unrelated edits.

Suppression: a `// chopin-analyze: allow(rule)` comment on the finding
line, or on a *comment-only* line directly above it, silences the
finding. The comment-only expansion happens at lex time
(cxxlex.effective_suppressions), so the passes test the finding line
exactly — a trailing allow comment on one member never leaks onto the
next declaration.
"""

from __future__ import annotations

import dataclasses
import time

import dataflow
import ir


@dataclasses.dataclass
class Finding:
    rule: str
    file: str
    line: int
    key: str      # stable identity for baseline matching (no line numbers)
    message: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _suppressed(model: ir.ProgramModel, rule: str, file: str,
                line: int) -> bool:
    return model.allowed(rule, file, line)


# ---------------------------------------------------------------------------
# seq-reach


def _node_label(f: dict) -> str:
    return f.get("qualname") or f["name"]


def _worker_roots(model: ir.ProgramModel) -> list[tuple[dict, dict]]:
    """(owner function, lambda) for every lambda passed to a ThreadPool
    entry point (parallel_callbacks)."""
    roots: list[tuple[dict, dict]] = []
    for f in model.functions:
        for cb in f.get("parallel_callbacks", []):
            lam = model.by_id.get(cb["lambda_id"])
            if lam is not None:
                roots.append((f, lam))
    return roots


def seq_reach(model: ir.ProgramModel) -> list[Finding]:
    """No sequential-only function may be reachable from a worker lambda.

    Roots: every lambda recorded as a parallel_callback of some function
    (passed to ThreadPool::parallelFor or ThreadPool::submit). Traversal
    follows resolved calls and lexically nested lambdas, and stops at any
    node that constructs a ScenarioRegion — such a node runs a private,
    self-owned simulation where sequential state is legal (the sweep
    engine's per-scenario stages).

    Sinks: asserts_sequential (body calls SequentialCap::assertHeld /
    assertSequential) or requires_sequential (CHOPIN_REQUIRES over the
    sequential capability).
    """
    findings: list[Finding] = []

    def is_sink(f: dict) -> bool:
        return bool(f.get("asserts_sequential") or
                    f.get("requires_sequential"))

    for owner, lam in _worker_roots(model):
        if lam.get("scenario_barrier"):
            continue
        # BFS from the lambda, recording one witness path per sink.
        seen = {lam["id"]}
        queue: list[tuple[dict, list[str]]] = [(lam, [_node_label(lam)])]
        reported: set[str] = set()
        while queue:
            node, path = queue.pop(0)
            for call in node.get("calls", []):
                # Lexically nested lambdas traverse via their id.
                if "lambda_id" in call:
                    targets = [model.by_id[call["lambda_id"]]] \
                        if call["lambda_id"] in model.by_id else []
                else:
                    targets = ir.resolve_call(model, call)
                for tgt in targets:
                    if tgt["id"] in seen:
                        continue
                    seen.add(tgt["id"])
                    tpath = path + [_node_label(tgt)]
                    if is_sink(tgt):
                        key = f"{_node_label(owner)}::<worker>" \
                              f"->{_node_label(tgt)}"
                        if key in reported:
                            continue
                        reported.add(key)
                        if _suppressed(model, "seq-reach", lam["file"],
                                       lam["line"]):
                            continue
                        findings.append(Finding(
                            rule="seq-reach",
                            file=lam["file"],
                            line=lam["line"],
                            key=key,
                            message=(
                                f"worker lambda (passed to ThreadPool in "
                                f"{_node_label(owner)}) reaches "
                                f"sequential-only {_node_label(tgt)} via "
                                f"{' -> '.join(tpath)}"),
                        ))
                        continue  # do not traverse past a sink
                    if tgt.get("scenario_barrier"):
                        continue  # self-owned simulation; legal
                    queue.append((tgt, tpath))
    return findings


# ---------------------------------------------------------------------------
# lock-coverage


def lock_coverage(model: ir.ProgramModel) -> list[Finding]:
    """Every mutable data member of a Mutex-owning class must be
    CHOPIN_GUARDED_BY-annotated (or suppressed with a documented
    protocol)."""
    findings: list[Finding] = []
    for c in model.classes:
        if not c.get("mutex_members"):
            continue
        for m in c.get("members", []):
            if m.get("is_const") or m.get("is_static") or \
                    m.get("is_sync") or m.get("is_capability"):
                continue
            if m.get("guarded_by"):
                continue
            if _suppressed(model, "lock-coverage", c["file"], m["line"]):
                continue
            findings.append(Finding(
                rule="lock-coverage",
                file=c["file"],
                line=m["line"],
                key=f"{c['qualname']}::{m['name']}",
                message=(
                    f"member '{m['name']}' of mutex-owning class "
                    f"{c['qualname']} is neither CHOPIN_GUARDED_BY-"
                    f"annotated nor const/atomic; annotate it or add "
                    f"'// chopin-analyze: allow(lock-coverage)' with the "
                    f"protocol that makes it safe"),
            ))
    return findings


# ---------------------------------------------------------------------------
# det-float


def det_float(model: ir.ProgramModel) -> list[Finding]:
    """Order-dependent floating-point accumulation inside worker lambdas.

    A compound float assignment (+=, -=, *=, /=) whose target is captured
    by reference (not declared in the lambda) and not subscripted by a
    per-item index is merged in worker-completion order — it breaks the
    bit-identical `--jobs` invariance gates. `out[i] += v` into disjoint
    slots is the sanctioned pattern and is not flagged.
    """
    # Collect ids of parallel-callback lambdas and everything lexically
    # nested inside them.
    par_ids: set[str] = set()
    for f in model.functions:
        for cb in f.get("parallel_callbacks", []):
            par_ids.add(cb["lambda_id"])
    changed = True
    while changed:
        changed = False
        for f in model.functions:
            if f.get("kind") == "lambda" and f["id"] not in par_ids and \
                    f.get("enclosing") in par_ids:
                par_ids.add(f["id"])
                changed = True

    findings: list[Finding] = []
    for f in model.functions:
        if f["id"] not in par_ids:
            continue
        if not f.get("captures_ref"):
            continue
        for w in f.get("compound_float_writes", []):
            if w.get("local") or w.get("subscripted"):
                continue
            if _suppressed(model, "det-float", f["file"], w["line"]):
                continue
            findings.append(Finding(
                rule="det-float",
                file=f["file"],
                line=w["line"],
                key=f"{f.get('qualname', f['name'])}:{w['target']}"
                    f"{w['op']}",
                message=(
                    f"float accumulation '{w['target']} {w['op']} ...' "
                    f"into reference-captured state inside a worker "
                    f"lambda is merged in completion order; accumulate "
                    f"into a per-chunk slot and reduce sequentially"),
            ))
    return findings


# ---------------------------------------------------------------------------
# tick-narrow


def tick_narrow(model: ir.ProgramModel) -> list[Finding]:
    """Implicit conversions of Tick/Bytes sim-time integers to narrower
    or floating destinations (silent truncation past ~2^32 ticks)."""
    findings: list[Finding] = []
    for f in model.functions:
        for nc in f.get("narrow_conversions", []):
            if _suppressed(model, "tick-narrow", f["file"], nc["line"]):
                continue
            findings.append(Finding(
                rule="tick-narrow",
                file=f["file"],
                line=nc["line"],
                key=f"{f.get('qualname', f['name'])}:{nc['dst']}:"
                    f"{nc['detail']}",
                message=(
                    f"implicit {nc['src']} -> {nc['dst']} conversion in "
                    f"{f.get('qualname', f['name'])}: {nc['detail']}; "
                    f"use static_cast if the narrowing is intended"),
            ))
    return findings


# ---------------------------------------------------------------------------
# Enclosing-scope helpers shared by the capture and taint passes.


def _enclosing_host(model: ir.ProgramModel, f: dict) -> dict:
    """Nearest non-lambda enclosing function (for stable keys)."""
    node = f
    guard = 0
    while node.get("kind") == "lambda" and guard < 32:
        parent = model.by_id.get(node.get("enclosing", ""))
        if parent is None:
            return node
        node = parent
        guard += 1
    return node


def _enclosing_class(model: ir.ProgramModel, f: dict) -> str:
    return _enclosing_host(model, f).get("class", "")


# ---------------------------------------------------------------------------
# partition-escape (the id is kept for the inline suppressions and SARIF
# history that name it; the pass checks worker lambdas only)


def _seq_cap_classes(model: ir.ProgramModel) -> set[str]:
    return {c["name"] for c in model.classes
            if c.get("has_sequential_cap")}


def partition_escape(model: ir.ProgramModel) -> list[Finding]:
    """Escape analysis over worker-lambda captures: a lambda passed to
    ThreadPool::parallelFor/submit (or nested in one) must not capture
    (by reference or pointer) state owned by the sequential coordinator
    — SequentialCap-guarded classes, or classes holding a
    pointer/reference member to one (one aliasing hop).

    Capture types come from the shared statement builder's scope
    resolution (class members, parameters, locals); captures the builder
    could not type in its own TU (class members declared in a header)
    resolve here against the merged cross-TU class model. A member used
    under a default capture mode — or any use through a captured `this`
    — aliases the enclosing object regardless of the capture mode, so
    those are checked as aliases even under [=]. Value copies of plain
    data are legal — the escape is the alias, not the data.
    """
    seq_classes = _seq_cap_classes(model)
    by_name = {}
    for c in model.classes:
        by_name.setdefault(c["name"], c)
    class_members = {c["name"]: {m["name"]: m["type"]
                                 for m in c.get("members", [])}
                     for c in model.classes}

    def aliased_seq_class(type_text: str) -> str:
        """SequentialCap class that @p type_text aliases: named directly,
        or reachable through one pointer/reference member of a named
        class."""
        for cls in seq_classes:
            if dataflow._word_in(type_text, cls):
                return cls
        for cls_name, c in by_name.items():
            if not dataflow._word_in(type_text, cls_name):
                continue
            for m in c.get("members", []):
                mt = m.get("type", "")
                if "*" not in mt and "&" not in mt:
                    continue
                for cls in seq_classes:
                    if dataflow._word_in(mt, cls):
                        return f"{cls} (via {cls_name}::{m['name']})"
        return ""

    # Worker lambdas, plus every lambda lexically nested in one.
    lambdas = [lam for _, lam in _worker_roots(model)]
    worker_ids = {lam["id"] for lam in lambdas}
    changed = True
    while changed:
        changed = False
        for f in model.functions:
            if f.get("kind") == "lambda" and f["id"] not in worker_ids \
                    and f.get("enclosing") in worker_ids:
                worker_ids.add(f["id"])
                lambdas.append(f)
                changed = True

    findings: list[Finding] = []
    reported: set[str] = set()
    for lam in lambdas:
        if lam.get("scenario_barrier"):
            continue
        host = _enclosing_host(model, lam)
        host_label = host.get("qualname") or host["name"]
        members = class_members.get(_enclosing_class(model, lam), {})
        for cap in lam.get("captures", []):
            typ = cap.get("type", "")
            name = cap.get("name", "")
            if not name:
                continue
            member_alias = False
            if name == "this":
                typ = typ or _enclosing_class(model, lam)
                member_alias = True
            elif not typ and name in members:
                typ = members[name]
                member_alias = True
            if not typ:
                continue
            aliasing = member_alias or cap.get("mode") == "ref" or \
                "*" in typ or typ.rstrip().endswith("&")
            if not aliasing:
                continue
            hit = aliased_seq_class(typ)
            if not hit:
                continue
            key = f"{host_label}:<worker>:{name}"
            if key in reported:
                continue
            reported.add(key)
            if _suppressed(model, "partition-escape", lam["file"],
                           lam["line"]):
                continue
            findings.append(Finding(
                rule="partition-escape",
                file=lam["file"],
                line=lam["line"],
                key=key,
                message=(
                    f"worker lambda in {host_label} captures '{name}' "
                    f"({typ.strip()}) aliasing coordinator-owned "
                    f"(SequentialCap) state {hit}; copy the data, or add "
                    f"'// chopin-analyze: allow(partition-escape)' "
                    f"documenting why the alias cannot race"),
            ))
    return findings


# ---------------------------------------------------------------------------
# det-taint


def _metric_fields(model: ir.ProgramModel) -> dict[str, set[str]]:
    """Class -> visitMetrics-registered field names, extracted from the
    statement trees of visitMetrics methods: every `v.field(..., X)` /
    `v.value(..., X)` call registers the member named by its last
    name-path argument."""
    out: dict[str, set[str]] = {}

    def walk_expr(e, fields: set[str]):
        if not isinstance(e, dict):
            return
        if e.get("k") == "call":
            simple = e.get("name", "").split(".")[-1].split("::")[-1]
            args = e.get("args", [])
            if simple in ("field", "value") and args:
                last = args[-1]
                if isinstance(last, dict) and last.get("k") == "name":
                    fields.add(last["path"].split(".")[-1])
            for a in args:
                walk_expr(a, fields)
        else:
            for key in ("l", "r", "e", "c", "t", "f", "base", "index",
                        "rhs", "dst", "init"):
                if key in e:
                    walk_expr(e[key], fields)

    def walk(stmts, fields: set[str]):
        for st in stmts:
            for key in ("e", "c", "init", "rhs", "dst", "container"):
                if key in st and isinstance(st[key], dict):
                    walk_expr(st[key], fields)
            for key in ("then", "els", "body", "init", "inc"):
                if key in st and isinstance(st[key], list):
                    walk(st[key], fields)

    for f in model.functions:
        if f["name"] != "visitMetrics" or not f.get("class"):
            continue
        fields: set[str] = set()
        walk(f.get("stmts") or [], fields)
        if fields:
            out.setdefault(f["class"], set()).update(fields)
    return out


def det_taint(model: ir.ProgramModel) -> list[Finding]:
    """Nondeterminism sources must not flow into determinism-audited
    outputs. Sources: unordered-container iteration order, thread ids,
    host wall-clock time, pointer-valued ordering keys
    (reinterpret_cast to [u]intptr_t). Sinks: visitMetrics-registered
    metric fields, trace span/record arguments, JSON report writers.

    Flow-sensitive (a tainted variable overwritten with a clean value is
    clean downstream) and interprocedural (helper return taint and
    parameter-to-sink flows summarize across the call graph). Host-time
    reads that stay in logging-free locals are fine — only the flow into
    an audited output is a finding, because that is what breaks the
    bit-identical determinism gates (DESIGN.md §5).
    """
    metric_fields = _metric_fields(model)
    enclosing = {f["id"]: _enclosing_class(model, f)
                 for f in model.functions}
    class_members = {c["name"]: {m["name"]: m["type"]
                                 for m in c.get("members", [])}
                     for c in model.classes}
    sites = dataflow.run_det_taint(model, metric_fields, enclosing,
                                   class_members)

    sites.sort(key=lambda x: (x["fn"]["file"], x["fn"]["line"],
                              x["line"]))
    counters: dict[tuple[str, str], int] = {}
    findings: list[Finding] = []
    for x in sites:
        f = x["fn"]
        host = _enclosing_host(model, f)
        host_label = host.get("qualname") or host["name"]
        labels = ",".join(x["labels"])
        ck = (host_label, x["desc"])
        ordinal = counters.get(ck, 0)
        counters[ck] = ordinal + 1
        if _suppressed(model, "det-taint", f["file"], x["line"]):
            continue
        sources = "; ".join(
            dataflow.LABEL_DESCRIPTIONS.get(lb, lb)
            for lb in x["labels"])
        suffix = f"#{ordinal}" if ordinal else ""
        findings.append(Finding(
            rule="det-taint",
            file=f["file"],
            line=x["line"],
            key=f"{host_label}:{x['desc']}:{labels}{suffix}",
            message=(
                f"nondeterministic value ({sources}) flows into "
                f"{x['desc']} in {host_label}; determinism-audited "
                f"outputs must be derived from simulated state only — "
                f"sort the iteration, use sim time, or add "
                f"'// chopin-analyze: allow(det-taint)' with the reason "
                f"the value is stable across runs"),
        ))
    return findings


# ---------------------------------------------------------------------------
# unknown-allow


def unknown_allow(model: ir.ProgramModel) -> list[Finding]:
    """Every `// chopin-analyze: allow(<rule>)` comment must name a pass
    that exists. A suppression naming a retired or misspelled pass
    silences nothing, so it would stay in the tree unnoticed.

    Suppression lines are the lexer's effective lines: a comment-only
    allow line also governs the next line, so a rule repeated on the
    line directly below the one that names it is that expansion and is
    reported once, at the comment.
    """
    findings: list[Finding] = []
    for file in sorted(model.suppressions):
        lines = model.suppressions[file]
        ordinals: dict[str, int] = {}
        for line in sorted(lines):
            for rule in lines[line]:
                if rule in PASSES or rule in lines.get(line - 1, []):
                    continue
                ordinal = ordinals.get(rule, 0)
                ordinals[rule] = ordinal + 1
                if _suppressed(model, "unknown-allow", file, line):
                    continue
                suffix = f"#{ordinal}" if ordinal else ""
                findings.append(Finding(
                    rule="unknown-allow",
                    file=file,
                    line=line,
                    key=f"allow({rule}){suffix}",
                    message=(
                        f"suppression names unknown pass '{rule}' "
                        f"(passes: {', '.join(sorted(PASSES))}); remove "
                        f"it or correct the name"),
                ))
    return findings


# ---------------------------------------------------------------------------

PASSES = {
    "seq-reach": seq_reach,
    "lock-coverage": lock_coverage,
    "det-float": det_float,
    "tick-narrow": tick_narrow,
    "partition-escape": partition_escape,
    "det-taint": det_taint,
    "unknown-allow": unknown_allow,
}


def run_passes(model: ir.ProgramModel,
               only: list[str] | None = None,
               timings: dict[str, float] | None = None) -> list[Finding]:
    """Run the requested passes (all by default). When @p timings is a
    dict, per-pass wall-clock seconds are recorded into it."""
    names = only or sorted(PASSES)
    out: list[Finding] = []
    for name in names:
        t0 = time.monotonic()
        out.extend(PASSES[name](model))
        if timings is not None:
            timings[name] = round(time.monotonic() - t0, 4)
    out.sort(key=lambda f: (f.file, f.line, f.rule, f.key))
    return out
