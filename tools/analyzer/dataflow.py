"""Flow-sensitive dataflow framework for chopin-analyze.

Layers (DESIGN.md §13):

  1. CFG lowering — the structured statement trees built by stmts.py
     (identical under both frontends) lower to basic blocks with
     successor edges. Loops get head/body/exit blocks; `break` /
     `continue` edge to the loop exit/head; `return` terminates its
     block. Condition expressions are emitted as plain `expr` statements
     into the branching block so calls inside them are still evaluated.

  2. Worklist fixpoint — a generic iterative solver over the CFG.
     Abstract states are dicts (variable path -> abstract value); a
     block's out-state joins into each successor's in-state until no
     state changes. Joins at a block are counted and widened past a
     visit budget, so loop-carried state terminates.

  3. Function summaries — each function is solved to a summary (return
     taint, parameter-to-sink flows). Summaries of callees feed the
     evaluation of call expressions, and the whole program iterates
     rounds over the cross-TU call graph until every summary is stable
     (bounded; the final round is fixpoint-consistent and is the one
     findings are reported from).

Domain (det-taint): values are label sets. Sources: unordered-container
iteration order, thread ids, host wall-clock time, pointer-keyed
ordering (reinterpret_cast to [u]intptr_t). "param:i" pseudo-labels
seed parameters so flows through helpers summarize as
parameter-to-sink obligations checked at every call site.
"""

from __future__ import annotations

import ir

# ---------------------------------------------------------------------------
# CFG lowering.

_MAX_JOINS = 24


def lower(stmts: list[dict]) -> tuple[list[list[dict]], list[list[int]],
                                      int]:
    """Lower a structured statement tree to (blocks, succs, entry)."""
    blocks: list[list[dict]] = []
    succs: list[list[int]] = []

    def nb() -> int:
        blocks.append([])
        succs.append([])
        return len(blocks) - 1

    entry = nb()

    def walk(sts, b, brk, cont):
        for st in sts:
            k = st.get("k")
            if k in ("decl", "asg", "assume", "expr"):
                blocks[b].append(st)
            elif k == "ret":
                blocks[b].append(st)
                b = nb()  # unreachable continuation
            elif k == "jump":
                target = brk if st.get("kind") == "break" else cont
                if target is not None:
                    succs[b].append(target)
                b = nb()
            elif k == "if":
                blocks[b].append({"k": "expr", "e": st["c"],
                                  "line": st.get("line", 0)})
                tb, eb = nb(), nb()
                succs[b] += [tb, eb]
                t_end = walk(st.get("then", []), tb, brk, cont)
                e_end = walk(st.get("els", []), eb, brk, cont)
                jb = nb()
                succs[t_end].append(jb)
                succs[e_end].append(jb)
                b = jb
            elif k == "loop":
                b = walk(st.get("init", []), b, brk, cont)
                head = nb()
                succs[b].append(head)
                if st.get("range"):
                    blocks[head].append({
                        "k": "iterset", "var": st.get("var", ""),
                        "container": st.get("container"),
                        "container_type": st.get("container_type", ""),
                        "line": st.get("line", 0)})
                elif st.get("c") is not None:
                    blocks[head].append({"k": "expr", "e": st["c"],
                                         "line": st.get("line", 0)})
                body_b, exit_b = nb(), nb()
                succs[head] += [body_b, exit_b]
                b_end = walk(st.get("body", []), body_b, exit_b, head)
                b_end = walk(st.get("inc", []), b_end, brk, cont)
                succs[b_end].append(head)
                b = exit_b
            elif k == "blk":
                b = walk(st.get("body", []), b, brk, cont)
        return b

    walk(stmts, entry, None, None)
    return blocks, succs, entry


def solve(blocks, succs, entry, analysis):
    """Iterate the worklist to fixpoint; returns per-block in-states
    (None = block never reached)."""
    n = len(blocks)
    instates: list[dict | None] = [None] * n
    instates[entry] = analysis.initial()
    joins = [0] * n
    wl = [entry]
    while wl:
        b = wl.pop()
        if instates[b] is None:
            continue
        s = dict(instates[b])
        for st in blocks[b]:
            s = analysis.transfer(st, s)
        for t in succs[b]:
            cur = instates[t]
            if cur is None:
                nxt = dict(s)
            else:
                nxt = analysis.join_state(cur, s)
                joins[t] += 1
                if joins[t] > _MAX_JOINS:
                    nxt = analysis.widen_state(cur, nxt)
            if nxt != cur:
                instates[t] = nxt
                wl.append(t)
    return instates


def record(blocks, instates, analysis):
    """One fixpoint-consistent pass with observation enabled."""
    analysis.recording = True
    for b, sts in enumerate(blocks):
        if instates[b] is None:
            continue
        s = dict(instates[b])
        for st in sts:
            s = analysis.transfer(st, s)
    analysis.recording = False


# ---------------------------------------------------------------------------
# Call resolution over expression nodes.


def callee_candidates(model, node):
    path = node.get("name", "")
    if node.get("recv"):
        call = {"name": path.split("::")[-1], "receiver": ""}
    elif "." in path:
        segs = path.split(".")
        call = {"name": segs[-1],
                "receiver": segs[-2].split("::")[-1]}
    else:
        call = {"name": path, "receiver": ""}
    return ir.resolve_call(model, call)


def simple_callee(node) -> str:
    return node.get("name", "").split(".")[-1].split("::")[-1]


# ---------------------------------------------------------------------------
# Taint analysis (det-taint).

_THREAD_SOURCES = {"get_id", "pthread_self", "gettid"}
_TIME_SOURCES = {"time", "gettimeofday", "clock_gettime", "timestamp"}
_SINK_TRACE = {"span", "record"}
_SINK_JSON = {"value", "field", "key"}

LABEL_DESCRIPTIONS = {
    "unordered-iter": "unordered-container iteration order",
    "thread-id": "thread identity",
    "host-time": "host wall-clock time",
    "pointer-key": "pointer-valued ordering key",
}


def _real_labels(labels):
    return frozenset(x for x in labels if not x.startswith("param:"))


def _param_indices(labels):
    return sorted(int(x.split(":")[1]) for x in labels
                  if x.startswith("param:"))


class TaintAnalysis:
    """Per-function taint propagation with interprocedural summaries.

    Summary: {"ret": frozenset(labels), "ret_params": [i, ...],
              "sink_params": [(i, desc), ...]}
    """

    def __init__(self, fn, model, summaries, metric_fields,
                 enclosing_class="", member_types=None):
        self.fn = fn
        self.model = model
        self.summaries = summaries
        self.metric_fields = metric_fields
        self.enclosing_class = enclosing_class
        self.recording = False
        self.ret_acc: set[str] = set()
        self.sink_params: list[tuple] = []
        self.sites: list[dict] = []
        # Flow-insensitive type environment: enclosing-class members,
        # params, captures, decls (later layers shadow earlier ones).
        self.types: dict[str, str] = dict(member_types or {})
        for p in fn.get("params", []):
            self.types[p["name"]] = p.get("type", "")
        for c in fn.get("captures", []):
            if c.get("type"):
                self.types[c["name"]] = c["type"]
        self._collect_types(fn.get("stmts") or [])

    def _collect_types(self, stmts):
        for st in stmts:
            k = st.get("k")
            if k == "decl" and st.get("type"):
                self.types.setdefault(st["name"], st["type"])
            elif k == "if":
                self._collect_types(st.get("then", []))
                self._collect_types(st.get("els", []))
            elif k == "loop":
                self._collect_types(st.get("init", []))
                self._collect_types(st.get("inc", []))
                self._collect_types(st.get("body", []))
            elif k == "blk":
                self._collect_types(st.get("body", []))

    # -- framework interface --

    def initial(self):
        return {name: frozenset({f"param:{i}"})
                for i, name in enumerate(
                    p["name"] for p in self.fn.get("params", []))}

    def join_state(self, a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, frozenset()) | v
        return out

    def widen_state(self, old, new):
        return self.join_state(old, new)  # finite label sets

    def transfer(self, st, s):
        k = st["k"]
        if k == "expr":
            self._taint_of(st.get("e"), s)
            return s
        if k == "assume":
            self._taint_of(st.get("c"), s)
            return s
        if k == "decl":
            t = self._taint_of(st["init"], s) if st.get("init") \
                else frozenset()
            self._assign(st["name"], t, s, st)
        elif k == "asg":
            dst = st["dst"]
            key = dst.get("path") if dst.get("k") == "name" else None
            rhs = self._taint_of(st["rhs"], s)
            if key is not None:
                if st.get("op", "=") != "=":
                    rhs = rhs | s.get(key, frozenset())
                self._assign(key, rhs, s, st)
        elif k == "ret":
            if self.recording and st.get("e") is not None:
                self.ret_acc |= self._taint_of(st["e"], s)
        elif k == "iterset":
            labels = self._taint_of(st.get("container"), s)
            if "unordered_" in st.get("container_type", ""):
                labels = labels | {"unordered-iter"}
            if st.get("var"):
                if labels:
                    s[st["var"]] = frozenset(labels)
                else:
                    s.pop(st["var"], None)
        return s

    # -- helpers --

    def _assign(self, key, labels, s, st):
        if self.recording and labels:
            self._check_metric_sink(key, labels, st)
        if labels:
            s[key] = frozenset(labels)
        else:
            s.pop(key, None)

    def _check_metric_sink(self, key, labels, st):
        real = _real_labels(labels)
        parms = _param_indices(labels)
        base, _, field = key.rpartition(".")
        cls = ""
        if base:
            cls = self._class_of(self.types.get(base.split(".")[0], ""))
        elif self.enclosing_class:
            cls, field = self.enclosing_class, key
        if not cls and self.types.get(key):
            # Whole-variable write to a metrics struct.
            cls = self._class_of(self.types[key])
            field = "*" if cls in self.metric_fields else ""
        fields = self.metric_fields.get(cls)
        if not fields or (field != "*" and field not in fields):
            return
        desc = f"visitMetrics-registered field {cls}::{field}"
        self._sink(desc, real, parms, st.get("line", 0))

    def _class_of(self, type_text: str) -> str:
        for cls in self.metric_fields:
            if _word_in(type_text, cls):
                return cls
        return ""

    def _sink(self, desc, real, parms, line):
        for i in parms:
            self.sink_params.append((i, desc))
        if real:
            self.sites.append({
                "fn": self.fn, "line": line or self.fn["line"],
                "desc": desc, "labels": sorted(real)})

    def _taint_of(self, e, s):
        if not isinstance(e, dict):
            return frozenset()
        k = e.get("k")
        if k in ("num", "str", "lambda", "unk"):
            return frozenset()
        if k == "name":
            return self._lookup(e.get("path", ""), s)
        if k == "cast":
            inner = self._taint_of(e.get("e"), s)
            if "intptr" in e.get("type", ""):
                inner = inner | {"pointer-key"}
            return inner
        if k == "call":
            return self._taint_call(e, s)
        out = frozenset()
        for key in ("l", "r", "e", "c", "t", "f", "base", "index"):
            if key in e:
                out = out | self._taint_of(e[key], s)
        for a in e.get("args", []):
            out = out | self._taint_of(a, s)
        return out

    def _lookup(self, path, s):
        out = s.get(path)
        if out is not None:
            return out
        # Prefix relations: tainted aggregate taints its members and
        # vice versa (weak field sensitivity).
        out = frozenset()
        for key, labels in s.items():
            if path.startswith(key + ".") or key.startswith(path + "."):
                out = out | labels
        return out

    def _taint_call(self, e, s):
        args = [self._taint_of(a, s) for a in e.get("args", [])]
        path = e.get("name", "")
        simple = simple_callee(e)
        # Sources.
        if simple in _THREAD_SOURCES or "this_thread" in path:
            return frozenset({"thread-id"})
        low = path.lower()
        if simple == "now" and ("clock" in low or "chrono" in low):
            return frozenset({"host-time"})
        if simple in _TIME_SOURCES and "." not in path:
            return frozenset({"host-time"})
        # Sinks.
        if self.recording:
            self._check_call_sinks(e, args, s)
        # Propagation through resolved callees.
        out = frozenset()
        cands = callee_candidates(self.model, e)
        for cand in cands:
            summ = self.summaries.get(cand["id"])
            if summ is None:
                continue
            out = out | summ.get("ret", frozenset())
            for i in summ.get("ret_params", []):
                if i < len(args):
                    out = out | args[i]
            if self.recording:
                for (i, desc) in summ.get("sink_params", []):
                    if i < len(args):
                        self._sink(desc, _real_labels(args[i]),
                                   _param_indices(args[i]),
                                   e.get("line", 0))
        if not cands:
            # Unresolved method call: propagate receiver and arg taint
            # (e.g. `m.size()`, `kv.first`).
            if "." in path:
                out = out | self._lookup(path.rsplit(".", 1)[0], s)
            for a in args:
                out = out | a
        return out

    def _check_call_sinks(self, e, args, s):
        simple = simple_callee(e)
        path = e.get("name", "")
        line = e.get("line", 0)
        if simple in _SINK_TRACE:
            for t in args:
                if t:
                    self._sink(f"trace span argument ({path})",
                               _real_labels(t), _param_indices(t), line)
        if simple in _SINK_JSON and "." in path:
            recv = path.rsplit(".", 1)[0].split(".")[0]
            if "JsonWriter" in self.types.get(recv, ""):
                for t in args:
                    if t:
                        self._sink(f"JSON report writer ({path})",
                                   _real_labels(t), _param_indices(t),
                                   line)

    def run(self):
        blocks, succs, entry = lower(self.fn.get("stmts") or [])
        instates = solve(blocks, succs, entry, self)
        record(blocks, instates, self)
        ret_params = sorted({i for i in _param_indices(self.ret_acc)})
        summary = {
            "ret": _real_labels(self.ret_acc),
            "ret_params": ret_params,
            "sink_params": sorted(set(self.sink_params)),
        }
        return summary, self.sites


def _word_in(text: str, word: str) -> bool:
    """Whole-word match of @p word in @p text, rejecting `word::` (a
    nested-type reference like Tracer::TrackId is not a Tracer)."""
    start = 0
    while True:
        i = text.find(word, start)
        if i < 0:
            return False
        before = text[i - 1] if i > 0 else " "
        after = text[i + len(word):i + len(word) + 2]
        if not (before.isalnum() or before == "_"):
            rest = text[i + len(word):].lstrip()
            if not (after[:1].isalnum() or after[:1] == "_") and \
                    not rest.startswith("::"):
                return True
        start = i + len(word)


def run_det_taint(model, metric_fields, enclosing_classes,
                  class_members=None) -> list[dict]:
    """Whole-program taint analysis; returns sink hits:
    {"fn", "line", "desc", "labels"}. @p enclosing_classes maps function
    id -> simple class name (for bare member-field writes in methods);
    @p class_members maps class simple name -> {member: type} so member
    receivers type-resolve inside methods."""
    summaries: dict[str, dict] = {}
    sites: dict[str, list[dict]] = {}
    funcs = model.functions
    members = class_members or {}
    for _ in range(8):
        changed = False
        for f in funcs:
            cls = enclosing_classes.get(f["id"], "")
            an = TaintAnalysis(f, model, summaries, metric_fields,
                               cls, members.get(cls))
            summ, fsites = an.run()
            sites[f["id"]] = fsites
            if summaries.get(f["id"]) != summ:
                summaries[f["id"]] = summ
                changed = True
        if not changed:
            break
    out: list[dict] = []
    for f in funcs:
        out.extend(sites.get(f["id"], []))
    return out
