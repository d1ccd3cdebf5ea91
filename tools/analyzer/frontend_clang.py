"""libclang (clang.cindex) frontend for chopin-analyze.

Parses each TU listed in compile_commands.json and reduces it to the
same JSON summary schema the lite frontend emits (ir.py). Semantic
resolution replaces name matching: call edges carry the *qualified* name
of the referenced declaration, so ir.resolve_call hits by_qualname
exactly and the AMBIGUOUS_METHOD_NAMES escape hatch is never needed.

Availability is probed, not assumed: `available()` returns a reason
string when the python bindings or libclang.so are missing, and the
driver downgrades to the lite frontend (or exits 77 when the clang
frontend was explicitly requested). Set CHOPIN_LIBCLANG to point at a
specific libclang shared object.
"""

from __future__ import annotations

import json
import os
import pathlib

import cxxlex
import stmts as stmts_mod

FRONTEND_NAME = "clang"

_cindex = None
_unavailable_reason: str | None = None


def available() -> str | None:
    """None when usable; otherwise a human-readable reason."""
    global _cindex, _unavailable_reason
    if _cindex is not None:
        return None
    if _unavailable_reason is not None:
        return _unavailable_reason
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError as e:
        _unavailable_reason = f"python clang bindings not importable: {e}"
        return _unavailable_reason
    lib = os.environ.get("CHOPIN_LIBCLANG")
    if lib:
        try:
            cindex.Config.set_library_file(lib)
        except Exception as e:  # noqa: BLE001 — cindex raises broadly
            _unavailable_reason = f"CHOPIN_LIBCLANG unusable: {e}"
            return _unavailable_reason
    try:
        cindex.Index.create()
    except Exception as e:  # noqa: BLE001
        _unavailable_reason = f"libclang not loadable: {e}"
        return _unavailable_reason
    _cindex = cindex
    return None


def _clean_args(command: dict) -> list[str]:
    """Compiler args from a compile_commands entry, minus compiler/-c/-o."""
    if "arguments" in command:
        argv = list(command["arguments"])
    else:
        import shlex  # noqa: PLC0415
        argv = shlex.split(command["command"])
    out: list[str] = []
    skip_next = False
    for a in argv[1:]:
        if skip_next:
            skip_next = False
            continue
        if a in ("-c", command.get("file", "")):
            continue
        if a == "-o":
            skip_next = True
            continue
        out.append(a)
    return out


def _qualname(cursor) -> str:
    parts: list[str] = []
    c = cursor
    ck = _cindex.CursorKind
    while c is not None and c.kind != ck.TRANSLATION_UNIT:
        if c.kind in (ck.NAMESPACE, ck.CLASS_DECL, ck.STRUCT_DECL,
                      ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                      ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE,
                      ck.CLASS_TEMPLATE):
            name = c.spelling or "(anon)"
            parts.insert(0, name)
        c = c.semantic_parent
    return "::".join(parts)


def _tokens_text(cursor) -> list[str]:
    try:
        return [t.spelling for t in cursor.get_tokens()]
    except Exception:  # noqa: BLE001 — token extent errors on macro decls
        return []


_SYNC_WORDS = ("Mutex", "mutex", "atomic", "condition_variable")


class _TuWalker:
    def __init__(self, root: pathlib.Path, rel: str):
        self.root = root
        self.rel = rel
        self.functions: list[dict] = []
        self.classes: list[dict] = []
        self.lambda_counter = 0
        # LAMBDA_EXPR cursor hash -> function node, so pool call sites can
        # attach worker lambdas structurally (_attach_parallel).
        self.lambda_nodes: dict[int, dict] = {}
        # Raw source bytes per absolute path, for body-extent re-lexing.
        self._file_bytes: dict[str, bytes | None] = {}

    def _rel_of(self, cursor) -> str | None:
        loc = cursor.location
        if loc.file is None:
            return None
        p = pathlib.Path(loc.file.name)
        try:
            return p.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def _new_function(self, cursor, rel: str, kind: str,
                      name: str | None = None) -> dict:
        nm = name or cursor.spelling or "<lambda>"
        line = cursor.location.line
        if kind == "lambda":
            self.lambda_counter += 1
            fid = f"{rel}:{line}:lambda#{self.lambda_counter}"
        else:
            fid = f"{rel}:{line}:{nm}"
        ret = ""
        try:
            ret = cursor.result_type.spelling
        except Exception:  # noqa: BLE001
            pass
        f = {
            "id": fid, "name": nm,
            "qualname": _qualname(cursor) if kind != "lambda" else "",
            "kind": kind, "file": rel, "line": line, "enclosing": "",
            "calls": [], "parallel_callbacks": [],
            "asserts_sequential": False, "requires_sequential": False,
            "scenario_barrier": False, "captures_ref": False,
            "compound_float_writes": [], "narrow_conversions": [],
            "return_type": ret,
            "params": [], "stmts": [], "captures": [],
        }
        self.functions.append(f)
        return f

    # -- declarations ------------------------------------------------------

    def walk(self, cursor) -> None:
        ck = _cindex.CursorKind
        for c in cursor.get_children():
            rel = self._rel_of(c)
            if rel is None:
                continue
            if c.kind in (ck.NAMESPACE, ck.UNEXPOSED_DECL,
                          ck.LINKAGE_SPEC):
                self.walk(c)
            elif c.kind in (ck.CLASS_DECL, ck.STRUCT_DECL,
                            ck.CLASS_TEMPLATE):
                if c.is_definition():
                    self._walk_class(c, rel)
            elif c.kind in (ck.FUNCTION_DECL, ck.CXX_METHOD,
                            ck.CONSTRUCTOR, ck.DESTRUCTOR,
                            ck.FUNCTION_TEMPLATE):
                self._walk_function_decl(c, rel)

    def _walk_class(self, cursor, rel: str) -> None:
        ck = _cindex.CursorKind
        cls = {
            "name": cursor.spelling, "qualname": _qualname(cursor),
            "file": rel, "line": cursor.location.line,
            "mutex_members": [], "has_sequential_cap": False,
            "members": [],
        }
        self.classes.append(cls)
        for c in cursor.get_children():
            crel = self._rel_of(c) or rel
            if c.kind == ck.FIELD_DECL:
                tokens = _tokens_text(c)
                guarded = ""
                for i, t in enumerate(tokens):
                    if t in ("CHOPIN_GUARDED_BY", "CHOPIN_PT_GUARDED_BY"):
                        guarded = "".join(tokens[i + 2:i + 6]).split(")")[0]
                        break
                tspell = c.type.spelling
                is_sync = any(w in tspell for w in _SYNC_WORDS)
                is_cap = "SequentialCap" in tspell
                member = {
                    "name": c.spelling, "line": c.location.line,
                    "type": tspell,
                    "is_const": c.type.is_const_qualified(),
                    "is_static": False,
                    "is_sync": is_sync, "is_capability": is_cap,
                    "guarded_by": guarded,
                }
                cls["members"].append(member)
                if "Mutex" in tspell and "mutex" not in tspell:
                    cls["mutex_members"].append(c.spelling)
                if is_cap:
                    cls["has_sequential_cap"] = True
            elif c.kind in (ck.CXX_METHOD, ck.CONSTRUCTOR, ck.DESTRUCTOR,
                            ck.FUNCTION_TEMPLATE):
                self._walk_function_decl(c, crel)
            elif c.kind in (ck.CLASS_DECL, ck.STRUCT_DECL):
                if c.is_definition():
                    self._walk_class(c, crel)

    def _walk_function_decl(self, cursor, rel: str) -> None:
        tokens_head = _tokens_text(cursor)[:64]
        requires = any(t in ("CHOPIN_REQUIRES", "CHOPIN_REQUIRES_SHARED")
                       for t in tokens_head)
        if not cursor.is_definition():
            if requires:
                f = self._new_function(cursor, rel, "decl")
                f["requires_sequential"] = True
            return
        kind = "method" if cursor.kind in (
            _cindex.CursorKind.CXX_METHOD, _cindex.CursorKind.CONSTRUCTOR,
            _cindex.CursorKind.DESTRUCTOR) else "function"
        f = self._new_function(cursor, rel, kind)
        f["requires_sequential"] = requires
        try:
            f["params"] = [{"name": a.spelling, "type": a.type.spelling}
                           for a in cursor.get_arguments() if a.spelling]
        except Exception:  # noqa: BLE001
            pass
        lam_start = len(self.functions)
        self._walk_body(cursor, f, rel)
        lam_recs = [g for g in self.functions[lam_start:]
                    if g["kind"] == "lambda"]
        self._build_stmts(cursor, f, lam_recs)

    # -- bodies ------------------------------------------------------------

    def _read_bytes(self, path: str) -> bytes | None:
        cached = self._file_bytes.get(path, False)
        if cached is not False:
            return cached
        try:
            data = pathlib.Path(path).read_bytes()
        except OSError:
            data = None
        self._file_bytes[path] = data
        return data

    def _build_stmts(self, cursor, f: dict, lam_recs: list[dict]) -> None:
        """Re-lex the function body's source extent through cxxlex and run
        the shared statement builder (stmts.py).

        This deliberately bypasses the clang AST for statement structure:
        feeding the identical token stream both frontends see through one
        builder guarantees byte-identical `stmts`/`captures` records, so
        the flow-sensitive passes behave the same under either frontend
        (see stmts.py module comment).
        """
        ck = _cindex.CursorKind
        body = None
        for c in cursor.get_children():
            if c.kind == ck.COMPOUND_STMT:
                body = c
        if body is None:
            return
        ext = body.extent
        if ext.start.file is None:
            return
        data = self._read_bytes(ext.start.file.name)
        if data is None:
            return
        seg = data[ext.start.offset:ext.end.offset].decode(
            errors="replace")
        toks, _raw = cxxlex.lex(seg)
        if not toks or toks[0].text != "{":
            return
        off = ext.start.line - 1
        toks = [cxxlex.Token(t.kind, t.text, t.line + off) for t in toks]
        scopes: list[dict] = []
        parent = cursor.semantic_parent
        if parent is not None and parent.kind in (
                ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE):
            members: dict[str, str] = {}
            for m in parent.get_children():
                if m.kind == ck.FIELD_DECL:
                    members[m.spelling] = m.type.spelling
            scopes.append(members)
        scopes.append({p["name"]: p["type"] for p in f.get("params", [])})
        trees, built = stmts_mod.build(toks, 1, len(toks), scopes=scopes)
        f["stmts"] = trees
        # The builder's flat lambda list is in textual '[' order — the
        # same pre-order _walk_body created the lambda nodes in. Zip
        # positionally, with a line check as the divergence safety net.
        for rec, b in zip(lam_recs, built):
            if rec["line"] != b["line"]:
                break
            rec["stmts"] = b["stmts"]
            rec["captures"] = b["captures"]
            rec["params"] = b["params"]

    def _walk_body(self, cursor, node: dict, rel: str) -> None:
        """Record calls / lambdas / writes in @p cursor's subtree,
        stopping at nested lambda boundaries (they get their own node)."""
        ck = _cindex.CursorKind
        for c in cursor.get_children():
            if c.kind == ck.LAMBDA_EXPR:
                lam = self._walk_lambda(c, node, rel)
                self.lambda_nodes[c.hash] = lam
                node["calls"].append({"name": "<lambda>", "receiver": "",
                                      "line": c.location.line,
                                      "lambda_id": lam["id"]})
                continue
            if c.kind == ck.CALL_EXPR:
                pool_callee = self._record_call(c, node)
                # Walk the call's subtree first so any lambda arguments
                # exist as nodes, then attach them structurally.
                self._walk_body(c, node, rel)
                if pool_callee:
                    self._attach_parallel(c, node, pool_callee)
                continue
            if c.kind == ck.COMPOUND_ASSIGNMENT_OPERATOR:
                self._record_compound(c, node)
            elif c.kind == ck.VAR_DECL:
                self._record_var_decl(c, node)
            self._walk_body(c, node, rel)

    def _walk_lambda(self, cursor, enclosing: dict, rel: str) -> dict:
        lam = self._new_function(cursor, rel, "lambda")
        lam["qualname"] = \
            f"{enclosing.get('qualname') or enclosing['name']}::" \
            f"lambda#{self.lambda_counter}"
        lam["enclosing"] = enclosing["id"]
        toks = _tokens_text(cursor)
        cap: list[str] = []
        for t in toks[1:40]:
            if t == "]":
                break
            cap.append(t)
        lam["captures_ref"] = "&" in "".join(cap)
        self._walk_body(cursor, lam, rel)
        return lam

    def _record_call(self, cursor, node: dict) -> str | None:
        """Record a call edge; returns the callee simple name when the
        call is a ThreadPool entry point (parallelFor/submit)."""
        ref = cursor.referenced
        name = cursor.spelling or (ref.spelling if ref else "")
        if not name:
            return None
        qual = _qualname(ref) if ref is not None else name
        node["calls"].append({"name": qual or name, "receiver": "",
                              "line": cursor.location.line})
        simple = (qual or name).split("::")[-1]
        if simple in ("assertHeld", "assertSequential"):
            node["asserts_sequential"] = True
        if simple in ("parallelFor", "submit"):
            return simple
        return None

    def _attach_parallel(self, call_cursor, node: dict,
                         callee: str) -> None:
        """Attach worker lambdas to a pool call site structurally: any
        LAMBDA_EXPR inside the call expression, plus lambdas stored in a
        local variable and passed by name (the DECL_REF_EXPR argument is
        chased to its VAR_DECL initializer)."""
        ck = _cindex.CursorKind
        seen: set[int] = set()
        stack = list(call_cursor.get_children())
        while stack:
            c = stack.pop()
            if c.hash in seen:
                continue
            seen.add(c.hash)
            if c.kind == ck.LAMBDA_EXPR:
                lam = self.lambda_nodes.get(c.hash)
                if lam is not None:
                    node["parallel_callbacks"].append(
                        {"callee": callee,
                         "line": call_cursor.location.line,
                         "lambda_id": lam["id"]})
                continue  # the lambda body is its own node
            if c.kind == ck.DECL_REF_EXPR and c.referenced is not None \
                    and c.referenced.kind == ck.VAR_DECL:
                stack.extend(c.referenced.get_children())
            stack.extend(c.get_children())

    def _record_compound(self, cursor, node: dict) -> None:
        children = list(cursor.get_children())
        if not children:
            return
        lhs = children[0]
        tspell = ""
        try:
            tspell = lhs.type.spelling
        except Exception:  # noqa: BLE001
            pass
        if "float" not in tspell and "double" not in tspell:
            return
        toks = _tokens_text(cursor)
        op = next((t for t in toks if t in ("+=", "-=", "*=", "/=")), "+=")
        target = "".join(toks[:toks.index(op)]) if op in toks else \
            "".join(toks[:4])
        base_ref = _first_declref(lhs)
        base = base_ref.spelling if base_ref is not None else target
        local = False
        if base_ref is not None and base_ref.referenced is not None:
            decl = base_ref.referenced
            local = decl.kind in (_cindex.CursorKind.VAR_DECL,
                                  _cindex.CursorKind.PARM_DECL) and \
                _within_current_lambda(decl, cursor)
        subscripted = _has_subscript(lhs)
        node["compound_float_writes"].append({
            "line": cursor.location.line, "target": target, "op": op,
            "base": base, "local": local, "subscripted": subscripted,
            "evidence": "typed",
        })

    def _record_var_decl(self, cursor, node: dict) -> None:
        import ir  # noqa: PLC0415
        tspell = cursor.type.spelling.replace("const ", "").strip(" &*")
        short = tspell.split("::")[-1]
        if short not in ir.NARROW_DEST_TYPES and \
                tspell not in ir.NARROW_DEST_TYPES:
            return
        wide_ref = None
        explicit = False
        ck = _cindex.CursorKind
        stack = list(cursor.get_children())
        while stack:
            c = stack.pop()
            if c.kind in (ck.CXX_STATIC_CAST_EXPR,
                          ck.CXX_FUNCTIONAL_CAST_EXPR,
                          ck.CSTYLE_CAST_EXPR):
                explicit = True
                continue
            if c.kind == ck.CALL_EXPR:
                continue  # call results are the callee's business
            if c.kind == ck.DECL_REF_EXPR:
                rspell = c.type.spelling
                if any(w in rspell for w in ("Tick", "Bytes")) and \
                        "std::" not in rspell:
                    wide_ref = c
            stack.extend(c.get_children())
        if explicit or wide_ref is None:
            return
        node["narrow_conversions"].append({
            "line": cursor.location.line,
            "src": wide_ref.type.spelling, "dst": short,
            "detail": f"'{wide_ref.spelling}' ({wide_ref.type.spelling}) "
                      f"initializes {short} '{cursor.spelling}'",
        })


def _first_declref(cursor):
    ck = _cindex.CursorKind
    if cursor.kind in (ck.DECL_REF_EXPR, ck.MEMBER_REF_EXPR):
        return cursor
    for c in cursor.get_children():
        r = _first_declref(c)
        if r is not None:
            return r
    return None


def _has_subscript(cursor) -> bool:
    ck = _cindex.CursorKind
    if cursor.kind == ck.ARRAY_SUBSCRIPT_EXPR:
        return True
    if cursor.kind == ck.CALL_EXPR and cursor.spelling == "operator[]":
        return True
    return any(_has_subscript(c) for c in cursor.get_children())


def _within_current_lambda(decl, site) -> bool:
    """True when @p decl is declared inside the nearest lambda (or
    function) enclosing @p site — i.e. not captured state."""
    ck = _cindex.CursorKind
    c = site
    while c is not None and c.kind != ck.LAMBDA_EXPR and \
            c.kind not in (ck.FUNCTION_DECL, ck.CXX_METHOD,
                           ck.CONSTRUCTOR, ck.DESTRUCTOR):
        c = c.semantic_parent
    if c is None:
        return False
    d = decl
    while d is not None:
        if d == c:
            return True
        d = d.semantic_parent
    return False


def parse_file(root: pathlib.Path, rel: str,
               compile_args: list[str]) -> dict:
    """Parse one TU into a summary; raises RuntimeError on hard failure."""
    reason = available()
    if reason:
        raise RuntimeError(reason)
    index = _cindex.Index.create()
    tu = index.parse(str(root / rel), args=compile_args,
                     options=_cindex.TranslationUnit.
                     PARSE_DETAILED_PROCESSING_RECORD)
    walker = _TuWalker(root.resolve(), rel)
    walker.walk(tu.cursor)

    # Suppression comments come from the lexer (simpler and
    # frontend-agnostic to reuse cxxlex). A TU contributes entities from
    # every in-repo header it includes, and findings on those entities
    # carry the *header's* path — so every contributing file is lexed and
    # suppressions are emitted keyed per file, not just for the main .cc.
    import cxxlex  # noqa: PLC0415
    contributing = {rel}
    contributing.update(f["file"] for f in walker.functions)
    contributing.update(c["file"] for c in walker.classes)
    supp_map: dict[str, dict[str, list[str]]] = {}
    for frel in sorted(contributing):
        try:
            text = (root / frel).read_text(errors="replace")
        except OSError:
            continue
        toks, raw = cxxlex.lex(text)
        supp = cxxlex.effective_suppressions(toks, raw)
        if supp:
            supp_map[frel] = {str(k): v for k, v in supp.items()}
    return {
        "file": rel,
        "frontend": FRONTEND_NAME,
        "functions": walker.functions,
        "classes": walker.classes,
        "suppressions": supp_map,
    }


def load_compile_commands(build_dir: pathlib.Path) -> dict[str, list[str]]:
    """Map absolute source path -> cleaned compiler args."""
    ccj = build_dir / "compile_commands.json"
    entries = json.loads(ccj.read_text())
    out: dict[str, list[str]] = {}
    for e in entries:
        src = pathlib.Path(e["directory"]) / e["file"] \
            if not pathlib.Path(e["file"]).is_absolute() \
            else pathlib.Path(e["file"])
        out[str(src.resolve())] = _clean_args(e)
    return out
