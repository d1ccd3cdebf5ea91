"""Tokenizer-based frontend for chopin-analyze.

Builds the same TU summaries as frontend_clang (see ir.py for the schema)
without libclang: a structural scan over the token stream from cxxlex.py
tracks namespaces, classes, function definitions, lambda expressions,
call sites, local declarations and compound assignments.

Fidelity contract (documented in DESIGN.md §11): the lite frontend is a
*conservatively quiet* approximation — it resolves calls by name, skips
std-vocabulary method names it cannot type (ir.AMBIGUOUS_METHOD_NAMES),
and only reports float/narrowing evidence when a declared type is visible
in the surrounding scope. The clang frontend replaces name matching with
semantic resolution; the passes and report formats are identical.
"""

from __future__ import annotations

import pathlib

import cxxlex
import ir
import stmts as stmts_mod
from cxxlex import ID, NUM, PUNCT, Token

FRONTEND_NAME = "lite"

# Keywords that may directly precede a call expression.
_EXPR_KEYWORDS = {"return", "co_return", "throw", "new", "delete", "case",
                  "else", "do", "and", "or", "not"}
# Keywords never treated as callee / declaration names.
_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "catch", "new", "delete", "throw", "co_return", "co_await", "case",
    "default", "else", "do", "goto", "break", "continue", "using",
    "typedef", "static_assert", "decltype", "noexcept", "alignas",
    "operator", "template", "typename", "class", "struct", "enum",
    "union", "namespace", "public", "private", "protected", "friend",
    "try", "and", "or", "not", "this", "nullptr", "true", "false",
}
_TYPE_PUNCTS = {"::", "<", ">", "&", "*"}
_COMPOUND_OPS = {"+=", "-=", "*=", "/="}
_STMT_BOUNDARY = {";", "{", "}", "(", ")", ",", "?", ":"}

_ANNOTATION_PREFIX = "CHOPIN_"
_GUARD_MACROS = {"CHOPIN_GUARDED_BY", "CHOPIN_PT_GUARDED_BY"}
_SYNC_TYPE_WORDS = {"Mutex", "mutex", "recursive_mutex", "shared_mutex",
                    "timed_mutex", "atomic", "atomic_flag",
                    "condition_variable", "condition_variable_any"}

_FLOAT_TYPES = {"float", "double"}


def _is_float_literal(tok: Token) -> bool:
    return tok.kind == NUM and ("." in tok.text or
                                tok.text.rstrip("fFlL") != tok.text and
                                "." in tok.text)


class _Node:
    """A function / method / lambda being parsed."""

    def __init__(self, summary: dict, parent: "_Node | None"):
        self.summary = summary
        self.parent = parent
        self.locals: dict[str, str] = {}

    def lookup_type(self, name: str) -> str:
        node: _Node | None = self
        while node is not None:
            t = node.locals.get(name)
            if t is not None:
                return t
            node = node.parent
        return ""


class _Parser:
    def __init__(self, rel: str, tokens: list[Token]):
        self.rel = rel
        self.toks = tokens
        self.n = len(tokens)
        self.functions: list[dict] = []
        self.classes: list[dict] = []
        self.lambda_counter = 0
        # Class-member types, for method-scope wide/float lookups.
        self.current_class_members: list[dict[str, str]] = []
        # Deferred statement-tree builds: (function, body_lo, body_hi,
        # params_full, class summary | None, lambda records created while
        # parsing the body, in creation order). Deferred so class member
        # types are complete even when members are declared after the
        # inline methods that use them.
        self.pending_bodies: list[tuple] = []

    # -- helpers ----------------------------------------------------------

    def _new_function(self, name: str, qualname: str, kind: str, line: int,
                      enclosing: str, return_type: str = "") -> dict:
        f = {
            "id": f"{self.rel}:{line}:{name}",
            "name": name,
            "qualname": qualname,
            "kind": kind,
            "file": self.rel,
            "line": line,
            "enclosing": enclosing,
            "calls": [],
            "parallel_callbacks": [],
            "asserts_sequential": False,
            "requires_sequential": False,
            "scenario_barrier": False,
            "captures_ref": False,
            "compound_float_writes": [],
            "narrow_conversions": [],
            "return_type": return_type,
            "params": [],
            "stmts": [],
            "captures": [],
        }
        self.functions.append(f)
        return f

    @staticmethod
    def _strip_type(tokens: list[str]) -> str:
        """Base type name from declaration tokens ('const Tick &' -> Tick)."""
        words = [t for t in tokens
                 if t not in ("const", "mutable", "volatile", "constexpr",
                              "static", "inline", "explicit", "virtual",
                              "typename", "struct", "class", "auto")
                 and t not in _TYPE_PUNCTS]
        if not words:
            return ""
        # 'std :: uint32_t' -> take the last component; templated types
        # ('vector < int >') keep their head via the punct filter above.
        return words[-1] if len(words) > 1 and words[0] in ("std",) \
            else words[0] if len(words) == 1 else " ".join(words)

    @staticmethod
    def _type_words(tokens: list[str]) -> set[str]:
        return {t for t in tokens if t not in _TYPE_PUNCTS}

    def _wide_typed(self, node: _Node, name: str) -> bool:
        t = node.lookup_type(name)
        if t:
            return t.split()[-1] in ir.WIDE_SIM_TYPES
        for members in self.current_class_members:
            mt = members.get(name, "")
            if mt:
                return mt.split()[-1] in ir.WIDE_SIM_TYPES
        return False

    def _float_typed(self, node: _Node, name: str) -> bool:
        t = node.lookup_type(name)
        if t:
            return t.split()[-1] in _FLOAT_TYPES
        for members in self.current_class_members:
            mt = members.get(name, "")
            if mt:
                return mt.split()[-1] in _FLOAT_TYPES
        return False

    def _skip_braces(self, i: int) -> int:
        """@p i points at '{'; return index just past its match."""
        depth = 0
        while i < self.n:
            t = self.toks[i].text
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return i

    def _skip_template_args(self, i: int) -> int:
        """@p i points at '<'; return index past the matching '>' (or i+1
        when it does not look like template args)."""
        depth = 0
        j = i
        while j < self.n and j - i < 120:
            t = self.toks[j].text
            if t == "<":
                depth += 1
            elif t in (">", ">>"):
                depth -= 2 if t == ">>" else 1
                if depth <= 0:
                    return j + 1
            elif t in (";", "{", "}"):
                break
            j += 1
        return i + 1

    # -- top-level / class scope ------------------------------------------

    def parse(self) -> None:
        self._parse_scope(0, self.n, [], None)

    def _parse_scope(self, i: int, end: int, ns: list[str],
                     cls: dict | None) -> int:
        """Parse a namespace or class body in toks[i:end]."""
        buf: list[int] = []  # token indices of the pending declaration
        while i < end:
            t = self.toks[i]
            if t.text == "}":
                return i + 1
            if t.text == ";":
                if buf:
                    self._handle_declaration(buf, ns, cls)
                buf = []
                i += 1
                continue
            if t.text == ":" and len(buf) == 1 and \
                    self.toks[buf[0]].text in ("public", "private",
                                               "protected"):
                buf = []
                i += 1
                continue
            if t.text == "{":
                i = self._handle_block(buf, i, ns, cls)
                buf = []
                continue
            if t.text == "[" and i + 1 < self.n and \
                    self.toks[i + 1].text == "[":
                while i < end and not (self.toks[i].text == "]" and
                                       i + 1 < end and
                                       self.toks[i + 1].text == "]"):
                    i += 1
                i += 2
                continue
            buf.append(i)
            i += 1
        return i

    def _handle_block(self, buf: list[int], i: int, ns: list[str],
                      cls: dict | None) -> int:
        """Dispatch a '{' at namespace/class scope given the declaration
        tokens before it; @p i points at the '{'."""
        texts = [self.toks[k].text for k in buf]
        if "namespace" in texts:
            idx = texts.index("namespace")
            name = texts[idx + 1] if idx + 1 < len(texts) and \
                self.toks[buf[idx + 1]].kind == ID else "(anon)"
            return self._parse_scope(i + 1, self.n, ns + [name], None)
        if "enum" in texts or "union" in texts:
            return self._skip_braces(i)
        if "class" in texts or "struct" in texts:
            kw = "class" if "class" in texts else "struct"
            idx = texts.index(kw)
            parts: list[str] = []
            for k in range(idx + 1, len(texts)):
                if self.toks[buf[k]].kind == ID and \
                        texts[k] not in ("final", "alignas"):
                    parts.append(texts[k])
                    # Follow a `Outer::Inner` chain.
                    if k + 1 < len(texts) and texts[k + 1] == "::":
                        continue
                    break
                if texts[k] == ":":
                    break
                if texts[k] != "::":
                    break
            if not parts:
                return self._skip_braces(i)
            name = parts[-1]
            c = {
                "name": name,
                "qualname": "::".join(ns + parts) if ns
                else "::".join(parts),
                "file": self.rel,
                "line": self.toks[buf[idx]].line,
                "mutex_members": [],
                "has_sequential_cap": False,
                "members": [],
            }
            self.classes.append(c)
            self.current_class_members.append({})
            end = self._parse_scope(i + 1, self.n, ns + [name], c)
            self.current_class_members.pop()
            return end
        # Data member with brace initializer (`std::atomic<int> m{0};`)?
        if cls is not None and "(" not in texts and "=" not in texts and \
                len([k for k in buf if self.toks[k].kind == ID]) >= 2:
            self._handle_declaration(buf, ns, cls)
            return self._skip_braces(i)
        # Function (or method) definition?
        sig = self._signature_of(buf)
        if sig is None:
            return self._skip_braces(i)
        name, qualname, params, ret, params_full = sig
        qual = "::".join(ns + ([qualname] if "::" in qualname else [name])) \
            if ns else qualname
        f = self._new_function(name, qual, "method" if cls else "function",
                               self.toks[buf[0]].line, "", ret)
        f["params"] = params_full
        if cls is not None:
            f["class"] = cls["name"]
        if self._has_sequential_requires(buf):
            f["requires_sequential"] = True
        node = _Node(f, None)
        node.locals.update(params)
        fstart = len(self.functions)
        end = self._parse_body(i + 1, node)
        lam_recs = [g for g in self.functions[fstart:]
                    if g["kind"] == "lambda"]
        self.pending_bodies.append((f, i + 1, end - 1, params_full, cls,
                                    lam_recs))
        return end

    def _signature_of(self, buf: list[int]):
        """If @p buf looks like a function signature, return
        (name, qualname, params, return_type); else None."""
        texts = [self.toks[k].text for k in buf]
        if not texts or texts[0] in ("if", "for", "while", "switch", "do",
                                     "else", "try", "catch"):
            return None
        # Drop a leading template<...> clause.
        start = 0
        if texts[0] == "template":
            depth = 0
            for k, tx in enumerate(texts):
                if tx == "<":
                    depth += 1
                elif tx == ">":
                    depth -= 1
                    if depth == 0:
                        start = k + 1
                        break
            texts = texts[start:]
            buf = buf[start:]
        if not texts:
            return None
        # Find the parameter list: the first top-level '(' directly
        # preceded by an identifier (or operator token run). Parens
        # inside template args (std::function<void(unsigned)>) are not
        # parameter lists — track angle depth, except after 'operator'.
        depth = 0
        angle = 0
        open_idx = -1
        for k, tx in enumerate(texts):
            if tx == "<" and k > 0 and texts[k - 1] != "operator":
                angle += 1
                continue
            if tx in (">", ">>") and angle > 0 and \
                    (k == 0 or texts[k - 1] != "operator"):
                angle = max(0, angle - (2 if tx == ">>" else 1))
                continue
            if angle > 0:
                continue
            if tx == "(":
                if depth == 0 and k > 0:
                    prev = texts[k - 1]
                    if self.toks[buf[k - 1]].kind == ID and \
                            prev not in _KEYWORDS and \
                            not prev.startswith(_ANNOTATION_PREFIX):
                        open_idx = k
                        break
                    if prev.startswith("operator") or \
                            (k >= 2 and texts[k - 2] == "operator"):
                        open_idx = k
                        break
                depth += 1
            elif tx == ")":
                depth -= 1
        if open_idx <= 0:
            return None
        # Anything after the closing ')' must be signature decoration, a
        # ctor-init list, or annotation macros — never '=' (brace init).
        depth = 0
        close_idx = -1
        for k in range(open_idx, len(texts)):
            if texts[k] == "(":
                depth += 1
            elif texts[k] == ")":
                depth -= 1
                if depth == 0:
                    close_idx = k
                    break
        if close_idx == -1:
            return None
        if "=" in texts[:open_idx]:
            return None  # `Foo x = bar(...)...` initializer
        # Name (possibly qualified A::B::name).
        k = open_idx - 1
        parts = [texts[k]]
        while k >= 2 and texts[k - 1] == "::" and \
                self.toks[buf[k - 2]].kind == ID:
            parts.insert(0, texts[k - 2])
            k -= 2
        name = parts[-1]
        qualname = "::".join(parts)
        ret = " ".join(texts[:k]) if k > 0 else ""
        params = self._parse_params(buf[open_idx + 1:close_idx])
        params_full = self._parse_params_full(buf[open_idx + 1:close_idx])
        return name, qualname, params, ret, params_full

    def _parse_params(self, buf: list[int]) -> dict[str, str]:
        """Parameter name -> type text from the tokens between ( and )."""
        params: dict[str, str] = {}
        part: list[Token] = []
        depth = angle = 0
        toks = [self.toks[k] for k in buf]

        def flush() -> None:
            ids = [t.text for t in part if t.kind == ID]
            if len(ids) >= 2:
                params[ids[-1]] = self._strip_type(
                    [t.text for t in part[:-1] if t.kind in (ID, PUNCT)])

        for t in toks:
            if t.text in ("(",):
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == "," and depth == 0 and angle == 0:
                flush()
                part = []
                continue
            part.append(t)
        flush()
        return params

    def _parse_params_full(self, buf: list[int]) -> list[dict]:
        """[{"name", "type"}] with the *full* type text (keeps & and *,
        which the escape analysis needs) in declaration order."""
        out: list[dict] = []
        part: list[Token] = []
        depth = angle = 0
        toks = [self.toks[k] for k in buf]

        def flush() -> None:
            cut = next((p for p, t in enumerate(part) if t.text == "="),
                       len(part))
            head = part[:cut]
            ids = [(p, t.text) for p, t in enumerate(head)
                   if t.kind == ID and t.text not in _KEYWORDS]
            if len(ids) >= 2:
                name_pos, name = ids[-1]
                out.append({"name": name,
                            "type": " ".join(t.text
                                             for t in head[:name_pos])})

        for t in toks:
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == "," and depth == 0 and angle == 0:
                flush()
                part = []
                continue
            part.append(t)
        flush()
        return out

    def _has_sequential_requires(self, buf: list[int]) -> bool:
        texts = [self.toks[k].text for k in buf]
        for k, tx in enumerate(texts):
            if tx in ("CHOPIN_REQUIRES", "CHOPIN_REQUIRES_SHARED"):
                return True
        return False

    def _handle_declaration(self, buf: list[int], ns: list[str],
                            cls: dict | None) -> None:
        texts = [self.toks[k].text for k in buf]
        if not texts or texts[0] in ("using", "typedef", "friend",
                                     "static_assert", "template", "extern"):
            return
        has_parens = "(" in texts
        if has_parens:
            sig = self._signature_of(buf)
            if sig is not None and (cls is not None or ns):
                # Method / function *declaration*: only the REQUIRES
                # annotation matters (propagated onto definitions by
                # ir.merge); skip plain declarations.
                if self._has_sequential_requires(buf):
                    name, qualname, _params, ret, _params_full = sig
                    qual = "::".join(ns + [name]) if ns else qualname
                    f = self._new_function(name, qual, "decl",
                                           self.toks[buf[0]].line, "", ret)
                    if cls is not None:
                        f["class"] = cls["name"]
                    f["requires_sequential"] = True
                return
        if cls is None:
            return
        # Data member of the current class.
        if texts[0] in ("public", "private", "protected"):
            return
        if "constexpr" in texts or "consteval" in texts:
            return
        is_static = "static" in texts
        guarded_by = ""
        for k, tx in enumerate(texts):
            if tx in _GUARD_MACROS and k + 2 < len(texts) and \
                    texts[k + 1] == "(":
                depth = 0
                arg: list[str] = []
                for j in range(k + 1, len(texts)):
                    if texts[j] == "(":
                        depth += 1
                        if depth == 1:
                            continue
                    elif texts[j] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    arg.append(texts[j])
                guarded_by = "".join(arg)
                break
        # Truncate at the first annotation macro or initializer.
        cut = len(texts)
        for k, tx in enumerate(texts):
            if tx.startswith(_ANNOTATION_PREFIX) or tx in ("=",):
                cut = k
                break
        head = texts[:cut]
        ids = [(k, tx) for k, tx in enumerate(head)
               if self.toks[buf[k]].kind == ID and tx not in _KEYWORDS]
        if len(ids) < 2:
            return  # not `Type name` shaped
        name_idx, name = ids[-1]
        if name_idx + 1 < len(head) and head[name_idx + 1] == "(":
            return  # method declaration _signature_of could not shape
        type_tokens = head[:name_idx]
        type_words = self._type_words(type_tokens)
        is_sync = bool(type_words & _SYNC_TYPE_WORDS)
        is_cap = "SequentialCap" in type_words
        member = {
            "name": name,
            "line": self.toks[buf[name_idx]].line,
            "type": " ".join(type_tokens),
            "is_const": "const" in type_words,
            "is_static": is_static,
            "is_sync": is_sync,
            "is_capability": is_cap,
            "guarded_by": guarded_by,
        }
        cls["members"].append(member)
        if "Mutex" in type_words:
            cls["mutex_members"].append(name)
        if is_cap:
            cls["has_sequential_cap"] = True
        if self.current_class_members:
            self.current_class_members[-1][name] = \
                self._strip_type(type_tokens)

    # -- function bodies ---------------------------------------------------

    def _lambda_start(self, i: int) -> bool:
        if self.toks[i].text != "[":
            return False
        if i + 1 < self.n and self.toks[i + 1].text == "[":
            return False  # [[attribute]]
        if i > 0:
            prev = self.toks[i - 1]
            ok_prev = (prev.kind == PUNCT and prev.text in
                       ("(", ",", "=", "{", ";", "&&", "||", "?", ":",
                        "return", "+", "-", "*", "/", "<<", ">>")) or \
                      (prev.kind == ID and prev.text in _EXPR_KEYWORDS)
            if not ok_prev:
                return False
        # Find the closing ']' and require '(' / '{' / mutable / -> after.
        j = i + 1
        depth = 1
        while j < self.n and depth > 0 and j - i < 200:
            if self.toks[j].text == "[":
                depth += 1
            elif self.toks[j].text == "]":
                depth -= 1
            j += 1
        if j >= self.n:
            return False
        nxt = self.toks[j].text
        return nxt in ("(", "{", "mutable", "->", "noexcept")

    def _parse_lambda(self, i: int, enclosing: _Node,
                      parallel_frames: list[dict]) -> int:
        """@p i points at the '[' of a lambda; returns index past its body."""
        line = self.toks[i].line
        self.lambda_counter += 1
        name = f"lambda#{self.lambda_counter}"
        f = self._new_function("<lambda>",
                               f"{enclosing.summary['qualname']}::{name}",
                               "lambda", line, enclosing.summary["id"])
        f["id"] = f"{self.rel}:{line}:{name}"
        # Capture list.
        j = i + 1
        depth = 1
        captures: list[str] = []
        while j < self.n and depth > 0:
            t = self.toks[j].text
            if t == "[":
                depth += 1
            elif t == "]":
                depth -= 1
            else:
                captures.append(t)
            j += 1
        f["captures_ref"] = "&" in captures
        # The enclosing node "calls" the lambda so reachability flows into
        # nested lambda bodies.
        enclosing.summary["calls"].append(
            {"name": "<lambda>", "receiver": "", "line": line,
             "lambda_id": f["id"]})
        if parallel_frames:
            parallel_frames[-1]["lambdas"].append(f["id"])
        node = _Node(f, enclosing)
        # Parameters.
        if j < self.n and self.toks[j].text == "(":
            depth = 0
            k = j
            while k < self.n:
                if self.toks[k].text == "(":
                    depth += 1
                elif self.toks[k].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            node.locals.update(self._parse_params(list(range(j + 1, k))))
            j = k + 1
        while j < self.n and self.toks[j].text != "{":
            j += 1
        return self._parse_body(j + 1, node)

    def _parse_body(self, i: int, node: _Node) -> int:
        """Parse a function body starting just after its '{'."""
        f = node.summary
        depth = 0
        paren_depth = 0
        parallel_frames: list[dict] = []
        while i < self.n:
            t = self.toks[i]
            tx = t.text
            if tx == "{":
                depth += 1
            elif tx == "}":
                if depth == 0:
                    return i + 1
                depth -= 1
            elif tx == "(":
                paren_depth += 1
            elif tx == ")":
                paren_depth -= 1
                while parallel_frames and \
                        paren_depth < parallel_frames[-1]["paren_depth"]:
                    frame = parallel_frames.pop()
                    for lam in frame["lambdas"]:
                        f["parallel_callbacks"].append(
                            {"callee": frame["callee"],
                             "line": frame["line"], "lambda_id": lam})
            elif self._lambda_start(i):
                i = self._parse_lambda(i, node, parallel_frames)
                continue
            elif tx == "[" and i + 1 < self.n and \
                    self.toks[i + 1].text == "[":
                while i < self.n and not (self.toks[i].text == "]" and
                                          i + 1 < self.n and
                                          self.toks[i + 1].text == "]"):
                    i += 1
                i += 2
                continue
            elif t.kind == PUNCT and tx in _COMPOUND_OPS:
                self._handle_compound(i, node)
            elif t.kind == ID:
                i = self._handle_body_id(i, node, parallel_frames,
                                         paren_depth)
                continue
            i += 1
        return i

    def _handle_body_id(self, i: int, node: _Node,
                        parallel_frames: list[dict],
                        paren_depth: int) -> int:
        f = node.summary
        tx = self.toks[i].text
        nxt = self.toks[i + 1].text if i + 1 < self.n else ""

        if tx == "return":
            self._handle_return(i + 1, node)
            return i + 1
        if tx == "ScenarioRegion" and i + 1 < self.n and \
                self.toks[i + 1].kind == ID:
            f["scenario_barrier"] = True
            return i + 1
        if tx in _KEYWORDS:
            return i + 1
        if nxt == "<":
            return self._skip_template_args(i + 1)

        if nxt == "(":
            prev = self.toks[i - 1] if i > 0 else None
            prev_tx = prev.text if prev else ""
            # `Type name(...)`: a local declaration, not a call.
            if prev is not None and prev.kind == ID and \
                    prev_tx not in _EXPR_KEYWORDS and \
                    prev_tx not in _KEYWORDS:
                node.locals[tx] = prev_tx
                return i + 1
            receiver = ""
            name = tx
            if prev_tx in (".", "->"):
                if i >= 2 and self.toks[i - 2].kind == ID:
                    receiver = self.toks[i - 2].text
            elif prev_tx == "::":
                parts = [tx]
                k = i - 1
                while k >= 1 and self.toks[k].text == "::" and \
                        self.toks[k - 1].kind == ID:
                    parts.insert(0, self.toks[k - 1].text)
                    k -= 2
                name = "::".join(parts)
            f["calls"].append({"name": name, "receiver": receiver,
                               "line": self.toks[i].line})
            simple = name.split("::")[-1]
            if simple in ("assertHeld", "assertSequential"):
                f["asserts_sequential"] = True
            if simple in ("parallelFor", "submit"):
                parallel_frames.append({
                    "callee": simple, "line": self.toks[i].line,
                    "paren_depth": paren_depth + 1, "lambdas": []})
            return i + 1

        # `Type name = expr;` / `Type name;`: local declaration.
        if nxt in ("=", ";", ",") and i > 0:
            type_tokens = self._decl_type_tokens(i)
            if type_tokens:
                dst = self._strip_type(type_tokens)
                node.locals[tx] = dst
                if nxt == "=" and self._narrow_dst(type_tokens):
                    self._check_narrow_init(i + 2, node, dst, tx,
                                            self.toks[i].line)
        return i + 1

    def _decl_type_tokens(self, name_idx: int) -> list[str]:
        """Type tokens preceding a declaration name, or [] if the name is
        not in declaration position."""
        out: list[str] = []
        k = name_idx - 1
        while k >= 0:
            t = self.toks[k]
            if t.kind == ID and t.text not in _KEYWORDS or \
                    t.text in _TYPE_PUNCTS or \
                    t.text in ("const", "auto"):
                out.insert(0, t.text)
                k -= 1
                continue
            break
        if not out or all(t in _TYPE_PUNCTS for t in out):
            return []
        if k >= 0 and self.toks[k].text not in (";", "{", "}", "(", ","):
            return []  # mid-expression, e.g. `x = a < b`
        return out

    @staticmethod
    def _narrow_dst(type_tokens: list[str]) -> bool:
        words = [t for t in type_tokens if t not in ("const", "&", "*",
                                                     "::", "std")]
        return bool(words) and words[-1] in ir.NARROW_DEST_TYPES

    def _toplevel_expr_ids(self, i: int) -> tuple[list[Token], bool, int]:
        """Expression tokens from @p i to the next ';' outside parens:
        returns (top-level ID tokens, saw_explicit_cast, end_index)."""
        ids: list[Token] = []
        saw_cast = False
        depth = 0
        while i < self.n:
            t = self.toks[i]
            if t.text == ";" and depth == 0:
                break
            if t.text in ("{", "}"):
                break
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.kind == ID:
                if t.text in ("static_cast", "narrow_cast"):
                    saw_cast = True
                elif depth == 0 and t.text not in _KEYWORDS:
                    ids.append(t)
            i += 1
        return ids, saw_cast, i

    def _check_narrow_init(self, i: int, node: _Node, dst: str,
                           dst_name: str, line: int) -> None:
        ids, saw_cast, _end = self._toplevel_expr_ids(i)
        if saw_cast:
            return
        for t in ids:
            if self._wide_typed(node, t.text):
                src = node.lookup_type(t.text) or "Tick"
                node.summary["narrow_conversions"].append({
                    "line": line, "src": src, "dst": dst,
                    "detail": f"'{t.text}' ({src}) initializes "
                              f"{dst} '{dst_name}'"})
                return

    def _handle_return(self, i: int, node: _Node) -> None:
        ret = node.summary.get("return_type", "")
        if not ret:
            return
        words = ret.replace("::", " ").split()
        if not words or words[-1] not in ir.NARROW_DEST_TYPES:
            return
        ids, saw_cast, _end = self._toplevel_expr_ids(i)
        if saw_cast:
            return
        for t in ids:
            if self._wide_typed(node, t.text):
                src = node.lookup_type(t.text) or "Tick"
                node.summary["narrow_conversions"].append({
                    "line": t.line, "src": src, "dst": words[-1],
                    "detail": f"'{t.text}' ({src}) returned as "
                              f"{words[-1]}"})
                return

    def _handle_compound(self, op_idx: int, node: _Node) -> None:
        """Analyze `lvalue op= rhs` for the det-float pass."""
        # Walk the lvalue back to the statement boundary.
        k = op_idx - 1
        lvalue: list[Token] = []
        while k >= 0:
            t = self.toks[k]
            if t.kind == PUNCT and t.text in _STMT_BOUNDARY and \
                    t.text not in ("]",):
                break
            lvalue.insert(0, t)
            k -= 1
        ids = [t for t in lvalue if t.kind == ID]
        if not ids:
            return
        base = ids[0].text
        subscripted = any(t.text == "[" for t in lvalue)
        is_local = base in node.locals
        evidence = ""
        if self._float_typed(node, base) or \
                (len(ids) == 1 and self._float_typed(node, base)):
            evidence = "typed"
        else:
            # RHS float literal is weaker evidence.
            j = op_idx + 1
            depth = 0
            while j < self.n and not (self.toks[j].text == ";" and
                                      depth == 0):
                if self.toks[j].text == "(":
                    depth += 1
                elif self.toks[j].text == ")":
                    if depth == 0:
                        break
                    depth -= 1
                if _is_float_literal(self.toks[j]):
                    evidence = "literal"
                    break
                j += 1
        if not evidence:
            return
        node.summary["compound_float_writes"].append({
            "line": self.toks[op_idx].line,
            "target": "".join(t.text for t in lvalue),
            "op": self.toks[op_idx].text,
            "base": base,
            "local": is_local,
            "subscripted": subscripted,
            "evidence": evidence,
        })

    # -- deferred statement builds ----------------------------------------

    def finalize(self) -> None:
        """Build the structured statement trees (stmts.py) for every
        function body collected during the scan. Runs after the whole file
        is parsed so class-member scopes are complete even when members
        are declared below the inline methods that use them."""
        class_by_name: dict[str, dict] = {}
        for c in self.classes:
            class_by_name.setdefault(c["name"], c)
        for f, lo, hi, params_full, cls, lam_recs in self.pending_bodies:
            if cls is None:
                # Out-of-line method: recover the class from the qualname.
                parts = f.get("qualname", "").split("::")
                if len(parts) >= 2:
                    cls = class_by_name.get(parts[-2])
            scopes: list[dict] = []
            if cls is not None:
                scopes.append({m["name"]: m["type"]
                               for m in cls["members"]})
            scopes.append({p["name"]: p["type"] for p in params_full})
            trees, built_lams = stmts_mod.build(self.toks, lo, hi,
                                                scopes=scopes)
            f["stmts"] = trees
            # The builder's flat lambda list is in textual '[' order, the
            # same order _parse_lambda created the records in — zip
            # positionally, with a line check as a safety net against the
            # two lambda heuristics ever diverging.
            for rec, built in zip(lam_recs, built_lams):
                if rec["line"] != built["line"]:
                    break
                rec["stmts"] = built["stmts"]
                rec["captures"] = built["captures"]
                rec["params"] = built["params"]


def parse_file(root: pathlib.Path, rel: str) -> dict:
    """Parse one source file into a TU summary (see ir.py)."""
    text = (root / rel).read_text(errors="replace")
    tokens, suppressions = cxxlex.lex(text)
    p = _Parser(rel, tokens)
    p.parse()
    p.finalize()
    supp = cxxlex.effective_suppressions(tokens, suppressions)
    return {
        "file": rel,
        "frontend": FRONTEND_NAME,
        "functions": p.functions,
        "classes": p.classes,
        "suppressions": {rel: {str(k): v for k, v in supp.items()}}
        if supp else {},
    }
