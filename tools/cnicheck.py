#!/usr/bin/env python3
"""cnicheck — project-specific static analysis for cni.

The repository's correctness story (exhaustive model checking in cnimc,
conformance fuzzing, the CI determinism matrix) rests on source-level
properties that a grep cannot enforce and a sanitizer only catches when
a test happens to schedule the bad interleaving. cnicheck enforces them
statically, seeing through typedefs, `using` aliases and `auto`:

  determinism (src/{sim,net,coh,core,bus,mem} only)
    wall-clock          host clock readings entering simulation state
                        (std::chrono::{system,steady,high_resolution}_clock,
                        time()/clock()/gettimeofday()/clock_gettime(),
                        including via type aliases)
    entropy             rand()/srand()/random()/std::random_device
    unordered-iteration iterating a std::unordered_{map,set,multimap,
                        multiset} (range-for or begin()/end()): iteration
                        order is implementation-defined and leaks straight
                        into event order and stats. Keyed lookups are fine.
    pointer-key         std::{map,set,unordered_map,unordered_set,...}
                        keyed by a pointer type: address-space layout
                        becomes simulation-visible.
    banned-include      #include of <random>, <chrono>, <ctime>, <time.h>
                        or <sys/time.h>: a latent include is rejected
                        before any use through it appears.

  event-callback hygiene (all of src/)
    dangling-capture    a lambda handed to EventQueue::scheduleAt/
                        scheduleIn, ParallelKernel::postBarrier, or an
                        InlineFn/Callback/BarrierFn that captures
                        locals or parameters by reference — the frame is
                        gone when the event fires. `this` is allowed
                        (devices outlive their events by construction).
    oversized-capture   the same lambda set with by-value captured state
                        estimated past kEventCallbackBytes (112): InlineFn
                        refuses it at compile time with a static_assert,
                        but a std::function sink heap-allocates silently —
                        a hot-path regression either way.

  model-checker seam (all of src/)
    mc-seam             a CoherenceDomain subclass whose effective mc*
                        override set (its own plus everything inherited
                        from intermediate bases) is partial: a backend
                        must override the full set or none of it, so a
                        new protocol cannot silently opt out of cnimc's
                        snapshot/fingerprint/quiescence machinery.

The engine is self-contained: a token-level analysis with alias
resolution that needs no compiler, build or compile commands. The
fixture suite under tests/analysis/fixtures is its conformance contract.

Findings are fatal unless listed in tools/determinism_allowlist.txt as
`path:check` one per line.

Usage:
  tools/cnicheck.py [--root DIR]
  tools/cnicheck.py --fixtures tests/analysis/fixtures
  tools/cnicheck.py --seed-bug
  tools/cnicheck.py --list-checks

Exit codes: 0 clean, 1 findings (or a failed self-test), 2 usage error.
"""

import argparse
import os
import pathlib
import re
import sys
import tempfile

# Directories forming the deterministic simulation core (the determinism
# checks run only here; the hygiene checks run over all of src/).
CORE_DIRS = ("src/sim", "src/net", "src/coh", "src/core", "src/bus",
             "src/mem")

DETERMINISM_CHECKS = ("wall-clock", "entropy", "unordered-iteration",
                      "pointer-key", "banned-include")
HYGIENE_CHECKS = ("dangling-capture", "oversized-capture", "mc-seam")
ALL_CHECKS = DETERMINISM_CHECKS + HYGIENE_CHECKS

# Inline capture budget of a kernel-scheduled callback
# (kEventCallbackBytes in src/sim/event_queue.hpp).
EVENT_CALLBACK_BYTES = 112

# Call / type names whose lambda arguments become deferred events.
DEFERRED_SINKS = {"scheduleAt", "scheduleIn", "postBarrier"}
DEFERRED_TYPES = {"InlineFn", "Callback", "BarrierFn"}

BANNED_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
BANNED_CLOCK_FNS = {"time", "clock", "gettimeofday", "clock_gettime"}
BANNED_ENTROPY_FNS = {"rand", "srand", "random"}

UNORDERED_CONTAINERS = {"unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset"}
KEYED_CONTAINERS = UNORDERED_CONTAINERS | {"map", "set", "multimap",
                                           "multiset"}

# Headers the deterministic core must not even include, and why.
BANNED_HEADERS = {
    "random": "entropy engines make runs unreproducible",
    "chrono": "host clock readings are not reproducible",
    "ctime": "wall-clock time entering simulation state",
    "time.h": "wall-clock time entering simulation state",
    "sys/time.h": "gettimeofday() wall-clock readings",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')


class Diag:
    __slots__ = ("path", "line", "col", "check", "msg")

    def __init__(self, path, line, col, check, msg):
        self.path = path
        self.line = line
        self.col = col
        self.check = check
        self.msg = msg

    def render(self):
        return (f"{self.path}:{self.line}:{self.col}: [{self.check}] "
                f"{self.msg}")

    def key(self):
        return (self.path, self.line, self.check)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
      (?P<id>[A-Za-z_]\w*)
    | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<punct>::|->\*|->|\.\*|<<=|>>=|<=>|\+\+|--|<<|>>|<=|>=|==|!=|&&
        |\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|[{}()\[\];:,.<>+\-*/%&|^!~=?])
""", re.VERBOSE)


class Tok:
    __slots__ = ("text", "line", "col", "kind")

    def __init__(self, text, line, col, kind):
        self.text = text
        self.line = line
        self.col = col
        self.kind = kind  # 'id' | 'num' | 'punct'

    def __repr__(self):
        return f"{self.text}@{self.line}"


def strip_noise(text):
    """Blank out comments, string and char literals, and preprocessor
    directives, preserving offsets so line/col stay exact."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            j = i
            while j < n:
                eol = text.find("\n", j)
                if eol < 0:
                    eol = n
                if text[eol - 1] == "\\" if eol > 0 else False:
                    j = eol + 1
                    continue
                break
            blank(i, eol)
            i = eol
            continue
        at_line_start = c == "\n" or (at_line_start and c in " \t")
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            eol = text.find("\n", i)
            if eol < 0:
                eol = n
            blank(i, eol)
            i = eol
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            blank(i, end)
            i = end
        elif c == '"':
            if text[i:i + 4] == '"R"(':  # not a raw string; keep simple
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, min(j + 1, n))
            i = j + 1
        elif c == "'" and (i == 0 or not (text[i - 1].isalnum()
                                          or text[i - 1] == "_")):
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            blank(i, min(j + 1, n))
            i = j + 1
        else:
            i += 1
    return "".join(out)


def tokenize(text):
    toks = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        c = text[pos]
        if c == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if c in " \t\r\f\v":
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            pos += 1
            continue
        kind = m.lastgroup
        toks.append(Tok(m.group(), line, m.start() - line_start + 1, kind))
        pos = m.end()
    return toks


def match_balanced(toks, i, open_t, close_t):
    """toks[i] is open_t; return index just past the matching close_t."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_template_args(toks, i):
    """toks[i] is '<'; return index past the matching '>', handling '>>'
    by splitting (we never rewrite tokens — a '>>' closing two levels is
    treated as closing both)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{"):
            return i  # not a template argument list after all
        i += 1
    return n


# ---------------------------------------------------------------------------
# Token engine
# ---------------------------------------------------------------------------

SCALAR_SIZES = {
    "bool": 1, "char": 1, "int8_t": 1, "uint8_t": 1,
    "short": 2, "int16_t": 2, "uint16_t": 2,
    "int": 4, "unsigned": 4, "int32_t": 4, "uint32_t": 4, "float": 4,
    "long": 8, "size_t": 8, "int64_t": 8, "uint64_t": 8, "double": 8,
    "Tick": 8, "Addr": 8, "NodeId": 4, "Port": 4,
}

# Handle/owner types with well-known (or documented) sizes; unknown types
# estimate at 8 so the engine stays quiet rather than guessing big. The
# exact closure size is the compiler's: InlineFn static_asserts it.
TYPE_SIZES = {
    "function": 32, "string": 32, "vector": 24, "deque": 80,
    "shared_ptr": 16, "unique_ptr": 8,
    "MsgPayload": 16, "NetMsg": 64, "SnoopResult": 16,
}


class FileModel:
    """Per-file token stream plus the light semantic tables the token
    checks need: alias map, variable/member declarations, classes."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.lines = text.splitlines()
        self.toks = tokenize(strip_noise(text))
        self.aliases = {}     # name -> canonical joined type string
        self.var_decls = {}   # name -> [(line, type string)]
        self.hdr_decls = {}   # sibling-header decls (members), same shape
        self.array_sizes = {} # name -> [(line, byte size)]
        self.hdr_arrays = {}
        self.classes = {}     # name -> (bases, mc-method names, line)
        self._collect()

    def var_at(self, name, line):
        """Resolve `name` at a use site: the nearest preceding
        declaration in this file wins (approximates lexical scope
        without a symbol table); otherwise the sibling header's
        (member) declaration; otherwise None."""
        best = None
        for decl_line, ty in self.var_decls.get(name, ()):
            if decl_line <= line and (best is None
                                      or decl_line > best[0]):
                best = (decl_line, ty)
        if best:
            return best[1]
        hdr = self.hdr_decls.get(name)
        return hdr[0][1] if hdr else None

    def array_at(self, name, line):
        best = None
        for decl_line, size in self.array_sizes.get(name, ()):
            if decl_line <= line and (best is None
                                      or decl_line > best[0]):
                best = (decl_line, size)
        if best:
            return best[1]
        hdr = self.hdr_arrays.get(name)
        return hdr[0][1] if hdr else None

    # -- helpers ----------------------------------------------------------

    def _type_string(self, toks):
        return " ".join(t.text for t in toks)

    def expand(self, s, depth=0):
        """Alias-expand every identifier in a joined type string."""
        if depth > 8:
            return s
        parts = []
        for w in s.split():
            if w in self.aliases:
                parts.append(self.expand(self.aliases[w], depth + 1))
            else:
                parts.append(w)
        return " ".join(parts)

    def _collect(self):
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            # using NAME = TYPE ;
            if (t.text == "using" and i + 2 < n
                    and toks[i + 1].kind == "id"
                    and toks[i + 2].text == "="):
                j = i + 3
                start = j
                while j < n and toks[j].text != ";":
                    if toks[j].text == "<":
                        j = skip_template_args(toks, j)
                    else:
                        j += 1
                self.aliases[toks[i + 1].text] = self._type_string(
                    toks[start:j])
                i = j
                continue
            # typedef TYPE NAME ;
            if t.text == "typedef":
                j = i + 1
                start = j
                while j < n and toks[j].text != ";":
                    if toks[j].text == "<":
                        j = skip_template_args(toks, j)
                    else:
                        j += 1
                if j - 1 > start and toks[j - 1].kind == "id":
                    self.aliases[toks[j - 1].text] = self._type_string(
                        toks[start:j - 1])
                i = j
                continue
            # class/struct NAME : bases { ... mc methods ... }
            if t.text in ("class", "struct") and i + 1 < n \
                    and toks[i + 1].kind == "id":
                i = self._collect_class(i)
                continue
            # variable / member / parameter declarations
            i = self._maybe_decl(i)
        # no explicit return

    def _collect_class(self, i):
        toks = self.toks
        n = len(toks)
        name = toks[i + 1].text
        line = toks[i].line
        j = i + 2
        bases = []
        if j < n and toks[j].text == ":":
            j += 1
            while j < n and toks[j].text != "{":
                if toks[j].kind == "id" and toks[j].text not in (
                        "public", "protected", "private", "virtual"):
                    # take the last identifier of a qualified base name
                    base = toks[j].text
                    while j + 2 < n and toks[j + 1].text == "::":
                        j += 2
                        base = toks[j].text
                    bases.append(base)
                if j < n and toks[j].text == "<":
                    j = skip_template_args(toks, j)
                    continue
                j += 1
        if j >= n or toks[j].text != "{":
            return i + 1  # forward declaration etc.
        end = match_balanced(toks, j, "{", "}")
        mc = set()
        for k in range(j, end):
            tk = toks[k]
            if tk.kind == "id" and re.match(r"mc[A-Z]", tk.text) \
                    and k + 1 < n and toks[k + 1].text == "(":
                mc.add(tk.text)
        prev = self.classes.get(name)
        if prev:
            bases = prev[0] or bases
            mc = prev[1] | mc
        self.classes[name] = (bases, mc, line)
        # members inside the class body are collected by the main walk
        return j + 1

    def _maybe_decl(self, i):
        """Record `TYPE name` declarations the checks care about."""
        toks = self.toks
        n = len(toks)
        t = toks[i]
        if t.kind != "id":
            return i + 1
        # qualified type name: A :: B :: C
        j = i
        last = toks[j].text
        while j + 2 < n and toks[j + 1].text == "::" \
                and toks[j + 2].kind == "id":
            j += 2
            last = toks[j].text
        type_toks_end = j + 1
        # template arguments
        targs = None
        if type_toks_end < n and toks[type_toks_end].text == "<":
            close = skip_template_args(toks, type_toks_end)
            if close > type_toks_end + 1 and toks[close - 1].text in (
                    ">", ">>"):
                targs = (type_toks_end, close)
                type_toks_end = close
        # skip refs/pointers between type and name
        k = type_toks_end
        ptr = False
        while k < n and toks[k].text in ("&", "*", "const", "&&"):
            ptr = ptr or toks[k].text == "*"
            k += 1
        if k >= n or toks[k].kind != "id":
            return i + 1
        name = toks[k].text
        after = toks[k + 1].text if k + 1 < n else ""
        if after not in (";", "=", ",", ")", "{", "[", "("):
            return i + 1
        type_str = self._type_string(toks[i:type_toks_end])
        expanded = self.expand(type_str)
        if not ptr:
            self.var_decls.setdefault(name, []).append((t.line, expanded))
        # std::array<T, N> name / T name[N]
        size = self._sized_type_bytes(expanded)
        if size is None and after == "[" and k + 2 < n \
                and toks[k + 2].kind == "num":
            base = SCALAR_SIZES.get(last)
            try:
                count = int(toks[k + 2].text, 0)
            except ValueError:
                count = None
            if base and count:
                size = base * count
        if size is not None:
            self.array_sizes.setdefault(name, []).append((t.line, size))
        return type_toks_end

    def _sized_type_bytes(self, expanded):
        m = re.match(r".*\barray\s*<\s*(?:std\s*::\s*)?(\w+)\s*,\s*(\d+)",
                     expanded)
        if m and m.group(1) in SCALAR_SIZES:
            return SCALAR_SIZES[m.group(1)] * int(m.group(2))
        return None


class TokenEngine:
    """Token-level analysis with alias resolution. Not a full frontend —
    the fixture suite pins exactly what it must see — but it resolves
    `using` aliases, typedefs, per-file (and sibling-header) declared
    types, and statement context, which is what the regex lint could
    never do."""

    def analyze(self, files, checks):
        models = {}
        for path, rel in files:
            try:
                text = pathlib.Path(path).read_text()
            except OSError as e:
                print(f"cnicheck: cannot read {path}: {e}",
                      file=sys.stderr)
                continue
            models[rel] = FileModel(path, rel, text)
        diags = []
        for rel, fm in sorted(models.items()):
            # Sibling header declarations (members used from the .cpp).
            merged = fm
            stem, ext = os.path.splitext(rel)
            if ext == ".cpp":
                sib = stem + ".hpp"
                if sib in models:
                    merged.hdr_decls = models[sib].var_decls
                    merged.hdr_arrays = models[sib].array_sizes
                    for k, v in models[sib].aliases.items():
                        merged.aliases.setdefault(k, v)
            if "wall-clock" in checks or "entropy" in checks:
                diags += self._banned_calls(merged, checks)
            if "unordered-iteration" in checks:
                diags += self._unordered_iteration(merged)
            if "pointer-key" in checks:
                diags += self._pointer_keys(merged)
            if "banned-include" in checks:
                diags += self._banned_includes(merged)
            if "dangling-capture" in checks or \
                    "oversized-capture" in checks:
                diags += self._captures(merged, checks)
        if "mc-seam" in checks:
            diags += self._mc_seam(models)
        return diags

    # -- determinism ------------------------------------------------------

    _CALL_KEYWORDS = {"return", "co_return", "co_await", "co_yield",
                      "case", "if", "while", "throw", "else", "do"}

    def _call_position(self, fm, i):
        """True when identifier i followed by '(' reads as a call, not a
        function declaration (`long time(long t)`) or member access."""
        toks = fm.toks
        if i == 0:
            return False
        prev = toks[i - 1]
        if prev.text in (".", "->"):
            return False
        if prev.text in ("*", "&", "&&", "~"):
            return False  # declarator / destructor position
        if prev.kind == "id" and prev.text not in self._CALL_KEYWORDS:
            return False  # `TYPE name(` — a declaration
        return True

    def _banned_calls(self, fm, checks):
        out = []
        toks = fm.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            member = prev in (".", "->")
            # std::chrono clocks, directly or through an alias
            if "wall-clock" in checks:
                if t.text in BANNED_CLOCKS and not member:
                    out.append(Diag(fm.rel, t.line, t.col, "wall-clock",
                                    f"std::chrono::{t.text} in the "
                                    "deterministic core"))
                    continue
                expanded = fm.aliases.get(t.text, "")
                if not member and any(c in expanded
                                      for c in BANNED_CLOCKS):
                    out.append(Diag(fm.rel, t.line, t.col, "wall-clock",
                                    f"'{t.text}' aliases a host clock "
                                    f"({fm.expand(t.text)})"))
                    continue
                if t.text in BANNED_CLOCK_FNS and nxt == "(" \
                        and self._call_position(fm, i):
                    out.append(Diag(fm.rel, t.line, t.col, "wall-clock",
                                    f"{t.text}() reads the host clock"))
                    continue
            if "entropy" in checks:
                if t.text == "random_device":
                    out.append(Diag(fm.rel, t.line, t.col, "entropy",
                                    "std::random_device is a hardware "
                                    "entropy source"))
                    continue
                if "random_device" in fm.aliases.get(t.text, ""):
                    out.append(Diag(fm.rel, t.line, t.col, "entropy",
                                    f"'{t.text}' aliases "
                                    "std::random_device"))
                    continue
                if t.text in BANNED_ENTROPY_FNS and nxt == "(" \
                        and self._call_position(fm, i):
                    out.append(Diag(fm.rel, t.line, t.col, "entropy",
                                    f"{t.text}() is unseeded entropy"))
        return out

    def _banned_includes(self, fm):
        """Reads raw lines: strip_noise blanks preprocessor directives
        before tokenizing, so no token check can see an include."""
        out = []
        for lineno, line in enumerate(fm.lines, 1):
            m = INCLUDE_RE.match(line)
            if m and m.group(1) in BANNED_HEADERS:
                out.append(Diag(fm.rel, lineno, line.index("#") + 1,
                                "banned-include",
                                f"#include <{m.group(1)}>: "
                                f"{BANNED_HEADERS[m.group(1)]}"))
        return out

    def _unordered_type(self, fm, name, line):
        ty = fm.var_at(name, line)
        if not ty:
            return False
        return any(c in ty.split() or f"{c}" in ty
                   for c in UNORDERED_CONTAINERS)

    def _unordered_iteration(self, fm):
        out = []
        toks = fm.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            # range-for: for ( decl : EXPR )
            if t.text == "for" and i + 1 < n and toks[i + 1].text == "(":
                close = match_balanced(toks, i + 1, "(", ")")
                colon = None
                depth = 0
                for k in range(i + 2, close - 1):
                    tx = toks[k].text
                    if tx in ("(", "[", "{"):
                        depth += 1
                    elif tx in (")", "]", "}"):
                        depth -= 1
                    elif tx == ":" and depth == 0 \
                            and toks[k - 1].text != ":" \
                            and (k + 1 >= n or toks[k + 1].text != ":"):
                        colon = k
                        break
                if colon is not None:
                    rng = toks[colon + 1:close - 1]
                    bad = self._range_is_unordered(fm, rng, t.line)
                    if bad:
                        out.append(Diag(
                            fm.rel, t.line, t.col, "unordered-iteration",
                            f"range-for over {bad}: iteration order is "
                            "implementation-defined"))
                i = close
                continue
            # NAME . begin ( / end / cbegin / ...
            if t.kind == "id" and i + 3 < n and toks[i + 1].text == "." \
                    and toks[i + 2].text in ("begin", "end", "cbegin",
                                             "cend", "rbegin", "rend") \
                    and toks[i + 3].text == "(" \
                    and self._unordered_type(fm, t.text, t.line):
                out.append(Diag(
                    fm.rel, t.line, t.col, "unordered-iteration",
                    f"{t.text}.{toks[i + 2].text}() iterates an "
                    "unordered container"))
                i += 4
                continue
            i += 1
        return out

    def _range_is_unordered(self, fm, rng, line):
        ids = [t.text for t in rng if t.kind == "id"]
        if not ids:
            return None
        # direct temporary: for (x : std::unordered_map<...>{...})
        joined = fm.expand(" ".join(ids))
        for c in UNORDERED_CONTAINERS:
            if c in joined.split():
                # a declared variable, or a literal container type
                if self._unordered_type(fm, ids[-1], line) or c in ids \
                        or any(c in fm.expand(w) for w in ids):
                    return f"a std::{c}"
        if self._unordered_type(fm, ids[-1], line):
            return f"'{ids[-1]}'"
        return None

    def _pointer_keys(self, fm):
        out = []
        toks = fm.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in KEYED_CONTAINERS:
                continue
            if i + 1 >= n or toks[i + 1].text != "<":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            if prev in (".", "->"):
                continue
            close = skip_template_args(toks, i + 1)
            # first template argument (up to a top-level comma)
            depth = 0
            arg = []
            for k in range(i + 2, close - 1):
                tx = toks[k].text
                if tx == "<":
                    depth += 1
                elif tx in (">", ">>"):
                    depth -= 1
                elif tx == "," and depth == 0:
                    break
                arg.append(toks[k])
            if arg and arg[-1].text == "*":
                key = fm.expand(" ".join(a.text for a in arg))
                out.append(Diag(
                    fm.rel, t.line, t.col, "pointer-key",
                    f"std::{t.text} keyed by pointer ({key}): ordering/"
                    "hashing follows address-space layout"))
        return out

    # -- captures ---------------------------------------------------------

    def _captures(self, fm, checks):
        out = []
        toks = fm.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            sink = None
            region = None
            if t.kind == "id" and t.text in DEFERRED_SINKS \
                    and i + 1 < n and toks[i + 1].text == "(":
                sink = t.text
                region = (i + 2, match_balanced(toks, i + 1, "(", ")"))
            elif t.kind == "id" and (t.text in DEFERRED_TYPES):
                # `Callback cb = [...]` / `BarrierFn(...)` / InlineFn<..>
                j = i + 1
                if j < n and toks[j].text == "<":
                    j = skip_template_args(toks, j)
                # skip a variable name
                if j < n and toks[j].kind == "id":
                    j += 1
                if j < n and toks[j].text in ("=", "(", "{"):
                    sink = t.text
                    stop = {"=": ";", "(": ")", "{": "}"}[toks[j].text]
                    k = j
                    if toks[j].text in ("(", "{"):
                        region = (j + 1,
                                  match_balanced(toks, j, toks[j].text,
                                                 stop))
                    else:
                        k = j + 1
                        while k < n and toks[k].text != ";":
                            k += 1
                        region = (j + 1, k)
            if sink and region:
                for lam in self._lambdas_in(toks, *region):
                    out += self._check_lambda(fm, sink, lam, checks)
                i = region[1]
                continue
            i += 1
        return out

    def _lambdas_in(self, toks, lo, hi):
        """Yield (open_idx, close_idx) of top-level lambda introducers."""
        i = lo
        n = min(hi, len(toks))
        while i < n:
            t = toks[i]
            if t.text == "[":
                prev = toks[i - 1].text if i > 0 else ""
                if prev in ("(", ",", "=", "{", "return") or \
                        prev in DEFERRED_SINKS:
                    close = match_balanced(toks, i, "[", "]")
                    yield (i, close - 1)
                    i = close
                    continue
                i = match_balanced(toks, i, "[", "]")
                continue
            i += 1

    def _check_lambda(self, fm, sink, lam, checks):
        toks = fm.toks
        lo, hi = lam
        at = toks[lo]
        items = []
        depth = 0
        cur = []
        for k in range(lo + 1, hi):
            tx = toks[k].text
            if tx in ("(", "[", "{", "<"):
                depth += 1
            elif tx in (")", "]", "}", ">"):
                depth -= 1
            if tx == "," and depth == 0:
                items.append(cur)
                cur = []
            else:
                cur.append(toks[k])
        if cur:
            items.append(cur)
        out = []
        total = 0
        sized = bool(items)
        for item in items:
            texts = [t.text for t in item]
            if not texts:
                continue
            if texts == ["this"] or texts == ["*", "this"]:
                total += 8
                continue
            if texts[0] == "&":
                if len(texts) == 1:
                    what = "a capture-default [&]"
                else:
                    what = f"'&{texts[1]}'"
                if "dangling-capture" in checks:
                    out.append(Diag(
                        fm.rel, at.line, at.col, "dangling-capture",
                        f"lambda passed to {sink} captures {what} by "
                        "reference; the frame is gone when the event "
                        "fires"))
                continue
            if texts == ["="]:
                sized = False  # capture-default: size unknowable here
                continue
            name = texts[0]
            if "=" in texts:
                # init-capture: estimate from a std::move'd source if any
                src = None
                for k, tx in enumerate(texts):
                    if tx == "move" and k + 2 < len(texts):
                        src = texts[k + 2]
                total += self._size_of(fm, src or name, at.line)
            else:
                total += self._size_of(fm, name, at.line)
        if sized and total > EVENT_CALLBACK_BYTES and \
                "oversized-capture" in checks:
            out.append(Diag(
                fm.rel, at.line, at.col, "oversized-capture",
                f"lambda passed to {sink} captures ~{total} bytes by "
                f"value (> {EVENT_CALLBACK_BYTES}-byte InlineFn inline "
                "buffer): shrink the capture or box it"))
        return out

    def _size_of(self, fm, name, line):
        arr = fm.array_at(name, line)
        if arr is not None:
            return arr
        ty = fm.var_at(name, line)
        if ty:
            words = fm.expand(ty).split()
            for w in reversed(words):
                if w in TYPE_SIZES:
                    return TYPE_SIZES[w]
                if w in SCALAR_SIZES:
                    return SCALAR_SIZES[w]
        return 8

    # -- mc seam ----------------------------------------------------------

    def _mc_seam(self, models):
        classes = {}
        lines = {}
        for rel, fm in models.items():
            for name, (bases, mc, line) in fm.classes.items():
                if name in classes:
                    b0, m0 = classes[name]
                    classes[name] = (b0 or bases, m0 | mc)
                else:
                    classes[name] = (bases, set(mc))
                    lines[name] = (rel, line)
        root = "CoherenceDomain"
        if root not in classes:
            return []
        full = classes[root][1]
        if not full:
            return []

        def derives(name, seen=None):
            seen = seen or set()
            if name in seen or name not in classes:
                return False
            seen.add(name)
            return any(b == root or derives(b, seen)
                       for b in classes[name][0])

        def effective(name):
            if name == root or name not in classes:
                return set()
            own = classes[name][1] & full
            for b in classes[name][0]:
                own = own | effective(b)
            return own

        out = []
        for name in sorted(classes):
            if name == root or not derives(name):
                continue
            eff = effective(name)
            if eff and eff != full:
                missing = ", ".join(sorted(full - eff))
                rel, line = lines[name]
                out.append(Diag(
                    rel, line, 1, "mc-seam",
                    f"{name} overrides part of the CoherenceDomain mc* "
                    f"seam but not: {missing} — a backend must override "
                    "the full set (or none), or cnimc silently checks "
                    "stale defaults"))
        return out


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------

def load_allowlist(path):
    allowed = set()
    if not path.exists():
        return allowed
    for raw in path.read_text().splitlines():
        entry = raw.split("#", 1)[0].strip()
        if entry:
            allowed.add(entry)
    return allowed


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def repo_files(root):
    files = []
    for base, _dirs, names in os.walk(root / "src"):
        for name in sorted(names):
            if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                p = os.path.join(base, name)
                files.append((p, os.path.relpath(p, root)))
    return sorted(files, key=lambda f: f[1])


def scope_checks(diags):
    """Apply the determinism-core scope: determinism findings outside
    CORE_DIRS are dropped; hygiene findings apply to all of src/."""
    out = []
    for d in diags:
        if d.check in DETERMINISM_CHECKS:
            if not any(d.path.startswith(c + "/") or d.path == c
                       for c in CORE_DIRS):
                continue
        out.append(d)
    return out


def run_repo(args):
    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"cnicheck: no src/ under {root}", file=sys.stderr)
        return 2
    files = repo_files(root)
    diags = TokenEngine().analyze(files, set(ALL_CHECKS))
    diags = scope_checks(diags)
    allowed = load_allowlist(root / "tools" / "determinism_allowlist.txt")
    diags = [d for d in diags if f"{d.path}:{d.check}" not in allowed]
    diags.sort(key=lambda d: (d.path, d.line, d.check))
    uniq = []
    seen = set()
    for d in diags:
        if d.key() in seen:
            continue
        seen.add(d.key())
        uniq.append(d)
    if uniq:
        print(f"cnicheck: {len(uniq)} finding(s) over "
              f"{len(files)} files:\n")
        for d in uniq:
            print(d.render())
        print("\nFix the code, or add 'path:check' to "
              "tools/determinism_allowlist.txt with a justifying "
              "comment.")
        return 1
    print(f"cnicheck: {len(files)} files clean "
          f"({len(ALL_CHECKS)} checks)")
    return 0


_EXPECT_RE = re.compile(r"//\s*CNICHECK-EXPECT:\s*([a-z-]+)")


def run_fixtures(args):
    """Conformance mode: every fixture file declares the exact expected
    diagnostics with `// CNICHECK-EXPECT: <check>` on the offending
    line; any miss or extra is a failure."""
    fixdir = pathlib.Path(args.fixtures).resolve()
    if not fixdir.is_dir():
        print(f"cnicheck: no fixture dir {fixdir}", file=sys.stderr)
        return 2
    files = []
    expected = set()
    for p in sorted(fixdir.glob("*.cc")):
        rel = p.name
        files.append((str(p), rel))
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            for m in _EXPECT_RE.finditer(line):
                expected.add((rel, lineno, m.group(1)))
    if not files:
        print(f"cnicheck: no *.cc fixtures in {fixdir}", file=sys.stderr)
        return 2
    diags = TokenEngine().analyze(files, set(ALL_CHECKS))
    got = {d.key() for d in diags}
    missing = expected - got
    extra = got - expected
    for rel, line, check in sorted(missing):
        print(f"FIXTURE MISS  {rel}:{line}: expected [{check}] "
              "not reported")
    for d in sorted(diags, key=lambda d: d.key()):
        if d.key() in extra:
            print(f"FIXTURE EXTRA {d.render()}")
    status = "ok" if not missing and not extra else "FAILED"
    print(f"cnicheck fixtures: {len(files)} files, "
          f"{len(expected)} expected diagnostics, "
          f"{len(missing)} missing, {len(extra)} extra -> {status}")
    return 0 if status == "ok" else 1


SEED_BUG_SNIPPET = """\
// Seeded violation 1: a host-clock header in the core.
#include <chrono>

namespace cni
{

// Seeded violation 2: iterating an unordered container in the core.
int
seededIteration(const std::unordered_map<int, int> &m)
{
    int sum = 0;
    for (const auto &kv : m)
        sum += kv.second;
    return sum;
}

// Seeded violation 3: a by-reference capture handed to the scheduler.
void
seededCapture(EventQueue &eq)
{
    int local = 7;
    eq.scheduleIn(3, [&local] { local += 1; });
}

} // namespace cni
"""


def run_seed_bug():
    """Self-test mirroring cnimc --seed-bug: plant the three canonical
    violations and require the analyzer to flag all of them. Exit 0 when
    all are caught, 1 when the analyzer has gone blind."""
    with tempfile.TemporaryDirectory(prefix="cnicheck-seed.") as td:
        seeded = pathlib.Path(td) / "seeded.cc"
        seeded.write_text(SEED_BUG_SNIPPET)
        diags = TokenEngine().analyze([(str(seeded), "seeded.cc")],
                                      set(ALL_CHECKS))
    found = {d.check for d in diags}
    want = {"banned-include", "unordered-iteration", "dangling-capture"}
    missed = want - found
    for d in diags:
        print(f"  caught: {d.render()}")
    if missed:
        print("cnicheck --seed-bug: FAILED to flag "
              f"{', '.join(sorted(missed))} — the analyzer can no "
              "longer see its target bug classes")
        return 1
    print("cnicheck --seed-bug: all three seeded violations caught")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="project-specific static analysis",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repository root (default: this script's repo)")
    ap.add_argument("--fixtures", default=None,
                    help="run the fixture conformance suite in DIR")
    ap.add_argument("--seed-bug", action="store_true",
                    help="self-test: plant three violations, require all "
                         "flagged")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args()

    if args.list_checks:
        for c in ALL_CHECKS:
            scope = ("core" if c in DETERMINISM_CHECKS else "src")
            print(f"{c:20s} [{scope}]")
        return 0
    if args.fixtures:
        return run_fixtures(args)
    if args.seed_bug:
        return run_seed_bug()
    if args.root is None:
        args.root = str(pathlib.Path(__file__).resolve().parent.parent)
    return run_repo(args)


if __name__ == "__main__":
    sys.exit(main())
