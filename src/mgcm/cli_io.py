"""Session-file DSL, command line, report emission, and the result cache.

The DSL is line-oriented: statements end with `;`, comments run from `#` to
end of line.  Declarations (ring / ideal / module / rees / multirees /
diagonal) bind unique names; directives (check / table / verify) consume
earlier names.  Parsing collects every diagnostic with its line and column
instead of stopping at the first.

`DIRECTIVES` is the one table of directives, keyed by verb or verify id:
the target kinds each accepts, the keys it reads, and its runner.  The
parser, the ad-hoc `mgcm verify ID FILE TARGET` path and execution all read
it.  Runners call the checkers by their module-level names at call time and
never hold the function objects, so whatever rebinds those names (a
profiler's wrappers) sees every call.
"""

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .graded_poly import (
    DEFAULT_PRIME,
    GradedRing,
    InputError,
    ResourceLimit,
    field_for_char,
    parse_polynomial,
)
from .groebner_engine import cyclic_presentation, free_presentation
from .homological import a_invariant, is_cohen_macaulay, is_zero_module, v_of
from .cohomology import cohomology_table
from .rees_constructions import diagonal_of, rees_module_presentation
from .theorem_harness import (
    AggregateReport,
    CheckRecord,
    VerificationReport,
    VERDICT_EXIT,
    _cell,
    _finish,
    _window_box,
    run_corpus,
    verify_cm_biconditional,
    verify_colon_identities,
    verify_rees_a_invariant,
    verify_rees_transfer,
    verify_regraded_vanishing,
    verify_spread_vanishing,
    worst_verdict,
)

ENGINE_VERSION = "mgcm-" + __version__
CACHE_ENV_VAR = "MGCM_CACHE_DIR"
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def render(self, path: str = "") -> str:
        head = f"{path}:" if path else ""
        return f"{head}{self.line}:{self.col}: {self.message}"


class SessionDiagnostics(InputError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


# ---------------------------------------------------------------------------
# session AST


@dataclass(frozen=True)
class VarGroup:
    names: Tuple[str, ...]
    mdeg: Tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class RingDecl:
    name: str
    char: Optional[int]  # None means "default", resolved by flag at build time
    groups: Tuple[VarGroup, ...]


@dataclass(frozen=True)
class IdealDecl:
    name: str
    ring: str
    gens: Tuple[str, ...]


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    kind: str  # "free" | "quotient"
    ring: str
    shifts: Tuple[Tuple[Tuple[int, ...], int], ...]
    gens: Tuple[str, ...]


@dataclass(frozen=True)
class ReesDecl:
    name: str
    kind: str  # "rees" | "multirees"
    module: str
    ideals: Tuple[str, ...]


@dataclass(frozen=True)
class DiagonalDecl:
    name: str
    rees: str


@dataclass(frozen=True)
class Directive:
    verb: str  # "check" | "table" | "verify"
    theorem: str  # verify id, or "" for check/table
    target: str
    args: Tuple[Tuple[str, str], ...]  # sorted (key, raw value text)


@dataclass(frozen=True)
class Session:
    declarations: Tuple[object, ...]
    directives: Tuple[Directive, ...]

    def names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.declarations)


# ---------------------------------------------------------------------------
# parser plumbing


def _line_starts(text: str) -> List[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def _pos(starts: List[int], offset: int) -> Tuple[int, int]:
    import bisect

    line = bisect.bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def _strip_comments(text: str) -> str:
    out = []
    commented = False
    for ch in text:
        if ch == "\n":
            commented = False
            out.append(ch)
        elif ch == "#":
            commented = True
            out.append(" ")
        else:
            out.append(" " if commented else ch)
    return "".join(out)


def _split_statements(clean: str, diags: List[Diagnostic], starts) -> List[Tuple[int, str]]:
    """(offset, text) per `;`-terminated statement, respecting parentheses."""
    stmts = []
    depth = 0
    begin = 0
    for i, ch in enumerate(clean):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                line, col = _pos(starts, i)
                diags.append(Diagnostic(line, col, "unbalanced ')'"))
                depth = 0
        elif ch == ";" and depth == 0:
            chunk = clean[begin:i]
            if chunk.strip():
                lead = len(chunk) - len(chunk.lstrip())
                stmts.append((begin + lead, chunk.strip()))
            begin = i + 1
    tail = clean[begin:]
    if tail.strip():
        lead = len(tail) - len(tail.lstrip())
        line, col = _pos(starts, begin + lead)
        diags.append(Diagnostic(line, col, "statement is missing a terminating ';'"))
    return stmts


def _split_top(text: str, offset: int, sep: str) -> List[Tuple[int, str]]:
    parts = []
    depth = 0
    begin = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append((offset + begin, text[begin:i]))
            begin = i + 1
    parts.append((offset + begin, text[begin:]))
    return parts


def _trimmed(piece: Tuple[int, str]) -> Tuple[int, str]:
    off, text = piece
    lead = len(text) - len(text.lstrip())
    return off + lead, text.strip()


_DEG_RE = re.compile(r"\(\s*(-?\d+)(\s*,\s*-?\d+)*\s*\)\Z")


def _parse_deg(text: str) -> Optional[Tuple[int, ...]]:
    if not _DEG_RE.match(text.strip()):
        return None
    body = text.strip()[1:-1]
    return tuple(int(x) for x in body.split(","))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.starts = _line_starts(text)
        self.diags: List[Diagnostic] = []
        self.decls: List[object] = []
        self.directives: List[Directive] = []
        self.kinds: Dict[str, str] = {}
        self.ring_of: Dict[str, str] = {}
        self.ring_decls: Dict[str, RingDecl] = {}
        self.last_ring: Optional[str] = None

    def err(self, offset: int, message: str):
        line, col = _pos(self.starts, offset)
        self.diags.append(Diagnostic(line, col, message))

    # -- entry

    def run(self) -> Session:
        clean = _strip_comments(self.text)
        for offset, stmt in _split_statements(clean, self.diags, self.starts):
            self.statement(offset, stmt)
        if self.diags:
            raise SessionDiagnostics(self.diags)
        return Session(tuple(self.decls), tuple(self.directives))

    def statement(self, offset: int, stmt: str):
        m = re.match(r"(ring|ideal|module|rees|multirees|diagonal)\s+", stmt)
        if m:
            rest = stmt[m.end():]
            self.declaration(m.group(1), offset, offset + m.end(), rest)
            return
        m = re.match(r"(check|table|verify)\s+", stmt)
        if m:
            self.directive(m.group(1), offset, offset + m.end(), stmt[m.end():])
            return
        word = stmt.split()[0] if stmt.split() else stmt
        self.err(offset, f"unknown statement '{word}'")

    # -- declarations

    def declaration(self, kind: str, offset: int, body_off: int, body: str):
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*", body)
        if not m:
            self.err(body_off, f"expected 'NAME = ...' after '{kind}'")
            return
        name = m.group(1)
        if name in self.kinds:
            self.err(body_off, f"duplicate name '{name}'")
            return
        rhs_off = body_off + m.end()
        rhs = body[m.end():].strip()
        handler = getattr(self, "decl_" + kind)
        decl = handler(name, rhs_off, rhs)
        if decl is not None:
            self.decls.append(decl)
            self.kinds[name] = kind

    def _call_body(self, head: str, rhs_off: int, rhs: str) -> Optional[Tuple[int, str]]:
        m = re.match(re.escape(head) + r"\s*\(", rhs)
        if not m or not rhs.endswith(")"):
            self.err(rhs_off, f"expected '{head}( ... )'")
            return None
        return rhs_off + m.end(), rhs[m.end():-1]

    def decl_ring(self, name: str, rhs_off: int, rhs: str):
        got = self._call_body("poly", rhs_off, rhs)
        if got is None:
            return None
        off, body = got
        pieces = [_trimmed(p) for p in _split_top(body, off, ";")]
        if not pieces or not pieces[0][1]:
            self.err(off, "ring needs 'char=...' first")
            return None
        coff, ctext = pieces[0]
        m = re.match(r"char\s*=\s*(default|\d+)\Z", ctext)
        if not m:
            self.err(coff, "expected 'char=<prime-or-0-or-default>'")
            return None
        char = None if m.group(1) == "default" else int(m.group(1))
        if len(pieces) < 2:
            self.err(off, "ring needs at least one variable group")
            return None
        groups = []
        rank = None
        for goff, gtext in pieces[1:]:
            g = self.var_group(goff, gtext)
            if g is None:
                return None
            if rank is None:
                rank = len(g.mdeg)
            elif len(g.mdeg) != rank:
                self.err(goff, f"degree rank mismatch: expected {rank} entries")
                return None
            groups.append(g)
        decl = RingDecl(name, char, tuple(groups))
        self.ring_decls[name] = decl
        self.last_ring = name
        return decl

    def var_group(self, goff: int, gtext: str) -> Optional[VarGroup]:
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*(\s*,\s*[A-Za-z_][A-Za-z0-9_]*)*)\s*:\s*", gtext)
        if not m:
            self.err(goff, "expected 'names : deg=(...), weight=w'")
            return None
        names = tuple(x.strip() for x in m.group(1).split(","))
        spec = gtext[m.end():]
        soff = goff + m.end()
        mdeg = None
        weight = 1
        for aoff, atext in (_trimmed(p) for p in _split_top(spec, soff, ",")):
            am = re.match(r"(deg|weight)\s*=\s*(.*)\Z", atext, re.S)
            if not am:
                self.err(aoff, f"unknown variable attribute '{atext}'")
                return None
            if am.group(1) == "deg":
                mdeg = _parse_deg(am.group(2))
                if mdeg is None:
                    self.err(aoff, "deg expects a tuple like (1,0)")
                    return None
            else:
                try:
                    weight = int(am.group(2).strip())
                except ValueError:
                    self.err(aoff, "weight expects an integer")
                    return None
        if mdeg is None:
            self.err(goff, "variable group needs deg=(...)")
            return None
        return VarGroup(names, mdeg, weight)

    def gen_list(self, off: int, body: str, ring_name: Optional[str]) -> Optional[Tuple[str, ...]]:
        gens = []
        ring = self.ring_decls.get(ring_name) if ring_name else None
        varnames = {n for g in ring.groups for n in g.names} if ring else set()
        for goff, gtext in (_trimmed(p) for p in _split_top(body, off, ",")):
            if not gtext:
                line, _ = _pos(self.starts, goff)
                self.err(goff, f"empty generator at line {line}")
                return None
            if ring is not None:
                for vm in _NAME_RE.finditer(gtext):
                    if vm.group(0) not in varnames:
                        self.err(
                            goff + vm.start(),
                            f"unknown identifier '{vm.group(0)}' in ring '{ring_name}'",
                        )
                        return None
            gens.append(gtext)
        return tuple(gens)

    def decl_ideal(self, name: str, rhs_off: int, rhs: str):
        if not (rhs.startswith("(") and rhs.endswith(")")):
            self.err(rhs_off, "expected '( generators )'")
            return None
        gens = self.gen_list(rhs_off + 1, rhs[1:-1], self.last_ring)
        if gens is None:
            return None
        if self.last_ring is None:
            self.err(rhs_off, "no ring declared before this ideal")
            return None
        self.ring_of[name] = self.last_ring
        return IdealDecl(name, self.last_ring, gens)

    def decl_module(self, name: str, rhs_off: int, rhs: str):
        m = re.match(r"(free|quotient)\s*\(", rhs)
        if not m or not rhs.endswith(")"):
            self.err(rhs_off, "expected 'free( ... )' or 'quotient( ... )'")
            return None
        kind = m.group(1)
        off = rhs_off + m.end()
        body = rhs[m.end():-1]
        pieces = [_trimmed(p) for p in _split_top(body, off, ";")]
        roff, rname = pieces[0]
        if self.kinds.get(rname) != "ring":
            self.err(roff, f"'{rname}' is not a declared ring")
            return None
        rank = len(self.ring_decls[rname].groups[0].mdeg)
        if kind == "free":
            shifts: List[Tuple[Tuple[int, ...], int]] = []
            if len(pieces) > 1:
                for soff, stext in (_trimmed(p) for p in _split_top(pieces[1][1], pieces[1][0], ",")):
                    sm = re.match(r"(\([^)]*\))\s*(?::\s*(-?\d+))?\Z", stext)
                    deg = _parse_deg(sm.group(1)) if sm else None
                    if deg is None:
                        self.err(soff, "shift expects '(d1,...,dr):w'")
                        return None
                    if len(deg) != rank:
                        self.err(soff, f"degree rank mismatch: expected {rank} entries")
                        return None
                    shifts.append((deg, int(sm.group(2)) if sm.group(2) else 0))
            else:
                shifts.append(((0,) * rank, 0))
            self.ring_of[name] = rname
            return ModuleDecl(name, "free", rname, tuple(shifts), ())
        if len(pieces) < 2:
            self.err(off, "quotient needs generators after the ring")
            return None
        gens = self.gen_list(pieces[1][0], pieces[1][1], rname)
        if gens is None:
            return None
        self.ring_of[name] = rname
        return ModuleDecl(name, "quotient", rname, (((0,) * rank, 0),), gens)

    def _rees_like(self, kind: str, name: str, rhs_off: int, rhs: str):
        got = self._call_body("rees", rhs_off, rhs)
        if got is None:
            return None
        off, body = got
        pieces = [_trimmed(p) for p in _split_top(body, off, ";")]
        moff, mname = pieces[0]
        if self.kinds.get(mname) != "module":
            self.err(moff, f"'{mname}' is not a declared module")
            return None
        if len(pieces) < 2 or not pieces[1][1]:
            self.err(off, "rees needs at least one ideal")
            return None
        ideals = []
        for ioff, iname in (_trimmed(p) for p in _split_top(pieces[1][1], pieces[1][0], ",")):
            if self.kinds.get(iname) != "ideal":
                self.err(ioff, f"'{iname}' is not a declared ideal")
                return None
            if self.ring_of[iname] != self.ring_of[mname]:
                self.err(
                    ioff,
                    f"ideal '{iname}' lives in ring '{self.ring_of[iname]}'"
                    f" but module '{mname}' lives in ring '{self.ring_of[mname]}'",
                )
                return None
            ideals.append(iname)
        if kind == "rees" and len(ideals) != 1:
            self.err(off, "'rees' takes exactly one ideal; use 'multirees'")
            return None
        return ReesDecl(name, kind, mname, tuple(ideals))

    def decl_rees(self, name, rhs_off, rhs):
        return self._rees_like("rees", name, rhs_off, rhs)

    def decl_multirees(self, name, rhs_off, rhs):
        return self._rees_like("multirees", name, rhs_off, rhs)

    def decl_diagonal(self, name: str, rhs_off: int, rhs: str):
        got = self._call_body("diagonal", rhs_off, rhs)
        if got is None:
            return None
        off, body = got
        rname = body.strip()
        if self.kinds.get(rname) not in ("rees", "multirees"):
            self.err(off, f"'{rname}' is not a declared rees/multirees object")
            return None
        return DiagonalDecl(name, rname)

    # -- directives

    def directive(self, verb: str, offset: int, body_off: int, body: str):
        words = body.split()
        theorem = ""
        if verb == "verify":
            if not words:
                self.err(body_off, "verify needs a statement id and a target")
                return
            theorem = words[0]
            if theorem not in VERIFY_IDS:
                self.err(body_off, f"unknown verification id '{theorem}'")
                return
            body = body[body.index(theorem) + len(theorem):]
            body_off += len(theorem)
            words = body.split()
        if not words:
            self.err(body_off, f"{verb} needs a target name")
            return
        target = words[0]
        toff = body_off + body.index(target)
        if target not in self.kinds:
            self.err(toff, f"unknown identifier '{target}'")
            return
        head = theorem or verb
        wrong = _kind_error(head, self.kinds[target], target)
        if wrong:
            self.err(toff, wrong)
            return
        rest = body[body.index(target) + len(target):]
        roff = body_off + body.index(target) + len(target)
        args: List[Tuple[str, str]] = []
        keys = DIRECTIVES[head][1]
        for am in re.finditer(r"(\S+)", rest):
            atext = am.group(1)
            km = re.match(r"([a-z]+)=(.*)\Z", atext)
            if not km:
                self.err(roff + am.start(), f"expected 'key=value', got '{atext}'")
                return
            if km.group(1) not in keys:
                self.err(roff + am.start(), f"'{head}' does not read '{km.group(1)}'"
                         f" (keys: {', '.join(keys) or 'none'})")
                return
            if any(k == km.group(1) for k, _ in args):
                self.err(roff + am.start(), f"key '{km.group(1)}' given twice")
                return
            args.append((km.group(1), km.group(2)))
        self.directives.append(Directive(verb, theorem, target, tuple(sorted(args))))


def parse_session(text: str) -> Session:
    """Parse and validate; raises SessionDiagnostics listing every problem."""
    return _Parser(text).run()


# ---------------------------------------------------------------------------
# canonical printing


def _fmt_deg(d: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


def print_session(session: Session) -> str:
    lines = []
    for d in session.declarations:
        if isinstance(d, RingDecl):
            groups = "; ".join(
                f"{','.join(g.names)} : deg={_fmt_deg(g.mdeg)}, weight={g.weight}"
                for g in d.groups
            )
            char = "default" if d.char is None else str(d.char)
            lines.append(f"ring {d.name} = poly(char={char}; {groups});")
        elif isinstance(d, IdealDecl):
            lines.append(f"ideal {d.name} = ({', '.join(d.gens)});")
        elif isinstance(d, ModuleDecl):
            if d.kind == "free":
                if d.shifts == (((0,) * len(d.shifts[0][0]), 0),):
                    lines.append(f"module {d.name} = free({d.ring});")
                else:
                    body = ", ".join(f"{_fmt_deg(m)}:{w}" for m, w in d.shifts)
                    lines.append(f"module {d.name} = free({d.ring}; {body});")
            else:
                lines.append(f"module {d.name} = quotient({d.ring}; {', '.join(d.gens)});")
        elif isinstance(d, ReesDecl):
            lines.append(f"{d.kind} {d.name} = rees({d.module}; {', '.join(d.ideals)});")
        elif isinstance(d, DiagonalDecl):
            lines.append(f"diagonal {d.name} = diagonal({d.rees});")
    for t in session.directives:
        head = f"verify {t.theorem}" if t.verb == "verify" else t.verb
        args = "".join(f" {k}={v}" for k, v in t.args)
        lines.append(f"{head} {t.target}{args};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# building objects


@dataclass(frozen=True)
class ReesData:
    module: object  # the rees module presentation
    source: object  # the coefficient module
    ideals: Tuple[Tuple[object, ...], ...]


def build_session(session: Session, char: Optional[int] = None) -> Dict[str, Tuple[str, object]]:
    """name -> (kind, object); char replaces 'default' ring characteristics."""
    out: Dict[str, Tuple[str, object]] = {}
    for d in session.declarations:
        if isinstance(d, RingDecl):
            c = d.char if d.char is not None else (char if char is not None else DEFAULT_PRIME)
            names: List[str] = []
            degs: List[Tuple[int, ...]] = []
            weights: List[int] = []
            for g in d.groups:
                for n in g.names:
                    names.append(n)
                    degs.append(g.mdeg)
                    weights.append(g.weight)
            ring = GradedRing(field_for_char(c), tuple(names), tuple(degs), tuple(weights))
            out[d.name] = ("ring", ring)
        elif isinstance(d, IdealDecl):
            ring = out[d.ring][1]
            out[d.name] = ("ideal", tuple(parse_polynomial(ring, g) for g in d.gens))
        elif isinstance(d, ModuleDecl):
            ring = out[d.ring][1]
            if d.kind == "free":
                out[d.name] = ("module", free_presentation(ring, d.shifts))
            else:
                gens = tuple(parse_polynomial(ring, g) for g in d.gens)
                out[d.name] = ("module", cyclic_presentation(ring, gens))
        elif isinstance(d, ReesDecl):
            source = out[d.module][1]
            ideals = tuple(out[i][1] for i in d.ideals)
            mod = rees_module_presentation(source, ideals)
            out[d.name] = (d.kind, ReesData(mod, source, ideals))
        elif isinstance(d, DiagonalDecl):
            rees = out[d.rees][1]
            value, _cert = diagonal_of(rees.source, rees.ideals)
            out[d.name] = ("diagonal", value)
    return out


# ---------------------------------------------------------------------------
# directive execution


def _parse_window_arg(text: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    m = re.match(r"(\([^)]*\))\.\.(\([^)]*\))\Z", text.strip())
    lo = _parse_deg(m.group(1)) if m else None
    hi = _parse_deg(m.group(2)) if m else None
    if lo is None or hi is None:
        raise InputError(f"window expects '(a,...)..(b,...)', got '{text}'")
    return lo, hi


def _parse_range_arg(text: str) -> range:
    m = re.match(r"(-?\d+)\.\.(-?\d+)\Z", text.strip())
    if not m:
        raise InputError(f"range expects 'a..b', got '{text}'")
    a, b = int(m.group(1)), int(m.group(2))
    if b < a:
        raise InputError(f"empty range '{text}': the end is below the start")
    return range(a, b + 1)


def _arg(args: Dict[str, str], key: str, parse, default):
    return parse(args[key]) if key in args else default


def _window(args: Dict[str, str], flags: "RunFlags"):
    return _arg(args, "window", _parse_window_arg, flags.window)


def _bound(args: Dict[str, str], obj: ReesData) -> Tuple[int, ...]:
    if "bound" not in args:
        return (2,) * len(obj.ideals)
    bound = _parse_deg(args["bound"])
    if bound is None:
        raise InputError(f"bound expects a tuple, got '{args['bound']}'")
    return bound


def _one_ideal(obj: ReesData) -> Tuple[object, ...]:
    if len(obj.ideals) != 1:
        raise InputError("lem44 needs a rees object with exactly one ideal")
    return obj.ideals[0]


def _run_check(mod, instance) -> VerificationReport:
    inv = is_cohen_macaulay(mod)
    rows = [
        CheckRecord("dim", None, None, str(inv.dim), "", "info"),
        CheckRecord("depth", None, None, str(inv.depth), "", "info"),
        CheckRecord("pd", None, None, str(inv.pd), "", "info"),
        CheckRecord("cm", None, None, str(inv.cm), "", "info"),
    ]
    if not is_zero_module(mod):
        v = v_of(mod)
        a = a_invariant(mod)
        rows.append(CheckRecord("v", None, v, str(v), "", "info"))
        rows.append(CheckRecord("a", None, a, str(a), "", "info"))
    return _finish("check", instance, mod.ring, (), rows)


def _run_table(obj, args: Dict[str, str], flags: "RunFlags", instance) -> VerificationReport:
    i_range = _arg(args, "i", _parse_range_arg, range(0, 3))
    box, lo, hi = _window_box(obj, _window(args, flags))
    table = cohomology_table(obj, i_range, box)
    rows = [
        CheckRecord("sheaf-dim", i, n, str(dim), "", "info", table.mode)
        for (i, n, dim) in table.entries
    ]
    return _finish("table", instance, obj.ring, (), rows, (lo, hi))


_REES = ("rees", "multirees")

# verb or verify id -> (target kinds, keys read, runner(kind, obj, args, flags,
# instance)); the parser refuses any other key.  The verify ids follow the
# two verbs in the order `mgcm verify` lists them.
DIRECTIVES = {
    "check": (("module", "rees", "multirees", "diagonal"), (),
              lambda k, o, a, f, i: _run_check(o.module if k in _REES else o, i)),
    "table": (("module",), ("i", "window"), lambda k, o, a, f, i: _run_table(o, a, f, i)),
    "thm31": (("module",), ("window",),
              lambda k, o, a, f, i: verify_cm_biconditional(o, _window(a, f), i)),
    "lem-vanish": (("module",), ("window", "k"), lambda k, o, a, f, i: verify_regraded_vanishing(
        o, _window(a, f), _arg(a, "k", _parse_range_arg, (0, 1, 2)), i)),
    "lem41": (_REES, (), lambda k, o, a, f, i: verify_rees_a_invariant(o.source, o.ideals, i)),
    "thm42": (_REES, (), lambda k, o, a, f, i: verify_rees_transfer(o.source, o.ideals, i)),
    "lem44": (_REES, ("weights",), lambda k, o, a, f, i: verify_spread_vanishing(
        o.source, _one_ideal(o), _arg(a, "weights", _parse_range_arg, range(-3, 4)), i)),
    "lem45": (_REES, ("bound",), lambda k, o, a, f, i: verify_colon_identities(
        o.source, o.ideals, _bound(a, o), "pushforward-colon", i)),
    "thm46": (_REES, ("bound",), lambda k, o, a, f, i: verify_colon_identities(
        o.source, o.ideals, _bound(a, o), "subset-colon", i)),
}
VERIFY_IDS = tuple(DIRECTIVES)[2:]


def _kind_error(head: str, kind: str, target: str) -> Optional[str]:
    """Why directive `head` refuses a target of this kind, or None."""
    kinds = DIRECTIVES[head][0]
    if kind in kinds:
        return None
    if head in VERIFY_IDS:
        return f"'{head}' expects a {' or '.join(kinds)} target, got {kind} '{target}'"
    return f"'{target}' ({kind}) cannot be used with {head}"


@dataclass(frozen=True)
class RunFlags:
    char: Optional[int] = None
    window: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    def key_material(self) -> str:
        return json.dumps(
            {"char": self.char, "window": self.window},
            sort_keys=True,
        )


def execute_session(
    session: Session, flags: RunFlags = RunFlags(), stem: str = "session",
    only: Optional[Tuple[str, Optional[str]]] = None,
) -> AggregateReport:
    """Run directives (optionally only `verify ID [TARGET]`) as corpus entries."""
    objects = build_session(session, flags.char)
    entries = []
    directives = list(session.directives)
    if only is not None:
        theorem, target = only
        directives = [
            t for t in directives
            if t.verb == "verify" and t.theorem == theorem
            and (target is None or t.target == target)
        ]
        if not directives and target is not None:
            directives = [Directive("verify", theorem, target, ())]
        if not directives:
            raise InputError(f"no 'verify {theorem}' directive in the session")
    for idx, t in enumerate(directives, 1):
        if t.target not in objects:
            raise InputError(f"unknown target '{t.target}'")
        kind, obj = objects[t.target]
        head = t.theorem or t.verb
        wrong = _kind_error(head, kind, t.target)
        if wrong:
            raise InputError(wrong)
        instance = f"{stem}:{idx}:{head}:{t.target}"
        run = DIRECTIVES[head][2]
        entries.append((instance, partial(run, kind, obj, dict(t.args), flags, instance)))
    return run_corpus(entries)


# ---------------------------------------------------------------------------
# report serialization


def _fmt_degree_cell(degree) -> str:
    return "" if degree is None else _cell(degree)


def _fmt_window(window) -> str:
    if window is None:
        return ""
    lo, hi = window
    return _fmt_degree_cell(lo) + ".." + _fmt_degree_cell(hi)


def report_to_dict(rep: VerificationReport) -> dict:
    return {
        "characteristic": rep.characteristic,
        "checks": [
            {
                "check": c.check,
                "degree": _fmt_degree_cell(c.degree),
                "expected": c.expected,
                "i": c.i,
                "mode": c.mode,
                "value": c.value,
                "verdict": c.verdict,
            }
            for c in rep.checks
        ],
        "hypotheses": [
            {"name": h.name, "passed": h.passed, "witness": h.witness}
            for h in rep.hypotheses
        ],
        "instance": rep.instance,
        "left": rep.left,
        "modes": list(rep.modes),
        "right": rep.right,
        "theorem": rep.theorem,
        "verdict": rep.verdict,
        "window": _fmt_window(rep.window) or None,
    }


def aggregate_to_dict(agg: AggregateReport) -> dict:
    return {
        "entries": [report_to_dict(r) for r in agg.entries],
        "summary": {"pass": agg.passed, "fail": agg.failed},
    }


CSV_COLUMNS = ("object", "check", "i", "degree", "value", "expected", "verdict", "mode", "window")


def _csv_rows_for_report(rd: dict) -> List[List[str]]:
    obj = rd["instance"] or rd["theorem"]
    window = rd["window"] or ""
    rows = []
    for h in rd["hypotheses"]:
        rows.append(
            [obj, "hypothesis:" + h["name"], "", "", str(h["passed"]), "True",
             "pass" if h["passed"] else "fail", h["witness"], window]
        )
    for c in rd["checks"]:
        rows.append(
            [obj, c["check"], "" if c["i"] is None else str(c["i"]), c["degree"],
             c["value"], c["expected"], c["verdict"], c["mode"], window]
        )
    rows.append([obj, "verdict", "", "", rd["verdict"], "", rd["verdict"], "", window])
    return rows


def _csv_bytes(rows: List[List[str]]) -> bytes:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def emit_report(report, fmt: str = "json") -> bytes:
    """Deterministic bytes for a report, an aggregate, or a pre-shaped dict."""
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown report format '{fmt}'")
    if isinstance(report, VerificationReport):
        shaped = report_to_dict(report)
    elif isinstance(report, AggregateReport):
        shaped = aggregate_to_dict(report)
    elif isinstance(report, dict):
        shaped = report
    else:
        raise InputError("emit_report expects a report, an aggregate, or a dict")
    if fmt == "json":
        return json.dumps(shaped, separators=(",", ":")).encode("utf-8")
    if "entries" in shaped:
        rows = []
        for entry in shaped["entries"]:
            if "detail" in entry:
                rows.append(
                    [entry["instance"], "corpus-entry", "", "", entry["verdict"],
                     entry["expected"], "pass" if entry["ok"] else "fail", "", ""]
                )
            else:
                rows.extend(_csv_rows_for_report(entry))
        return _csv_bytes(rows)
    return _csv_bytes(_csv_rows_for_report(shaped))


# ---------------------------------------------------------------------------
# content-addressed cache


def cache_directory(flag_value: Optional[str] = None) -> str:
    return flag_value or os.environ.get(CACHE_ENV_VAR) or ".mgcm-cache"


def _cache_path(directory: str, material: str) -> str:
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
    return os.path.join(directory, digest + ".json")


def cache_fetch(directory: str, material: str) -> Optional[dict]:
    """Stored result for this exact key material; a hash collision (different
    material, same digest) or a corrupt entry reads as a miss so the caller
    recomputes."""
    path = _cache_path(directory, material)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("key") != material:
        return None
    return data.get("result")


def cache_store(directory: str, material: str, result: dict) -> None:
    payload = {
        "created": datetime.now(timezone.utc).isoformat(),
        "engine": ENGINE_VERSION,
        "key": material,
        "result": result,
    }
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, _cache_path(directory, material))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as e:
        raise InputError(f"cannot write cache directory '{directory}': {e.strerror or e}") from e


_SOURCE_DIGEST: Optional[str] = None


def _source_digest() -> str:
    """sha256 over the package's .py files, read once per process: any change
    to the code that computes results changes every cache key, with or
    without a version bump."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        here = os.path.dirname(os.path.abspath(__file__))
        h = hashlib.sha256()
        for name in sorted(os.listdir(here)):
            if name.endswith(".py"):
                with open(os.path.join(here, name), "rb") as fh:
                    data = fh.read()
                h.update(f"{name}\0{len(data)}\0".encode("utf-8"))
                h.update(data)
        _SOURCE_DIGEST = h.hexdigest()
    return _SOURCE_DIGEST


def _file_key_material(text: str, flags: RunFlags, scope: str) -> str:
    return json.dumps(
        {
            "source": _source_digest(),
            "flags": json.loads(flags.key_material()),
            "scope": scope,
            "session": text,
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# corpus


def _read_text(path: str) -> str:
    """A session or manifest file's text; a file that cannot be opened is an
    input error, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read '{path}': {e.strerror or e}") from e


def _is_corpus_entry(result) -> bool:
    """Has a cached result the shape `run_manifest_entry` stores?  Any other
    value under a matching key is corrupt and reads as a miss."""
    shape = (("instance", str), ("verdict", str), ("detail", list))
    return isinstance(result, dict) and all(isinstance(result.get(k), t) for k, t in shape)


def run_manifest_entry(path: str, flags: RunFlags, cache_dir: Optional[str]) -> dict:
    stem = os.path.splitext(os.path.basename(path))[0]
    text = _read_text(path)
    material = _file_key_material(text, flags, "corpus-entry")
    if cache_dir is not None:
        cached = cache_fetch(cache_dir, material)
        if _is_corpus_entry(cached):
            return cached
    try:
        session = parse_session(text)
        agg = execute_session(session, flags, stem)
        detail = [
            {"instance": r.instance, "theorem": r.theorem, "verdict": r.verdict}
            for r in agg.entries
        ]
        verdict = worst_verdict(r.verdict for r in agg.entries)
    except SessionDiagnostics as e:
        detail = [
            {"instance": stem, "theorem": "parse", "verdict": d.render()}
            for d in e.diagnostics
        ]
        verdict = "input-error"
    except InputError as e:
        detail = [{"instance": stem, "theorem": "build", "verdict": str(e)}]
        verdict = "input-error"
    except ResourceLimit as e:
        detail = [{"instance": stem, "theorem": "build", "verdict": str(e)}]
        verdict = "resource-limit"
    result = {"detail": detail, "instance": stem, "verdict": verdict}
    if cache_dir is not None:
        cache_store(cache_dir, material, result)
    return result


def run_corpus_files(
    items: Sequence[Tuple[str, str]], flags: RunFlags, cache_dir: Optional[str]
) -> Tuple[dict, int]:
    """items: (session path, expected verdict).  Returns (report dict, exit code)."""
    entries = []
    npass = 0
    mismatch_verdicts = []
    for path, expected in items:
        got = run_manifest_entry(path, flags, cache_dir)
        ok = got["verdict"] == expected
        entry = {
            "detail": got["detail"],
            "expected": expected,
            "instance": got["instance"],
            "ok": ok,
            "verdict": got["verdict"],
        }
        entries.append(entry)
        if ok:
            npass += 1
        else:
            mismatch_verdicts.append(got["verdict"])
    report = {
        "entries": entries,
        "summary": {"pass": npass, "fail": len(entries) - npass},
    }
    # a verdict other than the expected one counts as a violation, unless it
    # is an error verdict
    worst = worst_verdict(v if v in ("input-error", "resource-limit") else "violated"
                          for v in mismatch_verdicts)
    return report, VERDICT_EXIT[worst]


def load_manifest(path: str) -> List[Tuple[str, str]]:
    """(session path, expected verdict) per row of a JSON manifest: a list of
    objects with string "path" and "expected"; anything else is an input error."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InputError(f"manifest '{path}' is not JSON: {e}") from e
    if not isinstance(raw, list):
        raise InputError(f"manifest '{path}' must be a JSON list of entries")
    base = os.path.dirname(os.path.abspath(path))
    items = []
    for i, row in enumerate(raw):
        if not (isinstance(row, dict) and isinstance(row.get("path"), str)
                and isinstance(row.get("expected"), str)):
            raise InputError(
                f"manifest '{path}' entry {i} needs string \"path\" and \"expected\""
            )
        items.append((os.path.join(base, row["path"]), row["expected"]))
    return items


def shipped_manifest_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "corpus", "manifest.json")


# ---------------------------------------------------------------------------
# command line


def _add_common(sub):
    sub.add_argument("--char", type=int, default=None,
                     help="characteristic for rings declared char=default")
    sub.add_argument("--window", type=str, default=None,
                     help="degree window override '(a,..)..(b,..)'")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")


def _flags_from(ns) -> RunFlags:
    window = _parse_window_arg(ns.window) if ns.window else None
    return RunFlags(char=ns.char, window=window)


def _emit(shaped, fmt: str) -> int:
    sys.stdout.flush()
    sys.stdout.buffer.write(emit_report(shaped, fmt))
    if fmt == "json":
        sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="mgcm",
        description="exact multigraded algebra sessions: parse, run, verify, corpus",
    )
    sp = ap.add_subparsers(dest="cmd", required=True)

    p_parse = sp.add_parser("parse", help="validate session files")
    p_parse.add_argument("files", nargs="+")

    p_run = sp.add_parser("run", help="run every directive in a session file")
    p_run.add_argument("file")
    _add_common(p_run)

    p_verify = sp.add_parser("verify", help="run one verification id from a session file")
    p_verify.add_argument("id", choices=VERIFY_IDS)
    p_verify.add_argument("file")
    p_verify.add_argument("target", nargs="?", default=None)
    _add_common(p_verify)

    p_corpus = sp.add_parser("corpus", help="run the shipped (or given) corpus manifest")
    p_corpus.add_argument("--manifest", type=str, default=None)
    p_corpus.add_argument("--cache-dir", type=str, default=None,
                          help=f"cache directory (default ${CACHE_ENV_VAR} or .mgcm-cache)")
    p_corpus.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    _add_common(p_corpus)

    ns = ap.parse_args(argv)

    try:
        return _dispatch(ns)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3


def _dispatch(ns) -> int:
    if ns.cmd == "parse":
        bad = False
        for path in ns.files:
            try:
                parse_session(_read_text(path))
                print(f"ok {path}")
            except SessionDiagnostics as e:
                bad = True
                for d in e.diagnostics:
                    print(d.render(path))
            except InputError as e:
                bad = True
                print(f"error: {e}", file=sys.stderr)
        return 2 if bad else 0

    flags = _flags_from(ns)

    if ns.cmd in ("run", "verify"):
        text = _read_text(ns.file)
        try:
            session = parse_session(text)
        except SessionDiagnostics as e:
            for d in e.diagnostics:
                print(d.render(ns.file), file=sys.stderr)
            return 2
        stem = os.path.splitext(os.path.basename(ns.file))[0]
        only = (ns.id, ns.target) if ns.cmd == "verify" else None
        agg = execute_session(session, flags, stem, only)
        _emit(aggregate_to_dict(agg), ns.fmt)
        return agg.exit_code()

    if ns.cmd == "corpus":
        manifest = ns.manifest or shipped_manifest_path()
        items = load_manifest(manifest)
        cache_dir = None if ns.no_cache else cache_directory(ns.cache_dir)
        report, code = run_corpus_files(items, flags, cache_dir)
        _emit(report, ns.fmt)
        return code

    return 2


if __name__ == "__main__":
    sys.exit(main())
