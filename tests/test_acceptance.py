"""Acceptance gate: nine end-to-end scenario suites over the shipped corpus.

Each test is one acceptance criterion, so `pytest -v` prints one pass/fail
line per criterion.  Expected values come either from closed-form oracles
defined in this file or from exhaustive exact checks inside the engine.
"""

import functools
import json
import math
import os
import random
import time

from mgcm.cli_io import (
    RunFlags,
    build_session,
    emit_report,
    execute_session,
    load_manifest,
    parse_session,
    run_corpus_files,
    shipped_manifest_path,
)
from mgcm.cohomology import sheaf_cohomology_dim
from mgcm.graded_poly import GradedRing, field_for_char, parse_polynomial
from mgcm.groebner_engine import cyclic_presentation, free_presentation
from mgcm.homological import (
    ext_dual_module,
    is_cohen_macaulay,
    is_zero_module,
    krull_dim,
    v_of,
)
from mgcm.theorem_harness import dual_route_report, fiber_identity_report


# ---------------------------------------------------------------------------
# shared corpus access


@functools.lru_cache(maxsize=None)
def _corpus():
    items = load_manifest(shipped_manifest_path())
    out = []
    for path, expected in items:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        out.append((stem, parse_session(text), expected))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _built(stem):
    for s, session, _ in _corpus():
        if s == stem:
            return build_session(session)
    raise KeyError(stem)


def _verify_all(theorem):
    """Run every `verify <theorem>` directive shipped in the corpus."""
    reports = []
    for stem, session, _ in _corpus():
        if any(t.verb == "verify" and t.theorem == theorem for t in session.directives):
            agg = execute_session(session, RunFlags(), stem=stem, only=(theorem, None))
            reports.extend(agg.entries)
    return reports


@functools.lru_cache(maxsize=None)
def _corpus_modules():
    """Every distinct module-like object declared across the corpus."""
    seen = {}
    for stem, session, _ in _corpus():
        for name, (kind, obj) in sorted(_built(stem).items()):
            if kind in ("module", "diagonal"):
                mod = obj
            elif kind in ("rees", "multirees"):
                mod = obj.module
            else:
                continue
            seen.setdefault(mod, f"{stem}:{name}")
    return tuple((label, mod) for mod, label in seen.items())


# ---------------------------------------------------------------------------
# criterion 1: blowup-module top cohomology degree is -1 in every coordinate


def test_criterion_1_rees_a_invariant_is_minus_one_on_corpus():
    t0 = time.monotonic()
    reports = _verify_all("lem41")
    elapsed = time.monotonic() - t0
    assert len(reports) >= 8
    ranks = set()
    for rep in reports:
        assert rep.verdict == "holds", rep.instance
        row = next(c for c in rep.checks if c.check == "a-invariant")
        assert row.verdict == "pass", rep.instance
        coords = row.value.strip("()").split("|")
        assert all(c == "-1" for c in coords), rep.instance
        ranks.add(len(coords))
    assert ranks >= {1, 2, 3}
    base_sizes = set()
    source_kinds = set()
    for stem, _session, _ in _corpus():
        for _name, (kind, obj) in _built(stem).items():
            if kind in ("rees", "multirees"):
                base_sizes.add(obj.source.ring.nvars)
                source_kinds.add("quotient" if obj.source.relations else "free")
    assert base_sizes >= {1, 2}
    assert source_kinds == {"free", "quotient"}
    assert elapsed < 120.0, f"corpus slice took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: the CM biconditional on product-space coordinate rings


def test_criterion_2_cm_biconditional_on_product_space_modules():
    reports = _verify_all("thm31")
    assert len(reports) >= 6
    non_cm = 0
    for rep in reports:
        assert rep.verdict == "holds", rep.instance
        assert rep.window is not None, rep.instance
        left_cm = next(c for c in rep.checks if c.check == "left-cm")
        if left_cm.value == "False":
            non_cm += 1
    assert non_cm >= 2
    stems = {rep.instance.split(":")[0] for rep in reports}
    assert "cox-p1p1-shift" in stems  # free module with a nonzero shift


# ---------------------------------------------------------------------------
# criterion 3: diagonal restriction inherits the CM property


def test_criterion_3_diagonal_inherits_cm_from_blowup_module():
    reports = _verify_all("thm42")
    assert len(reports) >= 5
    for rep in reports:
        assert rep.verdict == "holds", rep.instance
        assert all(h.passed for h in rep.hypotheses), rep.instance
    stems = {rep.instance.split(":")[0] for rep in reports}
    assert "r2-hypersurface" in stems


# ---------------------------------------------------------------------------
# criterion 4: colon identities, exhaustive over exponents up to (2, 2)


def test_criterion_4_colon_identities_exhaustive_to_bound():
    lem45 = _verify_all("lem45")
    thm46 = _verify_all("thm46")
    assert len(lem45) >= 3 and len(thm46) >= 3
    for rep in lem45:
        rows = [c for c in rep.checks if c.check == "pushforward-colon"]
        # 36 = number of coordinatewise-ordered exponent pairs in the (2,2) box
        assert len(rows) == 36, rep.instance
        assert all(c.verdict == "pass" for c in rows), rep.instance
        assert rep.verdict == "holds", rep.instance
    for rep in thm46:
        rows = [c for c in rep.checks if c.check == "subset-colon"]
        assert len(rows) == 4, rep.instance
        assert all(c.verdict == "pass" for c in rows), rep.instance
        assert rep.verdict == "holds", rep.instance


# ---------------------------------------------------------------------------
# criterion 5: twist cohomology against a closed-form Kunneth oracle


def _line_h(i, n):
    if i == 0:
        return max(n + 1, 0)
    if i == 1:
        return max(-n - 1, 0)
    return 0


def _point_h(i, n):
    return 1 if i == 0 else 0


def _plane_h(i, n):
    if i == 0:
        return math.comb(n + 2, 2) if n >= 0 else 0
    if i == 2:
        return math.comb(-n - 1, 2) if n <= -3 else 0
    return 0


def _product_h(fx, fy, i, n, m):
    return sum(fx(p, n) * fy(i - p, m) for p in range(0, i + 1))


def _product_ring(a, b):
    names = [f"x{j}" for j in range(a + 1)] + [f"y{j}" for j in range(b + 1)]
    degs = [(1, 0)] * (a + 1) + [(0, 1)] * (b + 1)
    return GradedRing(
        field_for_char(32003), tuple(names), tuple(degs), (1,) * len(names)
    )


def test_criterion_5_twist_cohomology_matches_kunneth_oracle():
    factor = {0: _point_h, 1: _line_h}
    checked = 0
    for a in (0, 1):
        for b in (0, 1):
            M = free_presentation(_product_ring(a, b), (((0, 0), 0),))
            for n in range(-3, 4):
                for m in range(-3, 4):
                    for i in range(0, a + b + 2):
                        got = sheaf_cohomology_dim(M, i, (n, m))
                        want = _product_h(factor[a], factor[b], i, n, m)
                        assert got == want, (a, b, i, n, m, got, want)
                        checked += 1
    plane = GradedRing(
        field_for_char(32003), ("x0", "x1", "x2"), ((1,), (1,), (1,)), (1, 1, 1)
    )
    M = free_presentation(plane, (((0,), 0),))
    for n in range(-3, 4):
        for i in range(0, 4):
            got = sheaf_cohomology_dim(M, i, (n,))
            assert got == _plane_h(i, n), (i, n, got)
            checked += 1
    # twisted line bundles O(-s) on P^1 x P^1, whose early colimit levels
    # can agree on a wrong value: O(-7, 0) needs level 9 at n = -3
    ring = _product_ring(1, 1)
    for s in ((0, 0), (3, 0), (5, 0), (7, 0), (4, 4)):
        M = free_presentation(ring, ((s, sum(s)),))
        for n in range(-3, 4):
            for m in range(-3, 4):
                for i in range(0, 3):
                    got = sheaf_cohomology_dim(M, i, (n, m))
                    want = _product_h(_line_h, _line_h, i, n - s[0], m - s[1])
                    assert got == want, (s, i, n, m, got, want)
                    checked += 1
    assert checked == 616 + 735


# ---------------------------------------------------------------------------
# criterion 6: duality route vs Koszul-colimit route on every corpus module


CRITERION6_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "criterion6.json")


def _criterion6_table():
    """The dual-route reports over every corpus module and their check rows,
    one JSON line per `CheckRecord`, as the bytes of tests/golden/criterion6.json."""
    reports = []
    lines = []
    for label, mod in _corpus_modules():
        ring = mod.ring
        if ring.is_field_base():
            v = v_of(mod)
            window = (tuple(x - 1 for x in v), tuple(x + 1 for x in v))
            weights = None
        else:
            r = ring.rank
            # single degree on the largest ambients keeps the box affordable
            hi = (0,) * r if ring.nvars >= 6 else (1,) * r
            window = ((0,) * r, hi)
            weights = range(0, 3)
        rep = dual_route_report(mod, window=window, weights=weights, instance=label)
        reports.append((label, rep))
        for c in rep.checks:
            row = [label, c.check, c.i, c.degree, c.value, c.expected, c.verdict, c.mode]
            lines.append(json.dumps(row))
    return reports, ("[\n" + ",\n".join(lines) + "\n]\n").encode("utf-8")


def test_criterion_6_two_local_cohomology_routes_agree_on_corpus():
    # every row is pinned in tests/golden/criterion6.json; a change that
    # alters a value on purpose rewrites the file and says why
    reports, table = _criterion6_table()
    assert len(reports) >= 12
    for label, rep in reports:
        assert rep.checks, label
        assert rep.verdict == "holds", (label, rep.failures)
    with open(CRITERION6_GOLDEN, "rb") as fh:
        assert table == fh.read()


# ---------------------------------------------------------------------------
# criterion 7: local cohomology layers below the generator degrees equal
# twist cohomology in shifted index, on every field-base corpus module


def test_criterion_7_fiber_identity_below_generator_degrees():
    count = 0
    for label, mod in _corpus_modules():
        if not mod.ring.is_field_base():
            continue
        v = v_of(mod)
        window = (tuple(x - 2 for x in v), v)
        rep = fiber_identity_report(mod, window=window, instance=label)
        assert rep.checks, label
        assert rep.verdict == "holds", (label, rep.failures)
        count += 1
    assert count >= 6


# ---------------------------------------------------------------------------
# criterion 8: structural invariants (depth+pd, blowup dimension and
# generator floor, vanishing above the dimension)


def test_criterion_8_structural_invariants_hold():
    rng = random.Random(20260825)
    ring = GradedRing(
        field_for_char(32003), ("x", "y", "z"), ((1,), (1,), (1,)), (1, 1, 1)
    )
    for _ in range(20):
        gens = set()
        for _g in range(rng.randint(1, 4)):
            e = [rng.randint(0, 3) for _ in range(3)]
            if sum(e) == 0:
                e[rng.randrange(3)] = 1
            parts = [
                v if k == 1 else f"{v}^{k}" for v, k in zip("xyz", e) if k > 0
            ]
            gens.add("*".join(parts))
        polys = tuple(parse_polynomial(ring, g) for g in sorted(gens))
        M = cyclic_presentation(ring, polys)
        inv = is_cohen_macaulay(M)
        # nonvanishing pattern of local cohomology at the variable ideal,
        # computed through the dual modules rather than the resolution length
        nonzero = [
            j
            for j in range(0, ring.nvars + 1)
            if not is_zero_module(ext_dual_module(M, ring.nvars - j))
        ]
        assert min(nonzero) + inv.pd == ring.nvars, sorted(gens)
        assert max(nonzero) == inv.dim, sorted(gens)
    for stem, _session, _ in _corpus():
        for name, (kind, obj) in sorted(_built(stem).items()):
            if kind not in ("rees", "multirees"):
                continue
            r = len(obj.ideals)
            T = obj.module
            assert krull_dim(T) == krull_dim(obj.source) + r, f"{stem}:{name}"
            assert v_of(T) == (0,) * r, f"{stem}:{name}"
            d = krull_dim(T)
            for j in range(d + 1, T.ring.nvars + 1):
                assert is_zero_module(
                    ext_dual_module(T, T.ring.nvars - j)
                ), (f"{stem}:{name}", j)


# ---------------------------------------------------------------------------
# criterion 9: cold and warm corpus runs produce byte-identical output


def test_criterion_9_cold_and_warm_corpus_runs_are_byte_identical(tmp_path):
    items = load_manifest(shipped_manifest_path())
    flags = RunFlags()
    cache = str(tmp_path / "cache")
    rep1, code1 = run_corpus_files(items, flags, cache)
    rep2, code2 = run_corpus_files(items, flags, cache)
    assert code1 == 0 and code2 == 0
    assert rep1["summary"] == {"pass": len(items), "fail": 0}
    assert emit_report(rep1, "json") == emit_report(rep2, "json")
