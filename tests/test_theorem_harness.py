import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mgcm.homological as hom
import mgcm.theorem_harness as th
from mgcm import cli_io
from mgcm.graded_poly import (
    GradedRing,
    InputError,
    ResourceLimit,
    field_for_char,
    parse_polynomial,
)
from mgcm.cohomology import degree_box
from mgcm.groebner_engine import (
    colon_in_quotient,
    cyclic_presentation,
    free_presentation,
    ideal_power_product,
    submodules_equal,
)
from mgcm.rees_constructions import rees_module_presentation
from mgcm.theorem_harness import (
    AggregateReport,
    CheckRecord,
    VerificationReport,
    dual_route_report,
    fiber_identity_report,
    run_corpus,
    verify_cm_biconditional,
    verify_colon_identities,
    verify_rees_a_invariant,
    verify_rees_transfer,
    verify_regraded_vanishing,
    verify_spread_vanishing,
)
from test_homological import _binomial_quotient

F = field_for_char(32003)
SESSIONS = Path(__file__).parent / "sessions"


def p(ring, text):
    return parse_polynomial(ring, text)


def line_ring():
    return GradedRing(F, ("x0", "x1"), ((1,), (1,)), (1, 1))


def local_plane(rank=1):
    degs = ((0,) * rank, (0,) * rank)
    return GradedRing(F, ("a", "b"), degs, (1, 1))


# ---------------------------------------------------------------------------
# the Cohen-Macaulay biconditional


def test_biconditional_free_line_holds():
    S = line_ring()
    M = free_presentation(S, (((0,), 0),))
    rep = verify_cm_biconditional(M, instance="line-free")
    assert rep.verdict == "holds"
    assert rep.left is True and rep.right is True
    assert rep.window == ((-3,), (3,))
    assert all(h.passed for h in rep.hypotheses)
    assert not rep.failures


def test_biconditional_noncm_both_sides_false():
    # depth 0 from the torsion class of x0, so the left side fails; the
    # same class breaks section matching at degree (1).
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0^2"), p(S, "x0*x1")))
    rep = verify_cm_biconditional(M, instance="line-noncm")
    assert rep.verdict == "holds"
    assert rep.left is False and rep.right is False
    bad = [c for c in rep.failures if c.check == "sections-match"]
    assert bad and bad[0].degree == (1,)


def test_biconditional_cm_with_top_degree_at_v():
    # The coordinate cross is Cohen-Macaulay but its top cohomology reaches
    # degree 0 = v: sections over the two points are 2-dimensional while the
    # degree-0 piece is 1-dimensional, so both sides fail together.
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0*x1"),))
    rep = verify_cm_biconditional(M, instance="cross")
    assert rep.verdict == "holds"
    assert rep.left is False and rep.right is False


def test_biconditional_shifted_free_product():
    S = GradedRing(
        F,
        ("x0", "x1", "y0", "y1"),
        ((1, 0), (1, 0), (0, 1), (0, 1)),
        (1, 1, 1, 1),
    )
    M = free_presentation(S, (((1, 1), 0),))
    rep = verify_cm_biconditional(M, window=((-2, -2), (2, 2)), instance="shift")
    assert rep.verdict == "holds"
    assert rep.left is True and rep.right is True


def _shipped_report(stem, theorem):
    """The one report of `verify <theorem>` in the shipped session <stem>."""
    path = cli_io.shipped_manifest_path().replace("manifest.json", f"{stem}.mgcm")
    with open(path, encoding="utf-8") as fh:
        session = cli_io.parse_session(fh.read())
    (rep,) = cli_io.execute_session(session, stem=stem, only=(theorem, None)).entries
    return rep


def test_biconditional_violated_by_nonzero_sheaf_cohomology(monkeypatch):
    # the shipped Cohen-Macaulay line: with every sheaf dimension off by one
    # the right side fails while the left side still holds
    real = th.sheaf_cohomology_dim
    monkeypatch.setattr(th, "sheaf_cohomology_dim", lambda *a: real(*a) + 1)
    rep = _shipped_report("cox-p1-free", "thm31")
    assert rep.verdict == "violated"
    assert rep.left is True and rep.right is False
    assert {c.check for c in rep.failures} == {"sheaf-vanishing"}


@pytest.mark.parametrize("window", [((-1, -1), (1, 1)), ((-1,), (1, 1)), ((), ())],
                         ids=["rank-2", "mixed", "rank-0"])
def test_window_of_the_wrong_rank_is_input_error(window):
    # zip over a window and a degree of different ranks would truncate silently
    S = line_ring()
    M = free_presentation(S, (((0,), 0),))
    for verify in (verify_cm_biconditional, verify_regraded_vanishing, dual_route_report,
                   fiber_identity_report):
        with pytest.raises(InputError, match="rank"):
            verify(M, window)


def test_biconditional_zero_module_rejected():
    S = line_ring()
    M = cyclic_presentation(S, (S.one(),))
    with pytest.raises(InputError):
        verify_cm_biconditional(M)


# ---------------------------------------------------------------------------
# regraded vanishing


def test_regraded_vanishing_free_line():
    S = line_ring()
    M = free_presentation(S, (((0,), 0),))
    rep = verify_regraded_vanishing(M, instance="line-free")
    assert rep.verdict == "holds"
    assert rep.checks
    assert all(c.verdict == "pass" for c in rep.checks)


def test_regraded_vanishing_noncm_quotient():
    # the statement is unconditional in the module
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0^2"), p(S, "x0*x1")))
    rep = verify_regraded_vanishing(M, window=((-2,), (1,)), instance="noncm")
    assert rep.verdict == "holds"
    assert rep.checks


def test_regraded_vanishing_vacuous_window():
    S = line_ring()
    M = free_presentation(S, (((0,), 0),))
    rep = verify_regraded_vanishing(M, window=((0,), (2,)))
    assert rep.verdict == "holds"
    assert rep.checks == ()


def test_regraded_vanishing_negative_exponent_rejected():
    S = line_ring()
    M = free_presentation(S, (((0,), 0),))
    with pytest.raises(InputError):
        verify_regraded_vanishing(M, k_range=(-1,))


def test_regraded_vanishing_size_gate():
    S = GradedRing(
        F,
        ("x0", "x1", "y0", "y1", "z0", "z1"),
        ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
        (1,) * 6,
    )
    M = free_presentation(S, (((0, 0, 0), 0),))
    with pytest.raises(ResourceLimit):
        verify_regraded_vanishing(M)


def test_regraded_vanishing_zero_module_refused_before_the_blowup(monkeypatch):
    # v is undefined for the zero module; its blow-up, an elimination, is never built
    monkeypatch.setattr(th, "irrelevant_rees", lambda M: pytest.fail("blow-up built"))
    S = line_ring()
    M = cyclic_presentation(S, (S.one(),))
    with pytest.raises(InputError, match="the zero module has no generator degrees"):
        verify_regraded_vanishing(M)


def test_regraded_vanishing_violated_by_a_nonvanishing_layer(monkeypatch):
    monkeypatch.setattr(th, "local_cohomology_layer_vanishes", lambda *a: False)
    rep = _shipped_report("cox-p1-free", "lem-vanish")
    assert rep.verdict == "violated" and rep.right is False
    assert rep.checks and rep.failures == rep.checks


# ---------------------------------------------------------------------------
# blow-up top degrees


def test_rees_a_invariant_principal():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    rep = verify_rees_a_invariant(N, ((p(A, "a"),),))
    assert rep.verdict == "holds"
    assert rep.checks[0].value == "(-1)"


def test_rees_a_invariant_maximal_pair():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    rep = verify_rees_a_invariant(N, ((p(A, "a"), p(A, "b")),))
    assert rep.verdict == "holds"


def test_rees_a_invariant_two_ideals():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    rep = verify_rees_a_invariant(N, ((p(A, "a"),), (p(A, "a"), p(A, "b"))))
    assert rep.verdict == "holds"
    assert rep.checks[0].value == "(-1|-1)"


ZERO_SOURCE = """\
ring A = poly(char=default; a,b : deg=(0), weight=1);
ideal I = (a);
ideal J = (a, b);
module N = quotient(A; 1);
multirees M = rees(N; I, J);
multirees L = rees(N; J);
verify lem41 M;
verify thm42 M;
verify lem45 M;
verify thm46 M;
verify lem44 L;
"""


def test_zero_source_module_is_refused_up_front():
    # a zero N has zero Rees modules; lem41, lem45 and thm46 read its top
    # degree and lem44 its spread line, and say so, while thm42 only asks
    # whether they are CM
    agg = cli_io.execute_session(cli_io.parse_session(ZERO_SOURCE))
    lem41, thm42, lem45, thm46, lem44 = agg.entries
    for rep in (lem41, lem45, thm46, lem44):
        assert rep.verdict == "input-error", rep.instance
        assert [c.value for c in rep.checks if c.check == "input-error"] == [
            "N is the zero module; its Rees modules are zero and have no top degree"], rep.instance
    assert (thm42.theorem, thm42.verdict) == ("thm42", "holds")
    A = local_plane()
    N = cyclic_presentation(A, (p(A, "1"),))
    ideals = ((p(A, "a"),),)
    for check in (lambda: verify_rees_a_invariant(N, ideals),
                  lambda: verify_colon_identities(N, ideals, (1,), "pushforward-colon"),
                  lambda: verify_colon_identities(N, ideals, (1,), "subset-colon"),
                  lambda: verify_spread_vanishing(N, ideals[0])):
        with pytest.raises(InputError, match="N is the zero module"):
            check()


def test_rees_a_invariant_quotient_module():
    A = local_plane()
    N = cyclic_presentation(A, (p(A, "b"),))
    rep = verify_rees_a_invariant(N, ((p(A, "a"),),))
    assert rep.verdict == "holds"


def test_rees_a_invariant_unit_ideal_gate():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    rep = verify_rees_a_invariant(N, ((p(A, "a"), A.one()),))
    assert rep.verdict == "hypothesis-not-met"
    assert rep.hypotheses[0].passed is False
    # the conclusion is not evaluated
    assert rep.right is None and rep.checks == ()
    # an ideal of another ring is an input error, not a failed hypothesis
    B = line_ring()
    with pytest.raises(InputError, match="ideal and module over different rings"):
        verify_rees_a_invariant(N, ((B.one(),),))


# ---------------------------------------------------------------------------
# transfer to the diagonal


def test_rees_transfer_pair_of_maximal_ideals():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    mm = (p(A, "a"), p(A, "b"))
    rep = verify_rees_transfer(N, (mm, mm), instance="mm")
    assert rep.verdict == "holds"
    assert any(h.name == "multi-rees-cm" and h.passed for h in rep.hypotheses)


def test_rees_transfer_single_ideal_is_trivial():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    rep = verify_rees_transfer(N, ((p(A, "a"), p(A, "b")),))
    assert rep.verdict == "holds"


def test_rees_transfer_noncm_module_gate():
    A = local_plane()
    N = cyclic_presentation(A, (p(A, "a^2"), p(A, "a*b")))
    rep = verify_rees_transfer(N, ((p(A, "b"),),))
    assert rep.verdict == "hypothesis-not-met"
    assert any(h.name == "multi-rees-cm" and not h.passed for h in rep.hypotheses)


def test_rees_a_invariant_violated_by_a_shifted_coordinate(monkeypatch):
    real = th.a_invariant

    def shifted(module):
        a = real(module)
        return (a[0] + 1,) + a[1:]

    monkeypatch.setattr(th, "a_invariant", shifted)
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    rep = verify_rees_a_invariant(N, ((p(A, "a"),), (p(A, "a"), p(A, "b"))))
    assert rep.verdict == "violated"
    assert rep.checks[0].value == "(0|-1)"


def test_rees_transfer_violated_by_a_non_cm_diagonal(monkeypatch):
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    mm = (p(A, "a"), p(A, "b"))
    diagonal = rees_module_presentation(N, (ideal_power_product((mm, mm), (1, 1)),))
    real = th.is_cohen_macaulay

    def diagonal_not_cm(module):
        inv = real(module)
        return replace(inv, cm=False) if module == diagonal else inv

    monkeypatch.setattr(th, "is_cohen_macaulay", diagonal_not_cm)
    rep = verify_rees_transfer(N, (mm, mm))
    assert rep.verdict == "violated"
    assert any(h.name == "multi-rees-cm" and h.passed for h in rep.hypotheses)


# ---------------------------------------------------------------------------
# colon identities


def test_colon_identities_two_principal():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    ideals = ((p(A, "a"),), (p(A, "b"),))
    push = verify_colon_identities(N, ideals, (2, 2), "pushforward-colon")
    sub = verify_colon_identities(N, ideals, (2, 2), "subset-colon")
    assert push.verdict == sub.verdict == "holds"
    assert [c.check for c in push.checks] == ["pushforward-colon"] * 36
    assert [c.check for c in sub.checks] == ["subset-colon"] * 4


def test_colon_identities_principal_and_maximal():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    for which in ("pushforward-colon", "subset-colon"):
        rep = verify_colon_identities(
            N, ((p(A, "a"),), (p(A, "a"), p(A, "b"))), (2, 2), which
        )
        assert rep.verdict == "holds"


def test_colon_identities_mixed_degrees():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    for which in ("pushforward-colon", "subset-colon"):
        rep = verify_colon_identities(
            N, ((p(A, "a^2"), p(A, "b")), (p(A, "a"),)), (2, 2), which
        )
        assert rep.verdict == "holds"


def test_colon_identities_single_family_selection():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    rep = verify_colon_identities(
        N, ((p(A, "a"),), (p(A, "b"),)), bound=(1, 1), which="pushforward-colon"
    )
    assert rep.theorem == "lem45"
    assert all(c.check == "pushforward-colon" for c in rep.checks)
    rep = verify_colon_identities(
        N, ((p(A, "a"),), (p(A, "b"),)), bound=(2, 2), which="subset-colon"
    )
    assert rep.theorem == "thm46"
    assert len(rep.checks) == 4


@pytest.mark.parametrize("which", ["pushforward-colon", "subset-colon"])
def test_colon_identities_violated_by_a_colon_that_returns_its_submodule(monkeypatch, which):
    monkeypatch.setattr(th, "colon_in_quotient", lambda module, sub_gens, ideal: tuple(sub_gens))
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    rep = verify_colon_identities(N, ((p(A, "a"),), (p(A, "b"),)), bound=(1, 1), which=which)
    assert rep.verdict == "violated"
    # (U : 1) = U still holds; every proper colon fails
    for c in rep.checks:
        unit = which == "pushforward-colon" and c.degree[2:] == (0, 0)
        assert c.verdict == ("pass" if unit else "fail"), c


def test_pushforward_colon_takes_one_colon_by_one_ideal_per_row(monkeypatch):
    # each right-hand side (U : P^m) with m != 0 is one colon by a single
    # ideal from an earlier one, and (U : P^0) = U needs no colon: 27 calls
    # at bound (2, 2), against 36 for one colon per row
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    blocks = ((p(A, "a"),), (p(A, "b"),))
    ideals = []
    real = th.colon_in_quotient

    def counting(module, sub_gens, ideal):
        ideals.append(tuple(ideal))
        return real(module, sub_gens, ideal)

    monkeypatch.setattr(th, "colon_in_quotient", counting)
    rep = verify_colon_identities(N, blocks, (2, 2), "pushforward-colon")
    assert len(rep.checks) == 36 and all(c.verdict == "pass" for c in rep.checks)
    assert len(ideals) == 27
    assert set(ideals) == set(blocks)


@st.composite
def _colon_cases(draw):
    """(N, ideals, bound) over k[x_0..x_{v-1}] with every multidegree 0, as
    a Rees base must be: one or two proper ideals, N free of rank 1 or
    cyclic, and a bound <= (2, 2).  N's relations and the ideals are drawn
    by `_binomial_quotient` (monomials and binomials, exponents at most 2)."""
    r = draw(st.integers(1, 2))
    nvars = draw(st.integers(2, 3))
    degrees = [(0,) * r] * nvars
    weights = [draw(st.integers(1, 2)) for _ in range(nvars)]

    def ideal(max_gens):
        Q = _binomial_quotient(draw, degrees, weights, st.integers(0, 2), max_gens)
        return tuple(col[0] for col in Q.relations if col[0].degree_pair()[1] > 0)

    blocks = tuple(ideal(3) for _ in range(r))
    assume(all(blocks))
    N = cyclic_presentation(blocks[0][0].ring, ideal(2) if draw(st.booleans()) else ())
    bound = tuple(draw(st.integers(0, 2)) for _ in range(r))
    return N, blocks, bound


_RATLIFF_RUSH = (
    free_presentation(local_plane(), (((0,), 0),)),
    (tuple(p(local_plane(), t) for t in ("a^4", "a^3*b", "a*b^3", "b^4")),),
    (2,),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_colon_cases())
@example(_RATLIFF_RUSH)
def test_chained_colons_equal_one_colon_by_the_power_product(case):
    # the right-hand side each pushforward-colon row compares is
    # (P^n N : P^m), taken here in one colon by the whole power product
    N, blocks, bound = case
    real = th.submodules_equal
    seen = []

    def recording(free, lhs, rhs):
        seen.append(rhs)
        return real(free, lhs, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(th, "submodules_equal", recording)
        rep = verify_colon_identities(N, blocks, bound, "pushforward-colon")
    zero = (0,) * len(bound)
    rows = [(n, m) for n in degree_box(zero, bound) for m in degree_box(zero, n)]
    assert [c.degree for c in rep.checks] == [n + m for n, m in rows]
    assert len(seen) == len(rows)
    for (n, m), rhs in zip(rows, seen):
        power_n = th._power_cols(N, blocks, n)
        oracle = colon_in_quotient(N, power_n, ideal_power_product(blocks, m))
        assert submodules_equal(N.free(), rhs, oracle), (n, m)


def test_colon_identities_bad_family_rejected():
    A = local_plane(rank=2)
    N = free_presentation(A, (((0, 0), 0),))
    for which in ("nope", "both"):
        with pytest.raises(InputError, match="unknown colon family"):
            verify_colon_identities(N, ((p(A, "a"),), (p(A, "b"),)), (1, 1), which)


def test_colon_identities_bad_bound_rejected_before_the_grade_gate():
    # a bound of the wrong length is an input error whether or not the
    # ideals pass the grade hypotheses; the unit ideal fails them
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    for ideal in ((p(A, "a"),), (A.one(),)):
        for bound in ((1, 2, 3), (-1,)):
            with pytest.raises(InputError, match="bound must be"):
                verify_colon_identities(N, (ideal,), bound, "pushforward-colon")
    rep = verify_colon_identities(N, ((A.one(),),), (1,), "subset-colon")
    assert rep.verdict == "hypothesis-not-met"


def test_subset_colon_needs_a_cohen_macaulay_product_rees_algebra():
    # (a^3, b^3)(a, b) = (a^4, a^3 b, a b^3, b^4) has reduction number 2 (the
    # square of a^3 b is not in (a^4, b^4) I), so its Rees algebra is not CM;
    # the subset-colon identity fails here, outside the theorem's hypothesis
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    ideals = ((p(A, "a^3"), p(A, "b^3")), (p(A, "a"), p(A, "b")))
    rep = verify_colon_identities(N, ideals, (1, 1), "subset-colon")
    row = [h for h in rep.hypotheses if h.name == "diagonal-charts-cm"]
    assert [(h.passed, h.witness.split(";")[0]) for h in row] == [(False, "algebra CM=False")]
    assert rep.verdict == "hypothesis-not-met"


def _session_report(text):
    (rep,) = cli_io.execute_session(cli_io.parse_session(text), stem="t").entries
    return rep, {h.name: h for h in rep.hypotheses}


def _failed_rows(rep, check):
    return [c.degree for c in rep.checks if c.check == check and c.verdict != "pass"]


def test_pushforward_colon_needs_certified_sections():
    # the Rees algebra of I = (a^4, a^3 b, a b^3, b^4) is not CM, so sections
    # are not certified to be power pieces; a failing colon check here is
    # outside the lemma's hypothesis, not a counterexample.  I^2 : I holds
    # a^2 b^2, which I does not, so exactly the row n = 2, m = 1 fails
    rep, hyps = _session_report((SESSIONS / "lem45-ratliff-rush.mgcm").read_text())
    row = hyps["sections-are-power-pieces"]
    assert not row.passed and "not certified" in row.witness
    assert rep.verdict == "hypothesis-not-met"
    assert len(rep.checks) == 6
    assert _failed_rows(rep, "pushforward-colon") == [(2, 1)]
    # beside J = (a), the rows that fail are the three that take one I off I^2
    rep, _ = _session_report(
        "ring A = poly(char=default; a,b : deg=(0,0), weight=1);"
        " ideal I = (a^4, a^3*b, a*b^3, b^4); ideal J = (a); module N = free(A);"
        " multirees R = rees(N; I, J); verify lem45 R bound=(2,1);")
    assert rep.verdict == "hypothesis-not-met"
    assert len(rep.checks) == 18
    assert _failed_rows(rep, "pushforward-colon") == [(2, 0, 1, 0), (2, 1, 1, 0), (2, 1, 1, 1)]


# ---------------------------------------------------------------------------
# spread vanishing


def test_spread_vanishing_plane_blowup():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    rep = verify_spread_vanishing(N, (p(A, "a"), p(A, "b")), instance="plane")
    assert rep.verdict == "holds"
    assert "spread=2" in rep.modes
    assert "fiber-line-skipped-nonfield-base" in rep.modes
    assert all(c.verdict == "pass" for c in rep.checks)


def test_spread_vanishing_principal():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    rep = verify_spread_vanishing(N, (p(A, "a"),))
    assert rep.verdict == "holds"
    assert "spread=1" in rep.modes


def test_spread_vanishing_noncm_gate():
    A = local_plane()
    N = cyclic_presentation(A, (p(A, "a^2"), p(A, "a*b")))
    rep = verify_spread_vanishing(N, (p(A, "b"),))
    assert rep.verdict == "hypothesis-not-met"
    assert any(h.name == "blowup-cm" and not h.passed for h in rep.hypotheses)


def test_spread_vanishing_needs_a_free_module():
    # A/(c) is not locally free off V(I); freeness is checked as pd = 0
    rep, hyps = _session_report(
        "ring A = poly(char=default; a,b,c : deg=(0), weight=1); ideal I = (a, b);"
        " module N = quotient(A; c); rees R = rees(N; I); verify lem44 R;")
    assert hyps["blowup-cm"].passed
    assert not hyps["locally-free"].passed
    assert hyps["locally-free"].witness == "not free (pd=1); only freeness is checked"
    assert rep.verdict == "hypothesis-not-met"


def test_spread_vanishing_violated_by_nonzero_twist_cohomology(monkeypatch):
    monkeypatch.setattr(th, "sheaf_cohomology_dim", lambda *a: 1)
    rep = _shipped_report("r1-maximal", "lem44")
    assert rep.verdict == "violated"
    assert all(h.passed for h in rep.hypotheses)
    assert {c.check for c in rep.failures} == {"twist-vanishing"}


# ---------------------------------------------------------------------------
# cross-route agreement


def test_dual_route_agreement_on_quotient():
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0^2"), p(S, "x0*x1")))
    rep = dual_route_report(M, window=((-2,), (2,)))
    assert rep.verdict == "holds"
    assert rep.checks
    assert set(rep.modes) == {"duality", "koszul-colimit"}


def test_dual_route_agreement_on_graded_local_base():
    A = local_plane()
    N = cyclic_presentation(A, (p(A, "a"),))
    rep = dual_route_report(N, window=((0,), (0,)), weights=range(0, 3))
    assert rep.verdict == "holds"


@pytest.fixture
def fresh_ext_cache():
    hom.ext_dual_module.cache_clear()
    yield
    hom.ext_dual_module.cache_clear()


@pytest.mark.parametrize("shift", [1, -1])
def test_dual_route_violated_by_a_wrong_dual_twist(monkeypatch, fresh_ext_cache, shift):
    # H^1 of A/(a) at (a, b) lives in weights -1, -2, ...; a dual twist off
    # by one weight moves its edge into or out of the window
    real = hom._dual_twist
    monkeypatch.setattr(hom, "_dual_twist", lambda ring: (real(ring)[0], real(ring)[1] + shift))
    A = local_plane()
    N = cyclic_presentation(A, (p(A, "a"),))
    rep = dual_route_report(N, window=((0,), (0,)), weights=range(-3, 1))
    assert rep.verdict == "violated"
    assert len(rep.failures) == 1


def test_fiber_identity_on_field_base():
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0^2"), p(S, "x0*x1")))
    rep = fiber_identity_report(M, window=((-3,), (2,)))
    assert rep.verdict == "holds"
    assert rep.checks


def test_fiber_identity_violated_by_a_shifted_sheaf_value(monkeypatch):
    # sheaf cohomology is read only for i >= r = 1; below it the value is 0
    real = th.sheaf_cohomology_dim
    monkeypatch.setattr(th, "sheaf_cohomology_dim", lambda *a: real(*a) + 1)
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0^2"), p(S, "x0*x1")))
    rep = fiber_identity_report(M, window=((-3,), (2,)))
    assert rep.verdict == "violated"
    assert rep.failures == tuple(c for c in rep.checks if c.i >= 1)


def test_fiber_identity_needs_field_base():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    with pytest.raises(InputError):
        fiber_identity_report(N)


# ---------------------------------------------------------------------------
# corpus driver


def test_every_shipped_report_follows_the_verdict_rule():
    # right is None only when a hypothesis failed before the conclusion was
    # evaluated; otherwise the conclusion holds iff no check row fails
    reports = []
    for path, _expected in cli_io.load_manifest(cli_io.shipped_manifest_path()):
        with open(path, encoding="utf-8") as fh:
            session = cli_io.parse_session(fh.read())
        reports += cli_io.execute_session(session, stem=Path(path).stem).entries
    assert len(reports) > 15
    for rep in reports:
        if rep.right is None:
            assert rep.verdict == "hypothesis-not-met", rep.instance
        else:
            assert rep.right == (not rep.failures), rep.instance


def _fake(verdict):
    return VerificationReport(
        "x", "inst", (), None, verdict == "holds", verdict, None, 0, (), ()
    )


def test_run_corpus_isolates_errors():
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))

    def bad():
        raise InputError("bad input")

    def heavy():
        raise ResourceLimit("too big")

    agg = run_corpus(
        [
            ("ok", lambda: verify_rees_a_invariant(N, ((p(A, "a"),),))),
            ("bad", bad),
            ("heavy", heavy),
        ]
    )
    assert [r.verdict for r in agg.entries] == ["holds", "input-error", "resource-limit"]
    assert agg.passed == 1 and agg.failed == 2
    assert agg.input_errors == 1 and agg.resource_limits == 1


def test_run_corpus_exit_codes():
    assert run_corpus([]).exit_code() == 0
    assert run_corpus([("v", lambda: _fake("violated"))]).exit_code() == 1

    def bad():
        raise InputError("x")

    def heavy():
        raise ResourceLimit("x")

    assert run_corpus([("b", bad)]).exit_code() == 2
    assert run_corpus([("h", heavy)]).exit_code() == 3
    # a genuine violation outranks error entries
    agg = run_corpus([("v", lambda: _fake("violated")), ("b", bad)])
    assert agg.exit_code() == 1
    # hypothesis-not-met counts as a pass
    agg = run_corpus([("h", lambda: _fake("hypothesis-not-met"))])
    assert agg.exit_code() == 0 and agg.passed == 1


def test_empty_ranges_are_input_errors_in_run_corpus():
    # both checkers refuse an empty range at entry: the spread check would
    # index it (an IndexError, which run_corpus does not isolate) and the
    # regraded check would report holds with no rows
    A = local_plane()
    N = free_presentation(A, (((0,), 0),))
    S = line_ring()
    M = cyclic_presentation(S, (p(S, "x0^2"),))
    agg = run_corpus([
        ("spread", lambda: verify_spread_vanishing(N, (p(A, "a"), p(A, "b")), range(0))),
        ("regraded", lambda: verify_regraded_vanishing(M, k_range=())),
    ])
    assert [r.verdict for r in agg.entries] == ["input-error", "input-error"]
    assert agg.exit_code() == 2


VERDICTS_WORST_FIRST = ("violated", "input-error", "resource-limit", "hypothesis-not-met", "holds")
EXIT_CODE = {"violated": 1, "input-error": 2, "resource-limit": 3,
             "hypothesis-not-met": 0, "holds": 0}


def _entry(verdict):
    def run():
        if verdict == "input-error":
            raise InputError("x")
        if verdict == "resource-limit":
            raise ResourceLimit("x")
        return _fake(verdict)
    return run


@pytest.mark.parametrize("first,second", itertools.product(VERDICTS_WORST_FIRST, repeat=2))
def test_run_corpus_exit_code_is_the_worse_verdicts(first, second):
    agg = run_corpus([("a", _entry(first)), ("b", _entry(second))])
    assert [r.verdict for r in agg.entries] == [first, second]
    worse = min(first, second, key=VERDICTS_WORST_FIRST.index)
    assert th.worst_verdict([first, second]) == worse
    assert agg.exit_code() == EXIT_CODE[worse]


def test_report_failures_property():
    rows = (
        CheckRecord("c", 0, (0,), "1", "0", "fail"),
        CheckRecord("c", 1, (0,), "0", "0", "pass"),
        CheckRecord("c", None, None, "x", "", "info"),
    )
    rep = VerificationReport("t", "i", (), None, False, "violated", None, 0, (), rows)
    assert len(rep.failures) == 1
    assert rep.passed is False
