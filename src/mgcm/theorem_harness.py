"""Window-relative verdicts for the statements the engine can check.

Each verifier builds a report with an explicit hypothesis checklist and one
check row per (index, degree) probed, and `_finish` alone turns them into a
verdict: the conclusion holds iff no check row fails.  A failed hypothesis
gives "hypothesis-not-met"; one that fails before the conclusion is
evaluated leaves no rows and `right` None.  Otherwise the verdict is "holds"
or "violated", and thm31, a biconditional, compares its two sides.  A zero
module is an input error for thm31, lem-vanish, lem41, lem44, lem45 and thm46,
which read its generator or top degrees; thm42 reads it as Cohen-Macaulay.
Everything window-relative records its window.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .graded_poly import (
    Degree,
    InputError,
    ResourceLimit,
    deg_leq,
    deg_lt,
    deg_zero,
)
from .groebner_engine import (
    ModulePresentation,
    basis_multiples,
    ideal_power_product,
    submodules_equal,
    colon_in_quotient,
)
from .homological import (
    a_invariant,
    grade_of,
    is_cohen_macaulay,
    is_zero_module,
    krull_dim,
    v_of,
)
from .cohomology import (
    default_window,
    degree_box,
    irrelevant_support,
    local_cohomology_dim,
    local_cohomology_layer_vanishes,
    maximal_support,
    sections_natural_iso,
    sheaf_cohomology_dim,
    support_E_vanishes,
    variables_support,
)
from .rees_constructions import (
    diagonal_of,
    fiber_cone_spread,
    irrelevant_rees,
    multi_rees_algebra_presentation,
    rees_module_presentation,
)

REGRADED_VAR_LIMIT = 12


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class CheckRecord:
    check: str
    i: Optional[int]
    degree: Optional[Tuple[int, ...]]
    value: str
    expected: str
    verdict: str
    mode: str = ""


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    instance: str
    hypotheses: Tuple[HypothesisCheck, ...]
    left: Optional[bool]
    right: Optional[bool]
    verdict: str
    window: Optional[Tuple[Degree, Degree]]
    characteristic: int
    modes: Tuple[str, ...]
    checks: Tuple[CheckRecord, ...]

    @property
    def failures(self) -> Tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if c.verdict == "fail")

    @property
    def passed(self) -> bool:
        return self.verdict in ("holds", "hypothesis-not-met")


# every verdict, from worst to best, with the exit code of a run whose worst
# verdict it is: the one verdict order
VERDICT_EXIT = {"violated": 1, "input-error": 2, "resource-limit": 3,
                "hypothesis-not-met": 0, "holds": 0}
_RANK = {v: r for r, v in enumerate(VERDICT_EXIT)}


def worst_verdict(verdicts: Iterable[str]) -> str:
    """The worst of the verdicts, "holds" for none; an unknown one is worst."""
    return min(verdicts, key=lambda v: _RANK.get(v, 0), default="holds")


@dataclass(frozen=True)
class AggregateReport:
    entries: Tuple[VerificationReport, ...]

    @property
    def passed(self) -> int:
        return sum(r.passed for r in self.entries)

    @property
    def failed(self) -> int:
        return len(self.entries) - self.passed

    @property
    def input_errors(self) -> int:
        return sum(r.verdict == "input-error" for r in self.entries)

    @property
    def resource_limits(self) -> int:
        return sum(r.verdict == "resource-limit" for r in self.entries)

    def exit_code(self) -> int:
        return VERDICT_EXIT.get(worst_verdict(r.verdict for r in self.entries), 1)


def _cell(x) -> str:
    if isinstance(x, tuple):
        return "(" + "|".join(str(v) for v in x) + ")"
    return str(x)


def _row(check, i, degree, value, expected, mode="") -> CheckRecord:
    verdict = "pass" if value == expected else "fail"
    return CheckRecord(check, i, degree, _cell(value), _cell(expected), verdict, mode)


def _bool_row(check, i, degree, ok: bool, mode="") -> CheckRecord:
    return _row(check, i, degree, ok, True, mode)


def _finish(
    theorem, instance, ring, hyps=(), checks=None, window=None, modes=(), left=None
) -> VerificationReport:
    """The one verdict rule.  The conclusion (`right`) holds iff no check row
    reads "fail"; `checks=None` means a hypothesis failed before the
    conclusion was evaluated, and `right` is None.  A failed hypothesis
    gives "hypothesis-not-met"; otherwise the verdict is "holds" iff the
    conclusion holds or, for a biconditional, iff it agrees with `left`."""
    right = None if checks is None else all(c.verdict != "fail" for c in checks)
    if not all(h.passed for h in hyps):
        verdict = "hypothesis-not-met"
    else:
        verdict = "holds" if right == (True if left is None else left) else "violated"
    return VerificationReport(theorem, instance, tuple(hyps), left, right, verdict, window,
                              ring.field.char, tuple(sorted(set(modes))), tuple(checks or ()))


# ---------------------------------------------------------------------------
# shared gates


def _weight_window(module: ModulePresentation) -> Tuple[int, int]:
    shifts = module.weight_shifts or (0,)
    hi = 3 + max(0, max(shifts))
    return (-hi, hi)


def _window_box(module, window):
    """Resolve a window argument to (degree box, lo corner, hi corner)."""
    if window is None:
        box = default_window(module)
        return box, box[0], box[-1]
    lo = tuple(int(x) for x in window[0])
    hi = tuple(int(x) for x in window[1])
    r = module.ring.rank
    if len(lo) != r or len(hi) != r:
        raise InputError(f"window {lo}..{hi} does not have the module's rank {r}")
    return degree_box(lo, hi), lo, hi


def _grade_hypotheses(ring, blocks, labels=None) -> List[HypothesisCheck]:
    """One positive-grade-<label> row per ideal of ring; labels default to 1, 2, ..."""
    out = []
    for label, gens in zip(labels or itertools.count(1), blocks):
        if any(f.ring != ring for f in gens if not f.is_zero()):
            raise InputError("ideal and module over different rings")
        g = grade_of(tuple(gens))
        out.append(
            HypothesisCheck(
                f"positive-grade-{label}",
                g is not None and g >= 1,
                f"grade {g}" if g is not None else "unit ideal",
            )
        )
    return out


def _refuse_zero_source(N: ModulePresentation) -> None:
    if is_zero_module(N):
        raise InputError("N is the zero module; its Rees modules are zero and have no top degree")


def _rees_opening(N: ModulePresentation, ideals):
    """The ideals as tuples, their positive-grade hypotheses, and the Rees
    module of N along them, or None when some grade fails."""
    blocks = tuple(tuple(gens) for gens in ideals)
    hyps = _grade_hypotheses(N.ring, blocks)
    passed = all(h.passed for h in hyps)
    return blocks, hyps, rees_module_presentation(N, blocks) if passed else None


# ---------------------------------------------------------------------------
# the Cohen-Macaulay biconditional


def verify_cm_biconditional(
    M: ModulePresentation,
    window: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    instance: str = "",
) -> VerificationReport:
    """Left side: Cohen-Macaulay with top degrees strictly below generator
    degrees.  Right side: section matching at high twists, positive sheaf
    vanishing at high twists, and fiber-supported vanishing below the
    generator degrees.  Verdict: the two sides agree on the window."""
    ring = M.ring
    if is_zero_module(M):
        raise InputError("the zero module has no biconditional content")
    box, lo, hi = _window_box(M, window)
    r = ring.rank
    modes: List[str] = []
    checks: List[CheckRecord] = []

    hyps = _grade_hypotheses(ring, (irrelevant_support(ring).generators,), ("irrelevant",))

    inv = is_cohen_macaulay(M)
    a = a_invariant(M)
    v = v_of(M)
    a_below = deg_lt(a, v)
    left = inv.cm and a_below
    checks.append(
        CheckRecord("left-cm", None, None, str(inv.cm), "", "info",
                    f"dim={inv.dim} depth={inv.depth}")
    )
    checks.append(
        CheckRecord("left-top-below-generators", None, None,
                    f"a={a} v={v}", "", "info", f"strict={a_below}")
    )

    field_base = ring.is_field_base()
    if field_base:
        weights: Tuple[Optional[int], ...] = (None,)
    else:
        wlo, whi = _weight_window(M)
        weights = tuple(range(wlo, whi + 1))
        modes.append(f"weight-window[{wlo}..{whi}]")

    dim_m = inv.dim
    imax_sheaf = max(1, dim_m - r + 1)
    for n in box:
        above = deg_leq(v, n)
        below = deg_lt(n, v)
        if above:
            for w in weights:
                iso = sections_natural_iso(M, n, w)
                checks.append(_bool_row("sections-match", 0, n, iso))
            for i in range(1, imax_sheaf + 1):
                for w in weights:
                    val = sheaf_cohomology_dim(M, i, n, w)
                    checks.append(_row("sheaf-vanishing", i, n, val, 0))
        elif below:
            for i in range(0, dim_m - r):
                ok, mode = support_E_vanishes(M, i, n)
                modes.append(mode)
                checks.append(_bool_row("fiber-support-vanishing", i, n, ok, mode))
    return _finish("thm31", instance, ring, hyps, checks, (lo, hi), modes, left)


# ---------------------------------------------------------------------------
# vanishing of the regraded blow-up module


def verify_regraded_vanishing(
    M: ModulePresentation,
    window: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    k_range: Sequence[int] = (0, 1, 2),
    instance: str = "",
) -> VerificationReport:
    """All local-cohomology layers of the blow-up of the irrelevant ideal
    with M as coefficients vanish at degrees below the generator degrees of
    M, for every nonnegative blow-up exponent in range."""
    if not k_range:
        raise InputError("empty range of blow-up exponents")
    if any(k < 0 for k in k_range):
        raise InputError("blow-up exponents must be nonnegative")
    if is_zero_module(M):
        raise InputError("the zero module has no generator degrees to vanish below")
    planned = M.ring.nvars + len(irrelevant_support(M.ring).generators)
    if planned > REGRADED_VAR_LIMIT:
        raise ResourceLimit("instance too large for the regraded vanishing check")
    T = irrelevant_rees(M)
    box, lo, hi = _window_box(M, window)
    v = v_of(M)
    dim_t = krull_dim(T)
    checks: List[CheckRecord] = []
    for n in box:
        if not deg_lt(n, v):
            continue
        for k in k_range:
            layer = n + (k,)
            for i in range(0, max(dim_t, 0) + 1):
                ok = local_cohomology_layer_vanishes(T, i, layer)
                checks.append(_bool_row("regraded-vanishing", i, layer, ok, "duality"))
    return _finish("lem-vanish", instance, M.ring, (), checks, (lo, hi), ["duality"])


# ---------------------------------------------------------------------------
# top degree of blow-up modules


def verify_rees_a_invariant(
    N: ModulePresentation, ideals, instance: str = ""
) -> VerificationReport:
    """The per-coordinate top nonvanishing degree of the top local
    cohomology of a multi-Rees module equals -1 in every coordinate."""
    _refuse_zero_source(N)
    _, hyps, mod = _rees_opening(N, ideals)
    if mod is None:
        return _finish("lem41", instance, N.ring, hyps)
    a = a_invariant(mod)
    checks = [_row("a-invariant", None, a, a, tuple(-1 for _ in a), "duality")]
    return _finish("lem41", instance, N.ring, hyps, checks, modes=["duality"])


# ---------------------------------------------------------------------------
# transfer of the Cohen-Macaulay property to the diagonal


def verify_rees_transfer(
    N: ModulePresentation, ideals, instance: str = ""
) -> VerificationReport:
    """If the multi-Rees module is Cohen-Macaulay then so is the Rees module
    of the product ideal (its diagonal)."""
    blocks, hyps, mod = _rees_opening(N, ideals)
    if mod is not None:
        inv = is_cohen_macaulay(mod)
        hyps.append(HypothesisCheck("multi-rees-cm", inv.cm, f"dim={inv.dim} depth={inv.depth}"))
    if mod is None or not inv.cm:
        return _finish("thm42", instance, N.ring, hyps)
    value, cert = diagonal_of(N, blocks)
    dinv = is_cohen_macaulay(value)
    checks = [
        _bool_row("diagonal-cm", None, None, dinv.cm,
                  f"dim={dinv.dim} depth={dinv.depth}"),
        CheckRecord("diagonal-certificate", None, None, str(len(cert)),
                    "", "info", "window-identity"),
    ]
    return _finish("thm42", instance, N.ring, hyps, checks)


# ---------------------------------------------------------------------------
# colon identity families


def _power_cols(N: ModulePresentation, blocks, exps) -> Tuple[Tuple, ...]:
    """Columns spanning (product of ideal powers) * N + relations."""
    cols: Tuple[Tuple, ...] = ()
    for f in ideal_power_product(blocks, exps):
        cols += basis_multiples(f, N.rank)
    return cols + tuple(N.relations)


def verify_colon_identities(
    N: ModulePresentation,
    ideals,
    bound: Sequence[int],
    which: str,
    instance: str = "",
) -> VerificationReport:
    """Exact generator-membership colon checks over the base, one family.

    "pushforward-colon" (lem45): (product^(n-m)) N equals
    ((product^n) N : product^m) for all 0 <= m <= n <= bound.  Each
    right-hand side is one colon by a single ideal away from an earlier one:
    (U : IJ) = ((U : I) : J) for a submodule U and ideals I, J
    (Atiyah-Macdonald, Ex. 1.12(iii); the proof for modules is the same), so
    with P^m = I_1^m_1 ... I_r^m_r, (U : P^m) = ((U : P^(m - e_j)) : I_j) for
    any j with m_j > 0, and (U : P^0) = U.  The chain is exact:
    `colon_in_quotient` returns (U + R :_F I), which contains the relations
    R, so the next colon sees the same submodule of N.
    "subset-colon" (thm46): for every nonempty index subset K and l in K,
    (prod_K) N : I_l equals (prod_{K minus l}) N.
    """
    if which not in ("pushforward-colon", "subset-colon"):
        raise InputError(f"unknown colon family {which!r}")
    _refuse_zero_source(N)
    bound = tuple(int(x) for x in bound)
    if len(bound) != len(ideals) or any(x < 0 for x in bound):
        raise InputError("bound must be a nonnegative exponent per ideal")
    base = N.ring
    blocks, hyps, mod = _rees_opening(N, ideals)
    theorem = "lem45" if which == "pushforward-colon" else "thm46"
    if mod is None:
        return _finish(theorem, instance, base, hyps)

    r = len(blocks)
    inv = is_cohen_macaulay(mod)
    ident = inv.cm and deg_lt(a_invariant(mod), v_of(mod))
    hyps.append(
        HypothesisCheck(
            "sections-are-power-pieces",
            ident,
            "exact module-level rendering; section identification "
            + ("certified (CM with top degrees below generator degrees)"
               if ident else "not certified, identity checked as stated"),
        )
    )
    if which == "subset-colon":
        prod_all = ideal_power_product(blocks, (1,) * r)
        palg = multi_rees_algebra_presentation(base, (prod_all,))
        pinv = is_cohen_macaulay(palg)
        hyps.append(
            HypothesisCheck(
                "diagonal-charts-cm",
                pinv.cm,
                f"algebra CM={pinv.cm}; chart rings are localizations"
                " (chart-proxy)",
            )
        )

    free = N.free()
    checks: List[CheckRecord] = []

    if which == "pushforward-colon":
        window = (deg_zero(r), bound)
        box = degree_box(deg_zero(r), bound)
        power = {e: _power_cols(N, blocks, e) for e in box}
        for n in box:
            # degree_box is lexicographic, so m - e_j is in colons before m
            colons = {}
            for m in degree_box(deg_zero(r), n):
                if any(m):
                    j = max(i for i, x in enumerate(m) if x)
                    prev = m[:j] + (m[j] - 1,) + m[j + 1:]
                    colons[m] = colon_in_quotient(N, colons[prev], blocks[j])
                else:
                    colons[m] = power[n]
                lhs = power[tuple(x - y for x, y in zip(n, m))]
                ok = submodules_equal(free, lhs, colons[m])
                checks.append(
                    _bool_row("pushforward-colon", None, tuple(n) + tuple(m), ok)
                )
    else:
        window = None
        for size in range(1, r + 1):
            for K in itertools.combinations(range(r), size):
                exps_k = tuple(1 if j in K else 0 for j in range(r))
                power_k = _power_cols(N, blocks, exps_k)
                for l in K:
                    rest = tuple(1 if j in K and j != l else 0 for j in range(r))
                    lhs = _power_cols(N, blocks, rest)
                    rhs = colon_in_quotient(N, power_k, blocks[l])
                    ok = submodules_equal(free, lhs, rhs)
                    checks.append(
                        _bool_row("subset-colon", l + 1, exps_k, ok)
                    )

    return _finish(theorem, instance, base, hyps, checks, window)


# ---------------------------------------------------------------------------
# the analytic-spread vanishing line


def verify_spread_vanishing(
    N: ModulePresentation,
    ideal_gens,
    weight_range: Sequence[int] = range(-3, 4),
    instance: str = "",
) -> VerificationReport:
    """For a Cohen-Macaulay blow-up module L of one ideal with analytic
    spread l, the positive sheaf cohomology of L twisted by l - 1 - i
    vanishes.  The fiber-supported line is checked only on field bases and
    is otherwise skipped with a mode tag.  The hypothesis that N is locally
    free is checked only as N free (projective dimension 0)."""
    if not weight_range:
        raise InputError("empty weight range")
    _refuse_zero_source(N)
    (gens,), hyps, L = _rees_opening(N, (ideal_gens,))
    if L is not None:
        inv = is_cohen_macaulay(L)
        pd = is_cohen_macaulay(N).pd
        hyps += [
            HypothesisCheck("blowup-cm", inv.cm, f"dim={inv.dim} depth={inv.depth}"),
            HypothesisCheck("locally-free", pd == 0,
                            "assumed by corpus construction (module is free)" if pd == 0
                            else f"not free (pd={pd}); only freeness is checked"),
        ]
    if L is None or not inv.cm:
        return _finish("lem44", instance, N.ring, hyps)

    ell = fiber_cone_spread(gens)
    d = krull_dim(N)
    modes = [f"spread={ell}", f"weight-window[{weight_range[0]}..{weight_range[-1]}]"]
    checks: List[CheckRecord] = []
    imax = max(1, krull_dim(L) - 1) + 1
    for i in range(1, imax + 1):
        n = (ell - 1 - i,)
        for w in weight_range:
            val = sheaf_cohomology_dim(L, i, n, w)
            checks.append(_row("twist-vanishing", i, n, val, 0))
    if L.ring.is_field_base():
        for i in range(0, d):
            n = (d - ell - i,)
            ok, mode = support_E_vanishes(L, i, n)
            modes.append(mode)
            checks.append(_bool_row("fiber-line-vanishing", i, n, ok, mode))
    else:
        modes.append("fiber-line-skipped-nonfield-base")
    return _finish("lem44", instance, N.ring, hyps, checks, modes=modes)


# ---------------------------------------------------------------------------
# cross-route agreement reports


def dual_route_report(
    module: ModulePresentation,
    window: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    i_range: Optional[Sequence[int]] = None,
    weights: Optional[Sequence[Optional[int]]] = None,
    instance: str = "",
) -> VerificationReport:
    """Local cohomology at the full variable ideal computed twice: once by
    duality, once as the colimit of exponent-power Koszul complexes, read at
    one certified level."""
    ring = module.ring
    box, lo, hi = _window_box(module, window)
    if i_range is None:
        i_range = range(0, ring.nvars + 1)
    if weights is None:
        weights = (None,) if ring.is_field_base() else tuple(range(0, 4))
    dual = maximal_support(ring)
    kozs = variables_support(ring)
    checks: List[CheckRecord] = []
    for n in box:
        for i in i_range:
            for w in weights:
                dv = local_cohomology_dim(module, dual, i, n, w)
                kv = local_cohomology_dim(module, kozs, i, n, w)
                degree = n if w is None else tuple(n) + (w,)
                checks.append(_row("dual-route", i, degree, kv.value, dv.value,
                                   f"{dv.mode}|{kv.mode}"))
    return _finish("dual-route", instance, ring, (), checks, (lo, hi),
                   ["duality", "koszul-colimit"])


def fiber_identity_report(
    M: ModulePresentation,
    window: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    i_range: Optional[Sequence[int]] = None,
    instance: str = "",
) -> VerificationReport:
    """On a field base, the degree-n layer of the i-th local cohomology at
    the full variable ideal equals sheaf cohomology in index i - r of the
    n-th twist, for every n strictly below the generator degrees."""
    ring = M.ring
    if not ring.is_field_base():
        raise InputError("the identity cross-check needs a field base")
    box, lo, hi = _window_box(M, window)
    if i_range is None:
        i_range = range(0, ring.nvars + 1)
    r = ring.rank
    v = v_of(M)
    dual = maximal_support(ring)
    checks: List[CheckRecord] = []
    for n in box:
        if not deg_lt(n, v):
            continue
        for i in i_range:
            dv = local_cohomology_dim(M, dual, i, n).value
            sv = sheaf_cohomology_dim(M, i - r, n) if i >= r else 0
            checks.append(_row("fiber-identity", i, n, dv, sv, "duality|koszul-colimit"))
    return _finish("fiber-identity", instance, ring, (), checks, (lo, hi),
                   ["duality", "koszul-colimit"])


# ---------------------------------------------------------------------------
# corpus driver


def run_corpus(
    entries: Sequence[Tuple[str, Callable[[], VerificationReport]]]
) -> AggregateReport:
    """Run one thunk per corpus entry; input and resource failures are
    isolated into per-entry reports instead of aborting the batch."""
    reports: List[VerificationReport] = []
    for instance, thunk in entries:
        try:
            rep = thunk()
        except (InputError, ResourceLimit) as e:
            verdict = "input-error" if isinstance(e, InputError) else "resource-limit"
            rep = VerificationReport(
                "error", instance, (), None, None, verdict, None, 0, (verdict,),
                (CheckRecord(verdict, None, None, str(e), "", "fail"),),
            )
        reports.append(rep)
    return AggregateReport(tuple(reports))
