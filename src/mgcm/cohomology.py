"""Exact graded-piece dimensions of local and sheaf cohomology.

Two independent routes are implemented:

* duality: pieces of local cohomology at the full graded maximal ideal are
  k-duals of pieces of the dual Ext module in complementary index (graded
  local duality over the polynomial cover),
* Koszul colimit: local cohomology against any finitely generated support
  ideal is computed as the stabilizing cohomology of Koszul complexes on
  rising powers of the generators, one graded piece at a time.

Sheaf cohomology on the Proj of the ambient multigraded ring is read off the
irrelevant-ideal route.  Dimensions summed over the auxiliary weight grading
are only offered when the ambient has no multidegree-0 variables; otherwise
callers pass an explicit weight slice, or use the exact multidegree-layer
vanishing test which quantifies over all weights at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graded_poly import (
    Degree,
    GradedRing,
    InputError,
    Polynomial,
    ResourceLimit,
    deg_add,
    deg_lt,
    deg_neg,
    deg_scale,
    deg_zero,
)
from .groebner_engine import ModulePresentation
from .homological import (
    _relations_gb,
    ext_dual_module,
    graded_piece_dim,
    is_zero_module,
    minimal_free_resolution,
    piece_basis,
    standard_monomials,
    v_of,
)

KOSZUL_STEP_LIMIT = 40


# ---------------------------------------------------------------------------
# exact rank over the coefficient field: one kernel for F_p and Q alike


def sparse_rank(field, rows: Iterable[Dict[int, object]]) -> int:
    """Rank of a matrix given as row dicts (column -> entry).

    Each row is reduced against the pivot rows kept so far.  A pivot row is
    stored monic and keyed by its least column, without that leading 1; its
    other columns are larger, so clearing a row's least column never brings
    in a smaller one.  A row that does not reduce to zero becomes a pivot
    row, and the rank is the number of pivot rows.  Elimination touches only
    the columns a row shares with a pivot row, so rows that share no column,
    directly or through other rows, never mix.

    Entries must be field elements or ints; a Fraction handed to a
    PrimeField is not supported.  Over F_p each entry is reduced with x % p
    once on entry and elimination runs on plain ints with inline % p, so
    ranks are exact for any prime; over Q the entries stay Fractions.
    """
    p = field.char
    pivots: Dict[int, Dict[int, object]] = {}
    for row in rows:
        if p:
            r = {c: v for c, x in row.items() if (v := x % p)}
        else:
            r = {c: x for c, x in row.items() if x}
        while r:
            c = min(r)
            f = r.pop(c)
            tail = pivots.get(c)
            if tail is None:
                inv = field.inv(f)
                if p:
                    pivots[c] = {j: x * inv % p for j, x in r.items()}
                else:
                    pivots[c] = {j: x * inv for j, x in r.items()}
                break
            # f and every tail entry are nonzero, so a sum that cancels
            # had its column in r already
            for j, x in tail.items():
                v = (r.get(j, 0) - f * x) % p if p else r.get(j, 0) - f * x
                if v:
                    r[j] = v
                else:
                    del r[j]
    return len(pivots)


def matrix_rank(field, rows: Sequence[Sequence]) -> int:
    """Rank of a dense matrix with entries in the coefficient field."""
    return sparse_rank(field, [dict(enumerate(r)) for r in rows])


# ---------------------------------------------------------------------------
# support specifications


@dataclass(frozen=True)
class SupportSpec:
    """Radical generators of the support ideal local cohomology is taken at.

    kind "maximal" means the full graded maximal ideal (duality route);
    "irrelevant" the Proj-irrelevant ideal generated by block products;
    "custom" an explicit generator list (Koszul route).
    """

    kind: str
    generators: Tuple[Polynomial, ...]

    def __post_init__(self):
        if self.kind not in ("maximal", "irrelevant", "custom"):
            raise InputError(f"unknown support kind: {self.kind}")
        if not self.generators:
            raise InputError("support ideal needs at least one generator")


def maximal_support(ring: GradedRing) -> SupportSpec:
    return SupportSpec("maximal", ring.gens())


def irrelevant_support(ring: GradedRing) -> SupportSpec:
    """One generator per choice of a multidegree-e_j variable from each block."""
    r = ring.rank
    blocks: List[List[int]] = []
    for j in range(r):
        unit = tuple(1 if t == j else 0 for t in range(r))
        idx = [v for v in range(ring.nvars) if ring.degrees[v] == unit]
        if not idx:
            raise InputError(f"no variable of multidegree e_{j + 1}; ring not standard")
        blocks.append(idx)
    variables = ring.gens()
    gens = []
    for combo in itertools.product(*blocks):
        g = ring.one()
        for v in combo:
            g = g * variables[v]
        gens.append(g)
    return SupportSpec("irrelevant", tuple(gens))


def custom_support(gens: Sequence[Polynomial]) -> SupportSpec:
    gens = tuple(g for g in gens if not g.is_zero())
    if not gens:
        raise InputError("support ideal needs at least one nonzero generator")
    for g in gens:
        g.degree_pair()
    return SupportSpec("custom", gens)


# ---------------------------------------------------------------------------
# multiplication matrices between graded pieces


@lru_cache(maxsize=None)
def _mult_matrix(
    module: ModulePresentation, g: Polynomial, n: Degree, weight: Optional[int]
):
    """Multiplication by g from the (n, weight) piece to the piece it lands in.

    Returns (columns, source dim, target dim): one sparse column
    ((target index, coeff), ...) per source basis monomial, in basis order.
    The target basis is every standard monomial of its piece, and a standard
    monomial is its own normal form; so when g = c*x^b is a single term and
    x^b * x^a * e_s is in the target basis, the column is ((index, c),) as
    it stands.  Every other product is reduced against the relations basis,
    which is fetched only if such a product comes up."""
    src = piece_basis(module, n, weight)
    gm, gw = g.degree_pair()
    tgt = piece_basis(module, deg_add(n, gm), None if weight is None else weight + gw)
    index = {t: i for i, t in enumerate(tgt)}
    single = len(g.terms) == 1
    g_exps, g_coeff = g.terms[0]
    gb = None
    cols = []
    for comp, exps in src:
        if single:
            ti = index.get((comp, tuple(a + b for a, b in zip(exps, g_exps))))
            if ti is not None:
                cols.append(((ti, g_coeff),))
                continue
        if gb is None:
            gb = _relations_gb(module)
        red = gb.reduce({(comp, tuple(a + b for a, b in zip(exps, ge))): c for ge, c in g.terms})
        cols.append(tuple((index[t], c) for t, c in red.items()))
    return tuple(cols), len(src), len(tgt)


@lru_cache(maxsize=None)
def _gen_power(g: Polynomial, k: int) -> Polynomial:
    return g ** k


# ---------------------------------------------------------------------------
# Koszul-complex cohomology of one graded piece at one power level


def _subset_shift(degs: Sequence[Tuple[Degree, int]], J: Tuple[int, ...], k: int):
    m = deg_zero(len(degs[0][0]))
    w = 0
    for j in J:
        m = deg_add(m, deg_scale(degs[j][0], k))
        w += degs[j][1] * k
    return m, w


def _piece_offsets(
    module: ModulePresentation,
    degs: Sequence[Tuple[Degree, int]],
    subsets,
    k: int,
    n: Degree,
    weight: Optional[int],
) -> Tuple[Dict[Tuple[int, ...], int], int]:
    """Offsets of the pieces (n, weight) + k*deg(J), one per subset J, laid
    end to end, and their total size.

    Pieces here are sized by `piece_basis`: `_mult_matrix` lists their bases
    anyway, so a separate count would only add work."""
    offsets: Dict[Tuple[int, ...], int] = {}
    total = 0
    for J in subsets:
        dm, dw = _subset_shift(degs, J, k)
        offsets[J] = total
        total += len(piece_basis(
            module, deg_add(n, dm), None if weight is None else weight + dw
        ))
    return offsets, total


@lru_cache(maxsize=None)
def _differential_rank(
    module: ModulePresentation,
    gens: Tuple[Polynomial, ...],
    k: int,
    p: int,
    n: Degree,
    weight: Optional[int],
) -> int:
    """Rank of d^p: C^p -> C^{p+1} on the (n, weight) piece at power level k."""
    s = len(gens)
    if p < 0 or p >= s:
        return 0
    degs = tuple(g.degree_pair() for g in gens)
    powers = tuple(_gen_power(g, k) for g in gens)
    src_subsets = list(itertools.combinations(range(s), p))
    tgt_subsets = list(itertools.combinations(range(s), p + 1))
    ring = module.ring

    src_off, total_src = _piece_offsets(module, degs, src_subsets, k, n, weight)
    tgt_off, total_tgt = _piece_offsets(module, degs, tgt_subsets, k, n, weight)
    if total_src == 0 or total_tgt == 0:
        return 0

    field = ring.field
    rows: List[Dict[int, object]] = [{} for _ in range(total_tgt)]
    for J in src_subsets:
        dm, dw = _subset_shift(degs, J, k)
        src_n = deg_add(n, dm)
        src_w = None if weight is None else weight + dw
        for j in range(s):
            if j in J:
                continue
            J2 = tuple(sorted(J + (j,)))
            sign = (-1) ** sum(1 for x in J if x < j)
            cols = _mult_matrix(module, powers[j], src_n, src_w)[0]
            ro, co = tgt_off[J2], src_off[J]
            for ci, col in enumerate(cols, co):
                for ti, v in col:
                    rows[ro + ti][ci] = v if sign > 0 else field.neg(v)
    return sparse_rank(field, rows)


def _koszul_value(
    module: ModulePresentation,
    degs: Sequence[Tuple[Degree, int]],
    gens: Tuple[Polynomial, ...],
    k: int,
    i: int,
    n: Degree,
    weight: Optional[int],
) -> int:
    subsets = itertools.combinations(range(len(gens)), i)
    dim_ci = _piece_offsets(module, degs, subsets, k, n, weight)[1]
    r_i = _differential_rank(module, gens, k, i, n, weight)
    r_prev = _differential_rank(module, gens, k, i - 1, n, weight)
    value = dim_ci - r_i - r_prev
    if value < 0:
        raise AssertionError("negative cohomology dimension (rank bookkeeping bug)")
    return value


def _koszul_stable_dim(
    module: ModulePresentation,
    gens: Tuple[Polynomial, ...],
    i: int,
    n: Degree,
    weight: Optional[int],
    margin: bool,
) -> Tuple[int, int]:
    """Koszul-colimit dimension with stabilization exponent.

    Accepts the first power level whose value repeats at the next level
    (two consecutive repeats with the safety margin on, the default)."""
    need = 3 if margin else 2
    k0 = 1 + max([abs(x) for x in n] + ([abs(weight)] if weight else [0]))
    history: List[int] = []
    k = k0
    degs = tuple(g.degree_pair() for g in gens)
    while k - k0 < KOSZUL_STEP_LIMIT:
        history.append(_koszul_value(module, degs, gens, k, i, n, weight))
        if len(history) >= need and len(set(history[-need:])) == 1:
            return history[-1], k - need + 1
        k += 1
    raise ResourceLimit(
        f"Koszul colimit did not stabilize within {KOSZUL_STEP_LIMIT} levels"
    )


# ---------------------------------------------------------------------------
# local cohomology


@dataclass(frozen=True)
class CohomologyValue:
    value: int
    mode: str
    stab_k: Optional[int]


def local_cohomology_dim(
    module: ModulePresentation,
    support: SupportSpec,
    i: int,
    n: Sequence[int],
    weight: Optional[int] = None,
    margin: bool = True,
) -> CohomologyValue:
    """dim_k of the (n[, weight]) piece of H^i against the support ideal."""
    if i < 0:
        raise InputError("negative cohomological index")
    ring = module.ring
    n = tuple(int(x) for x in n)
    if len(n) != ring.rank:
        raise InputError("degree rank mismatch")
    for g in support.generators:
        if g.ring != ring:
            raise InputError("support ideal lives in a different ring")

    if support.kind == "maximal":
        if i > ring.nvars:
            return CohomologyValue(0, "duality", None)
        ext = ext_dual_module(module, ring.nvars - i)
        w = None if weight is None else -weight
        return CohomologyValue(graded_piece_dim(ext, deg_neg(n), w), "duality", None)

    gens = support.generators
    if i > len(gens):
        return CohomologyValue(0, "koszul-colimit", 0)
    value, stab = _koszul_stable_dim(module, gens, i, n, weight, margin)
    return CohomologyValue(value, "koszul-colimit", stab)


def local_cohomology_layer_vanishes(
    module: ModulePresentation, i: int, n: Sequence[int]
) -> bool:
    """Exact test: [H^i at the maximal ideal]_(n, w) = 0 for every weight w.

    Via duality this asks whether the dual Ext module has any nonzero
    element of multidegree -n, quantified over all weights at once."""
    if i < 0:
        raise InputError("negative cohomological index")
    ring = module.ring
    n = tuple(int(x) for x in n)
    if i > ring.nvars:
        return True
    ext = ext_dual_module(module, ring.nvars - i)
    return not mdeg_layer_nonzero(ext, deg_neg(n))


def mdeg_layer_nonzero(module: ModulePresentation, n: Degree) -> bool:
    """Is the full multidegree-n layer (all weights) of the module nonzero?

    A monomial b * t * e_s with t supported on positive-multidegree variables
    and b on multidegree-0 variables survives for some b iff t * e_s is
    standard, so one standard monomial with b = 1 settles it.
    """
    return next(standard_monomials(module, n), None) is not None


# ---------------------------------------------------------------------------
# sheaf cohomology on Proj


def _sheaf_value(module: ModulePresentation, i: int, n: Degree,
                 weight: Optional[int], margin: bool) -> Tuple[int, int]:
    """(dim_k H^i(Z, sheaf(module)(n)), stabilization level of the colimits
    it read).  For i >= 1 this is the degree-n piece of H^{i+1} at the
    irrelevant ideal; for i = 0 global sections have dimension
    dim module_n - h^0 + h^1 (h^j at the irrelevant ideal)."""
    support = irrelevant_support(module.ring)
    if i >= 1:
        cv = local_cohomology_dim(module, support, i + 1, n, weight, margin)
        return cv.value, cv.stab_k
    mn = graded_piece_dim(module, n, weight)
    h0 = local_cohomology_dim(module, support, 0, n, weight, margin)
    h1 = local_cohomology_dim(module, support, 1, n, weight, margin)
    return mn - h0.value + h1.value, max(h0.stab_k, h1.stab_k)


def sheaf_cohomology_dim(
    module: ModulePresentation,
    i: int,
    n: Sequence[int],
    weight: Optional[int] = None,
    margin: bool = True,
) -> int:
    """dim_k H^i(Z, sheaf(module)(n)) on Z = Proj of the ambient ring."""
    if i < 0:
        raise InputError("negative cohomological index")
    return _sheaf_value(module, i, tuple(n), weight, margin)[0]


def sections_natural_iso(
    module: ModulePresentation,
    n: Sequence[int],
    weight: Optional[int] = None,
) -> bool:
    """Does the natural map module_n -> global sections hit an isomorphism?"""
    support = irrelevant_support(module.ring)
    h0 = local_cohomology_dim(module, support, 0, n, weight).value
    h1 = local_cohomology_dim(module, support, 1, n, weight).value
    return h0 == 0 and h1 == 0


def support_E_vanishes(module: ModulePresentation, i: int, n: Sequence[int]) -> Tuple[bool, str]:
    """Exact all-weights vanishing of fiber-supported cohomology in index i."""
    ring = module.ring
    if ring.is_field_base():
        return sheaf_cohomology_dim(module, i, tuple(n)) == 0, "direct"
    _check_below_v(module, n)
    return (
        local_cohomology_layer_vanishes(module, i + ring.rank, n),
        "fiber-identity",
    )


def _check_below_v(module: ModulePresentation, n: Sequence[int]):
    v = v_of(module)
    n = tuple(int(x) for x in n)
    if len(n) != len(v) or not deg_lt(n, v):
        raise InputError(
            f"fiber identity out of range: degree {n} is not strictly below v = {v}"
        )


# ---------------------------------------------------------------------------
# tables and windows


@dataclass(frozen=True)
class CohomologyTable:
    """Sheaf cohomology dimensions over a degree window.

    entries: rows (i, n, dim, stabilization exponent or None) sorted by i
    then lexicographically by n."""

    entries: Tuple[Tuple[int, Degree, int, Optional[int]], ...]
    window: Tuple[Degree, ...]
    mode: str


def cohomology_table(
    module: ModulePresentation,
    i_range: Sequence[int],
    window: Sequence[Sequence[int]],
) -> CohomologyTable:
    window = tuple(tuple(int(x) for x in n) for n in window)
    if not window:
        raise InputError("empty degree window")
    i_list = sorted(set(int(i) for i in i_range))
    if any(i < 0 for i in i_list):
        raise InputError("negative cohomological index")
    rows = tuple(
        (i, n) + _sheaf_value(module, i, n, None, True) for i in i_list for n in sorted(window)
    )
    return CohomologyTable(rows, window, "koszul-colimit")


def degree_box(lo: Sequence[int], hi: Sequence[int]) -> Tuple[Degree, ...]:
    """All degrees in the closed box [lo, hi], lexicographically ascending."""
    lo = tuple(int(x) for x in lo)
    hi = tuple(int(x) for x in hi)
    if len(lo) != len(hi):
        raise InputError("box corners of different rank")
    if any(a > b for a, b in zip(lo, hi)):
        raise InputError("empty degree box")
    axes = [range(a, b + 1) for a, b in zip(lo, hi)]
    return tuple(itertools.product(*axes))


def default_window(module: ModulePresentation) -> Tuple[Degree, ...]:
    """Box [v - w, v + w] around the minimal generator degree, where w is 3
    plus the largest multidegree spread among the resolution twists."""
    r = module.ring.rank
    if is_zero_module(module):
        center = deg_zero(r)
        spread = 0
    else:
        center = v_of(module)
        res = minimal_free_resolution(module)
        spread = 0
        for coord in range(r):
            vals = [s[coord] for step in res.shifts for s in step[0]]
            if vals:
                spread = max(spread, max(vals) - min(vals))
    w = 3 + spread
    lo = tuple(c - w for c in center)
    hi = tuple(c + w for c in center)
    return degree_box(lo, hi)
