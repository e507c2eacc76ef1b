"""Exact graded-piece dimensions of local and sheaf cohomology.

Two independent routes are implemented:

* duality: pieces of local cohomology at the full graded maximal ideal are
  k-duals of pieces of the dual Ext module in complementary index (graded
  local duality over the polynomial cover),
* colimit: local cohomology at the irrelevant ideal B = B_1 ... B_r, or at
  the ideal of all the variables, is the colimit over levels of the
  cohomology of Hom(F_., M), one graded piece at a time.  A level is one
  exponent d_v per variable, and F_. is S followed by the tensor product of
  Koszul complexes on blocks of the monomials x_v^(d_v): one block per
  variable block for B, which resolves S/(B_1^[d_1] ... B_r^[d_r]), cofinal
  with the B^[d] whose Ext^i(S/B^[d], M) have colimit H^i_B(M)
  (Eisenbud-Mustata-Stillman 2000), and one block of all the variables for
  their ideal.  Each value is computed at one certified level, read off the
  twists of M's minimal free resolution.  One record per piece (module,
  support, n, weight) reads that level once and keeps the complex at it,
  each F_q's pieces and each differential's rank, so every index i reads
  the same.  The three supports (`maximal_support`, `irrelevant_support`,
  `variables_support`) are built from the ring alone and kept on it; none
  takes generators from the caller.

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
    deg_add,
    deg_lt,
    deg_neg,
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
    "variables" the ideal of all the variables, by the colimit route.
    """

    kind: str
    generators: Tuple[Polynomial, ...]

    def __post_init__(self):
        if self.kind not in ("maximal", "irrelevant", "variables"):
            raise InputError(f"unknown support kind: {self.kind}")
        if not self.generators:
            raise InputError("support ideal needs at least one generator")
        # the caches of levels and ranks hash a support on every lookup;
        # equality stays by value, so an equal support built again hits them
        object.__setattr__(self, "_hash", hash((self.kind, self.generators)))

    def __hash__(self):
        return self._hash


def _ring_support(ring: GradedRing, kind: str, generators) -> SupportSpec:
    """The ring's support of this kind, built once from generators() and
    kept in `ring.supports`; a ring that has none raises every time."""
    support = ring.supports.get(kind)
    if support is None:
        support = ring.supports[kind] = SupportSpec(kind, generators())
    return support


def maximal_support(ring: GradedRing) -> SupportSpec:
    return _ring_support(ring, "maximal", ring.gens)


def variables_support(ring: GradedRing) -> SupportSpec:
    """The ideal of all the variables, read as a colimit (Koszul route)."""
    return _ring_support(ring, "variables", ring.gens)


def _irrelevant_blocks(ring: GradedRing) -> Tuple[Tuple[int, ...], ...]:
    """For each j, the indices of the variables of multidegree e_j."""
    for j, block in enumerate(ring.unit_blocks):
        if not block:
            raise InputError(f"no variable of multidegree e_{j + 1}; ring not standard")
    return ring.unit_blocks


def _power_product(ring: GradedRing, variables: Iterable[int], d: int) -> Polynomial:
    """The product of x_v^d over the given distinct variables."""
    exps = [0] * ring.nvars
    for v in variables:
        exps[v] = d
    return ring.monomial(exps)


def irrelevant_support(ring: GradedRing) -> SupportSpec:
    """One generator per choice of a multidegree-e_j variable from each block."""
    return _ring_support(ring, "irrelevant", lambda: tuple(
        _power_product(ring, combo, 1) for combo in itertools.product(*_irrelevant_blocks(ring))
    ))


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


# ---------------------------------------------------------------------------
# graded free complexes F_. whose duals Hom(F_., M) compute the colimit
#
# A complex F_0 <- F_1 <- ... is a pair (shifts, maps).  shifts[q] lists the
# (multidegree, weight) twists a of the summands S(-a) of F_q, so
# Hom(F_q, M)_n is the sum of the pieces M_(n + a).  maps[q] lists the
# entries of F_{q+1} -> F_q as (a, b, sign, m), sorted by (a, b): summand b
# of F_{q+1} maps to sign * m times summand a of F_q.  Dually, Hom(F_q, M)
# -> Hom(F_{q+1}, M) multiplies the piece of a by sign * m into that of b.


def _degree_sum(pairs) -> Tuple[Degree, int]:
    """The sum of (multidegree, weight) pairs."""
    return tuple(map(sum, zip(*(m for m, _ in pairs)))), sum(w for _, w in pairs)


def _block_complex(blocks: Sequence[Sequence[Polynomial]]):
    """S in homological degree 0, followed by the tensor product over blocks
    j of the Koszul complex on block j's monic monomials without its S term.

    F_q has one summand e_J per tuple J = (J_1, ..., J_r) of nonempty index
    sets J_j into block j with 1 + sum_j (|J_j| - 1) = q, twisted by the
    degree of the product of the monomials over J.  An e_J of singletons
    goes to that product in S; any other goes to the sum over blocks j with
    |J_j| >= 2 and over t in J_j of
    (-1)^(sum_{i<j} (|J_i| - 1) + position of t in J_j) g_jt e_(J - t).

    One block is the Koszul complex on its monomials.  When each block holds
    powers of distinct variables and no variable is in two blocks, the
    complex is the minimal free resolution of S mod the product of the
    block ideals."""
    ring = blocks[0][0].ring
    degrees = []
    for block in blocks:
        degs = [g.degree_pair() for g in block]
        degrees.append({J: _degree_sum([degs[t] for t in J])
                        for p in range(1, len(block) + 1)
                        for J in itertools.combinations(range(len(block)), p)})
    levels: List[List[Tuple[Tuple[int, ...], ...]]] = [[()]]
    levels += [[] for _ in range(1 + sum(len(b) - 1 for b in blocks))]
    for J in itertools.product(*degrees):
        levels[1 + sum(len(Jj) - 1 for Jj in J)].append(J)
    shifts = [((deg_zero(ring.rank), 0),)]
    shifts += [tuple(_degree_sum([degrees[j][Jj] for j, Jj in enumerate(J)]) for J in level)
               for level in levels[1:]]
    products = [ring.monomial(tuple(map(sum, zip(*(blocks[j][t].terms[0][0]
                                                  for j, (t,) in enumerate(J))))))
                for J in levels[1]]
    maps = [tuple((0, b, 1, m) for b, m in enumerate(products))]
    for q in range(1, len(levels) - 1):
        index = {J: a for a, J in enumerate(levels[q])}
        entries = []
        for b, J in enumerate(levels[q + 1]):
            before = 0
            for j, Jj in enumerate(J):
                if len(Jj) >= 2:
                    for pos, t in enumerate(Jj):
                        face = J[:j] + (Jj[:pos] + Jj[pos + 1:],) + J[j + 1:]
                        entries.append((index[face], b, (-1) ** (before + pos), blocks[j][t]))
                before += len(Jj) - 1
        maps.append(tuple(sorted(entries, key=lambda e: e[:2])))
    return tuple(shifts), tuple(maps)


@lru_cache(maxsize=16)
def _complex(support: SupportSpec, level: Tuple[int, ...]):
    """The free complex whose dual gives the colimit at `level`, one
    exponent d_v per variable: `_block_complex` on the x_v^(d_v), one block
    per variable block for the irrelevant ideal and one block of all the
    variables for their ideal.

    Only recent complexes are kept here, beyond the ones the kept level
    records (`_level_complex`) hold.  A complex is cheap to build again, and
    a Koszul complex on s generators has s * 2^(s-1) entries at every level,
    so keeping all levels of all supports would grow memory for little time."""
    ring = support.generators[0].ring
    powers = [_power_product(ring, (v,), d) for v, d in enumerate(level)]
    blocks = _irrelevant_blocks(ring) if support.kind == "irrelevant" else (range(ring.nvars),)
    return _block_complex([[powers[v] for v in block] for block in blocks])


# ---------------------------------------------------------------------------
# cohomology of Hom(F_., M) on one graded piece


class _LevelComplex:
    """Hom(F_., M) on the (n, weight) piece, F = (shifts, maps) a free
    complex.  Each F_q's pieces, with the offsets of their bases laid end to
    end, and each differential's rank are built on first use and kept.

    Pieces here are sized by `piece_basis`: `_mult_matrix` lists their bases
    anyway, so a separate count would only add work."""

    def __init__(self, module: ModulePresentation, complex_, n: Degree,
                 weight: Optional[int]):
        self.module, self.n, self.weight = module, n, weight
        self.shifts, self.maps = complex_
        self._pieces: Dict[int, tuple] = {}
        self._ranks: Dict[int, int] = {}

    def pieces(self, q: int):
        """The pieces (n, weight) + a of F_q, one per twist a, and the
        offsets of their bases, with the total size last."""
        if q not in self._pieces:
            n, weight = self.n, self.weight
            pieces = [(deg_add(n, m), None if weight is None else weight + w)
                      for m, w in self.shifts[q]]
            offsets = [0]
            for piece in pieces:
                offsets.append(offsets[-1] + len(piece_basis(self.module, *piece)))
            self._pieces[q] = pieces, offsets
        return self._pieces[q]

    def rank(self, q: int) -> int:
        """Rank of Hom(F_q, M) -> Hom(F_{q+1}, M); 0 outside the complex."""
        if q < 0 or q >= len(self.maps):
            return 0
        if q not in self._ranks:
            src, src_off = self.pieces(q)
            tgt_off = self.pieces(q + 1)[1]
            rank = 0
            if src_off[-1] and tgt_off[-1]:
                field = self.module.ring.field
                rows: List[Dict[int, object]] = [{} for _ in range(tgt_off[-1])]
                for a, b, sign, m in self.maps[q]:
                    cols = _mult_matrix(self.module, m, *src[a])[0]
                    ro = tgt_off[b]
                    for ci, col in enumerate(cols, src_off[a]):
                        for ti, v in col:
                            rows[ro + ti][ci] = v if sign > 0 else field.neg(v)
                rank = sparse_rank(field, rows)
            self._ranks[q] = rank
        return self._ranks[q]

    def value(self, i: int) -> int:
        """dim_k of H^i on the piece; 0 past the complex's length."""
        if i >= len(self.shifts):
            return 0
        value = self.pieces(i)[1][-1] - self.rank(i) - self.rank(i - 1)
        if value < 0:
            raise AssertionError("negative cohomology dimension (rank bookkeeping bug)")
        return value


@lru_cache(maxsize=None)
def _level_complex(
    module: ModulePresentation,
    support: SupportSpec,
    n: Degree,
    weight: Optional[int],
) -> Tuple[int, _LevelComplex]:
    """The piece's complex at its certified level, read once for every
    index, after the level's largest exponent (reported as `stab_k`)."""
    level = _certified_level(module, support, n, weight)
    return max(level), _LevelComplex(module, _complex(support, level), n, weight)


def _certified_level(
    module: ModulePresentation,
    support: SupportSpec,
    n: Degree,
    weight: Optional[int],
) -> Tuple[int, ...]:
    """A level, one exponent d_v per variable, from which H^i(Hom(F^(e), M))
    is the colimit H^i_I(M) on the (n, weight) piece for every i and every
    e >= d, F^(e) the support's complex on the x_v^(e_v).

    Let b run over the twists of all the free modules of M's minimal free
    resolution F_., and N_j be the number of variables of multidegree e_j.
    For the irrelevant ideal B, and for the ideal m of all the variables
    without a weight slice, every variable v of block j gets
        d_j = max(1, max_b (b_j - n_j - N_j + 1)),
    and a multidegree-0 variable gets 1.  For m in the weight slice w, with
    W the sum of the variable weights (every weight is positive),
        d_v = max(1, max_b floor((w_b - w - W + w_v) / w_v)).
    F^(e) resolves S/I_e, I_e = B_1^[e] ... B_r^[e] with B_j^[e] the ideal
    of the x_v^(e_v) in block j, or I_e = (x_v^(e_v) : all v).  Each I_e
    lies between two powers I^[k] = I_(k, ..., k), so the I_e are cofinal
    with them and their colimit is the same.

    Free module S(-b).  Its n-piece splits into the fine degrees a in
    Z^nvars of S of multidegree n - b.  Hom(F^(e), S)_a has one summand
    S_(a + c) per twist c of F^(e), each c_v either 0 or e_v, and
    S_(a + c) != 0 iff a + c >= 0.  So the complex is 0 if some a_v < -e_v;
    if none is, it depends only on which a_v are negative and equals the
    fine piece of the Cech complex, whose cohomology is H_I(S)_a.
    H_B(S)_a = 0 unless every block of a is all >= 0 or all <= -1, and
    H_m(S)_a = 0 unless every a_v <= -1.  In a block j that is all <= -1
    the entries sum to m_j = n_j - b_j, so each a_v >= m_j + N_j - 1 >= -d_j,
    block by block; with a weight slice, the a_v <= -1 weigh w - w_b in
    all, so each w_v * a_v >= w - w_b + W - w_v and a_v >= -d_v, variable
    by variable.  So for e >= d each fine degree has at level e either the
    colimit's piece or a zero complex whose colimit piece is acyclic too,
    and the map from level e to the colimit is a quasi-isomorphism on the
    n-piece.

    General M.  Hom(F^(e), F_.)_n is a bounded double complex, and its
    total complex computes Ext(S/I_e, M)_n because F^(e) is a bounded
    complex of free modules; its colimit over e computes H_I(M)_n because
    the colimit is exact.  Compare the two column by column: column p is
    Hom(F^(e), F_p)_n, a sum over the twists b of F_p, so the map is a
    quasi-isomorphism on every column, and a map of bounded double
    complexes that is one on every column is one on the total complexes.

    One block's exponents lowered by one, the others kept, can be wrong.
    Multidegree-0 variables are not in B and stay >= 0 in every nonzero
    fine degree; without a weight slice they make the pieces infinite,
    which `piece_basis` refuses.  Other gradings have no bound here and
    raise InputError."""
    ring = module.ring
    twists = minimal_free_resolution(module).shifts
    if support.kind == "variables" and weight is not None:
        total = sum(ring.weights)
        return tuple(max([1] + [(wb - weight - total + wv) // wv for _, ws in twists for wb in ws])
                     for wv in ring.weights)
    blocks = _irrelevant_blocks(ring)
    if sum(map(len, blocks)) + len(ring.base_variable_indices()) != ring.nvars:
        raise InputError("no certified colimit level: a variable's multidegree "
                         "is neither 0 nor some e_j")
    level = [1] * ring.nvars
    for j, block in enumerate(blocks):
        d = max([1] + [b[j] - n[j] - len(block) + 1 for mds, _ in twists for b in mds])
        for v in block:
            level[v] = d
    return tuple(level)


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
) -> CohomologyValue:
    """dim_k of the (n[, weight]) piece of H^i against the support ideal.

    The colimit route reads one level, the certified level of
    `_certified_level`, whose largest exponent `stab_k` holds.  The piece's
    complex at that level (`_level_complex`) reads it once and keeps its
    pieces and ranks for every index i."""
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

    stab_k, piece = _level_complex(module, support, n, weight)
    return CohomologyValue(piece.value(i), "koszul-colimit", stab_k)


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


def sheaf_cohomology_dim(
    module: ModulePresentation,
    i: int,
    n: Sequence[int],
    weight: Optional[int] = None,
    *, margin: bool = True,
) -> int:
    """dim_k H^i(Z, sheaf(module)(n)) on Z = Proj of the ambient ring.

    For i >= 1 this is the degree-n piece of H^{i+1} at the irrelevant
    ideal; for i = 0 global sections have dimension dim module_n - h^0 + h^1
    (h^j at the irrelevant ideal).

    `margin` is ignored.  It set how many repeats the old stopping rule
    waited for before accepting a colimit value; each value is now computed
    at one certified level.  It stays only because the benchmark's kunneth
    workload still passes margin=False."""
    if i < 0:
        raise InputError("negative cohomological index")
    support = irrelevant_support(module.ring)
    if i >= 1:
        return local_cohomology_dim(module, support, i + 1, n, weight).value
    return (graded_piece_dim(module, n, weight)
            - local_cohomology_dim(module, support, 0, n, weight).value
            + local_cohomology_dim(module, support, 1, n, weight).value)


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

    entries: rows (i, n, dim) sorted by i then lexicographically by n."""

    entries: Tuple[Tuple[int, Degree, int], ...]
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
    rows = tuple((i, n, sheaf_cohomology_dim(module, i, n))
                 for i in i_list for n in sorted(window))
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
