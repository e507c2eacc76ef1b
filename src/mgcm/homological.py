"""Minimal free resolutions, initial modules and the invariants read off them.

Everything here runs over a polynomial ring P; a module M = F/U over a
quotient S = P/J is presented over P with J folded into its relation
columns.  The weight grading does the graded-local work.  Depth comes from
the minimal resolution via Auslander-Buchsbaum (depth = #vars - pd).
Vanishing, minimal generator degrees, Krull dimension and graded piece
dimensions come from the initial module F/in(U) of the relations' Groebner
basis, which has the same Hilbert function as M; dim is the largest
dim P/J_c over its monomial components.  A piece dimension is counted from
the K-polynomials of the P/J_c and the ring's monomial counts, without
listing the piece; `piece_basis` lists standard monomials for callers that
need a basis.  The grade of an ideal on P is its height (#vars - dim P/I).

Duality: ext_dual_module(M, i) presents Ext^i(M, P(-w_total)) where w_total
is the sum of all variable degrees.  Its graded pieces are the k-duals of
local cohomology pieces at the maximal graded ideal (graded local duality;
Bruns-Herzog, Cohen-Macaulay Rings, Sec. 3.6), which is how a-invariants and
the duality route of the cohomology layer are computed.  Three exact facts
spare Groebner bases there: Ext^pd is the cokernel of the transposed last
differential; a submodule of mF, m the ideal of the variables, has no unit
lead term; and over the domain P one nonzero column has no syzygies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .graded_poly import (
    Degree,
    GradedRing,
    InputError,
    Polynomial,
    deg_add,
    deg_min,
    deg_neg,
    deg_sub,
    deg_zero,
)
from .groebner_engine import (
    BASIS_CACHE_SIZE,
    Column,
    FreeModule,
    GroebnerBasis,
    ModulePresentation,
    cyclic_presentation,
    free_module,
    free_presentation,
    groebner_module,
    module_kernel,
    presentation,
    submodule_contains,
    syzygy_basis,
)

# ---------------------------------------------------------------------------
# resolutions


@dataclass(frozen=True)
class Resolution:
    """Chain F_L -> ... -> F_1 -> F_0 with H_0 = the presented module.

    shifts[i] = (multidegree shifts, weight shifts) of F_i;
    differentials[i-1] = d_i as a tuple of columns in F_{i-1} coordinates.
    """

    module: ModulePresentation
    shifts: Tuple[Tuple[Tuple[Degree, ...], Tuple[int, ...]], ...]
    differentials: Tuple[Tuple[Column, ...], ...]

    @property
    def length(self) -> int:
        return len(self.shifts) - 1

    def rank(self, i: int) -> int:
        if i < 0 or i > self.length:
            return 0
        return len(self.shifts[i][0])

    def betti(self) -> Dict[int, int]:
        return {i: self.rank(i) for i in range(self.length + 1) if self.rank(i)}


def _column_is_zero(col: Column) -> bool:
    return all(e.is_zero() for e in col)


def _apply_matrix(ring: GradedRing, target_rank: int, matrix: Sequence[Column], vec: Column) -> Column:
    """matrix * vec where vec has one entry per matrix column."""
    out = [ring.zero()] * target_rank
    for j, col in enumerate(matrix):
        c = vec[j]
        if c.is_zero():
            continue
        for i, entry in enumerate(col):
            if not entry.is_zero():
                out[i] = out[i] + entry * c
    return tuple(out)


def _is_constant(p: Polynomial) -> bool:
    return len(p.terms) == 1 and all(e == 0 for e in p.terms[0][0])


def _prune_complex(
    shifts: List[Tuple[List[Degree], List[int]]],
    diffs: List[List[List[Polynomial]]],
) -> None:
    """Remove constant pivots in place (Gaussian elimination of the complex).

    diffs[i] is d_{i+1} stored column-major: diffs[i][col][row].
    Pivot rule: smallest (step, row, column) with a constant nonzero entry.
    """

    def find_pivot():
        for step, mat in enumerate(diffs):
            best = None
            for col, column in enumerate(mat):
                for row, entry in enumerate(column):
                    if not entry.is_zero() and _is_constant(entry):
                        if best is None or (row, col) < best:
                            best = (row, col)
            if best is not None:
                return step, best[0], best[1]
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            return
        step, row, col = hit
        mat = diffs[step]
        u = mat[col][row].lead_coeff()
        field = mat[col][row].ring.field
        uinv = field.inv(u)
        pivot_col = mat[col]
        ncols = len(mat)
        nrows = len(pivot_col)
        new_mat: List[List[Polynomial]] = []
        for j in range(ncols):
            if j == col:
                continue
            b = mat[j][row]
            if b.is_zero():
                new_col = [mat[j][r] for r in range(nrows) if r != row]
            else:
                factor = b.scale(uinv)
                new_col = [
                    mat[j][r] - pivot_col[r] * factor for r in range(nrows) if r != row
                ]
            new_mat.append(new_col)
        diffs[step] = new_mat
        # basis updates
        md, w = shifts[step + 1]
        del md[col], w[col]
        md, w = shifts[step]
        del md[row], w[row]
        if step + 1 < len(diffs):
            # delete row `col` of the next differential
            nxt = diffs[step + 1]
            diffs[step + 1] = [[c[r] for r in range(len(c)) if r != col] for c in nxt]
        if step - 1 >= 0:
            # delete column `row` of the previous differential
            prev = diffs[step - 1]
            diffs[step - 1] = [prev[j] for j in range(len(prev)) if j != row]


def _minimal_generators(free: FreeModule, cols: Sequence[Column]) -> Tuple[Column, ...]:
    """Greedy minimal generating subset: sorted by (weight, index), a column
    is dropped iff it lies in the span of the kept ones (graded Nakayama)."""
    order = sorted(
        range(len(cols)),
        key=lambda j: (free.column_degree(cols[j])[1], j),
    )
    kept: List[Column] = []
    for j in order:
        if not (kept and submodule_contains(free, tuple(kept), cols[j])):
            kept.append(cols[j])
    return tuple(kept)


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def minimal_free_resolution(module: ModulePresentation) -> Resolution:
    """Minimal graded free resolution.

    Iterated minimal syzygies stop within #vars + 1 steps (Hilbert syzygy
    theorem + Nakayama at every step), so running past that is a bug.
    """
    shifts: List[Tuple[List[Degree], List[int]]] = [
        (list(module.mdeg_shifts), list(module.weight_shifts))
    ]
    diffs: List[List[List[Polynomial]]] = []

    current = tuple(c for c in module.relations if not _column_is_zero(c))
    current_free = module.free()
    step = 0
    while current:
        if step > module.ring.nvars:
            raise AssertionError("resolution longer than the syzygy theorem allows")
        syz_free, syz = syzygy_basis(current_free, current)
        shifts.append((list(syz_free.mdeg_shifts), list(syz_free.weight_shifts)))
        diffs.append([list(c) for c in current])
        current = _minimal_generators(syz_free, syz)
        current_free = syz_free
        step += 1

    _prune_complex(shifts, diffs)
    # drop trailing zero steps
    while diffs and not diffs[-1]:
        if len(shifts[-1][0]) == 0:
            shifts.pop()
            diffs.pop()
        else:
            break
    out_shifts = tuple((tuple(md), tuple(w)) for md, w in shifts)
    out_diffs = tuple(tuple(tuple(col) for col in mat) for mat in diffs)
    return Resolution(module, out_shifts, out_diffs)


def check_complex(res: Resolution) -> bool:
    """d_{i-1} o d_i = 0 for all i (test/certificate helper)."""
    for i in range(1, len(res.differentials)):
        prev = res.differentials[i - 1]
        rank_out = res.rank(i - 1)
        for col in res.differentials[i]:
            img = _apply_matrix(res.module.ring, rank_out, prev, col)
            if not _column_is_zero(img):
                return False
    return True


# ---------------------------------------------------------------------------
# invariants of the initial module
#
# F/U and F/in(U) have the same Hilbert function (Macaulay; Eisenbud,
# Commutative Algebra, Thm 15.3), and in(U) is the direct sum over the
# components c of J_c e_c, J_c the monomial ideal of c's lead terms.


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _relations_gb(module: ModulePresentation) -> GroebnerBasis:
    rels = tuple(c for c in module.relations if not _column_is_zero(c))
    return groebner_module(module.free(), rels)


def _unit_lead_components(module: ModulePresentation) -> FrozenSet[int]:
    """Components c with e_c itself a lead term, i.e. J_c = P.  None, and no
    basis built, when no relation entry has a constant term: then U lies in
    mF, m the ideal of the variables, and no element of U has one."""
    if not any(not any(e) for col in module.relations for entry in col for e, _ in entry.terms):
        return frozenset()
    return frozenset(c for c, exps in _relations_gb(module).lead_terms if not any(exps))


def is_zero_module(module: ModulePresentation) -> bool:
    return len(_unit_lead_components(module)) == module.rank


def v_of(module: ModulePresentation) -> Degree:
    """Coordinatewise min of the minimal generator multidegrees.

    The e_c without a unit lead term form a minimal generating set.  This
    needs every variable weight positive: then, at equal weight, degrevlex
    puts a zero-exponent term above every term with a positive exponent, so
    the constant part of any homogeneous element of U leads it, and the unit
    lead terms span the image of U in F/mF, m the ideal of the variables.
    """
    units = _unit_lead_components(module)
    gens = [d for c, d in enumerate(module.mdeg_shifts) if c not in units]
    if not gens:
        raise InputError("v is undefined for the zero module")
    return reduce(deg_min, gens)


def krull_dim(module: ModulePresentation) -> int:
    """max over the components c of dim P/J_c; -1 for the zero module.  Kept
    on the relations' basis (`GroebnerBasis.krull_dim`), so it lives as long
    as the basis cache keeps that basis."""
    return _relations_gb(module).krull_dim


@dataclass(frozen=True)
class InvariantRecord:
    dim: int
    depth: int
    pd: int
    cm: bool
    is_zero: bool


def is_cohen_macaulay(module: ModulePresentation) -> InvariantRecord:
    if is_zero_module(module):
        return InvariantRecord(-1, -1, -1, True, True)
    nvars = module.ring.nvars
    pd = minimal_free_resolution(module).length
    depth = nvars - pd
    dim = krull_dim(module)
    if not (0 <= depth <= dim <= nvars):
        raise AssertionError(f"invariant violation: depth={depth} dim={dim} nvars={nvars}")
    return InvariantRecord(dim, depth, pd, dim == depth, False)


# ---------------------------------------------------------------------------
# graded pieces


def standard_monomials(
    module: ModulePresentation, n: Degree, weight: Optional[int] = None
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Standard monomials (component, exponents) of multidegree n, lazily.

    A monomial is standard when no lead term of the relation basis divides
    it.  With a weight, every variable is walked under the weight budget.
    Without one, the multidegree-0 variables are held at 0; a lead term that
    involves one of them never divides such a monomial, and the
    multidegree-n layer is nonzero iff one of them is standard, so a caller
    may stop at the first hit.

    The walk goes through the ring's `blocks` of variables of equal degree
    and weight, on a plan that `_walk_plan` builds once per relations basis
    and mode (held or weighted) and the basis keeps.  The held variables
    form the last blocks; they are not walked, and without a weight the
    ring's count table holds them at 0 too, so the held case needs no table
    of its own.  At each block the walk
    takes only the totals that `GradedRing.block_totals` allows, those after
    which the count table says the later blocks can still be filled
    exactly, and it lists the compositions of that total over the block's
    variables, the last variable taking what is left.  So no branch runs
    dry for want of degree, and one cut remains; it is exact, so the output
    is the same as filtering every exponent vector of degree n:

    - Prefix divisibility: a lead term is tested once its last walked
      variable, in block order, is assigned, including a block's forced
      last variable.  If it divides the prefix it divides every completion,
      and every larger exponent of that variable, so the rest of the loop is
      cut.  A lead term of support 0 divides everything and empties its
      component.

    Every leaf has degree n and has been tested against every lead term
    outside the held variables, so it is yielded without a check.  The
    order of the output is not the term order; `piece_basis` sorts.
    """
    ring = module.ring
    if len(n) != ring.rank:
        raise InputError("degree rank mismatch")
    gb = _relations_gb(module)
    held = weight is None
    plan = gb.walk_plans.get(held)
    if plan is None:
        plan = gb.walk_plans[held] = _walk_plan(gb, held)
    order, block_of, closes, comp_buckets = plan
    end = len(order)
    exps = [0] * ring.nvars

    def walk(pos: int, left: int, rem_m: Degree, rem_w: Optional[int], buckets):
        """Assign order[pos] from the `left` of its block's total; at a block
        start (left < 0), pick the block's total first."""
        if pos == end:
            yield tuple(exps)
            return
        if left < 0:
            for s, m, w in ring.block_totals(block_of[pos], rem_m, rem_w):
                yield from walk(pos, s, m, w, buckets)
            return
        v = order[pos]
        ending = buckets[pos]
        if closes[pos]:
            exps[v] = left
            if not any(all(exps[u] >= k for u, k in lt) for lt in ending):
                yield from walk(pos + 1, -1, rem_m, rem_w, buckets)
        else:
            for e in range(left + 1):
                exps[v] = e
                if any(all(exps[u] >= k for u, k in lt) for lt in ending):
                    break
                yield from walk(pos + 1, left - e, rem_m, rem_w, buckets)
        exps[v] = 0

    for comp, buckets in enumerate(comp_buckets):
        target_m = deg_sub(n, module.mdeg_shifts[comp])
        target_w = None if weight is None else weight - module.weight_shifts[comp]
        if any(x < 0 for x in target_m) or (target_w is not None and target_w < 0):
            continue
        if not ring.count_from(0, target_m, target_w):
            continue
        if buckets is not None:
            for mono in walk(0, -1, target_m, target_w, buckets):
                yield comp, mono


def _walk_plan(gb: GroebnerBasis, held: bool):
    """What `standard_monomials` walks over the basis, built once per mode
    and kept in `gb.walk_plans`: the walked variables in block order, the
    ring block of each position, whether the position closes its block, and
    per component its lead terms as (variable, exponent) supports, listed
    under the position of their last walked variable, or None when one of
    them is 1 and the component is empty."""
    blocks = gb.free.ring.blocks
    if held:
        # the held blocks come last, so the walked ones keep their indices
        blocks = tuple(b for b in blocks if any(b[0][0]))
    order = tuple(v for _dw, vs in blocks for v in vs)
    slot = {v: pos for pos, v in enumerate(order)}
    block_of = tuple(i for i, (_dw, vs) in enumerate(blocks) for _v in vs)
    closes = tuple(j == len(vs) - 1 for _dw, vs in blocks for j in range(len(vs)))
    comp_buckets: List[Optional[List[List[Tuple[Tuple[int, int], ...]]]]] = [
        [[] for _ in order] for _ in range(gb.free.rank)]
    for c, lt in gb.lead_terms:
        buckets = comp_buckets[c]
        support = tuple((v, k) for v, k in enumerate(lt) if k)
        if buckets is None or any(v not in slot for v, _k in support):
            continue
        if not support:
            comp_buckets[c] = None
        else:
            buckets[max(slot[v] for v, _k in support)].append(support)
    return order, block_of, closes, tuple(comp_buckets)


def _refuse_weightless_base(ring: GradedRing, weight: Optional[int]) -> None:
    if weight is None and not ring.is_field_base():
        raise InputError(
            "piece is an infinite-dimensional base-module; pass a weight slice"
        )


@lru_cache(maxsize=None)
def piece_basis(
    module: ModulePresentation, n: Degree, weight: Optional[int] = None
) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Standard monomial basis (component, exponents) of the (n[, weight]) piece.

    Without a weight the ambient must have no multidegree-0 variables, else
    the piece is not finite-dimensional and we refuse to sum over weights.
    """
    ring = module.ring
    _refuse_weightless_base(ring, weight)
    out = list(standard_monomials(module, n, weight))
    out.sort(key=lambda t: (t[0], ring.term_sort_key(t[1])))
    return tuple(out)


def graded_piece_dim(module: ModulePresentation, n: Sequence[int], weight: Optional[int] = None) -> int:
    """Exact k-dimension of the degree-n (optionally weight-sliced) piece,
    counted without listing it: the piece of F/in(U) = (+)_c P/J_c e_c has
    dimension sum_c sum_a k_a * #monomials of degree (n - shift_c - a), over
    the terms k_a t^a of the K-polynomial of P/J_c.  Same refusals as
    `piece_basis`."""
    ring = module.ring
    _refuse_weightless_base(ring, weight)
    n = tuple(int(x) for x in n)
    if len(n) != ring.rank:
        raise InputError("degree rank mismatch")
    count = ring.monomial_count
    total = 0
    for terms, m, w in zip(_relations_gb(module).hilbert_numerators,
                           module.mdeg_shifts, module.weight_shifts):
        m = deg_sub(n, m)
        w = None if weight is None else weight - w
        for a, aw, k in terms:
            total += k * count(deg_sub(m, a), None if w is None else w - aw)
    return total


# ---------------------------------------------------------------------------
# duality


def _dual_twist(ring: GradedRing) -> Tuple[Degree, int]:
    m = deg_zero(ring.rank)
    w = 0
    for d, wt in zip(ring.degrees, ring.weights):
        m = deg_add(m, d)
        w += wt
    return m, w


def _transpose_columns(matrix: Sequence[Column], nrows: int) -> Tuple[Column, ...]:
    """Columns of the transpose: one per row of the original."""
    cols = []
    for r in range(nrows):
        cols.append(tuple(col[r] for col in matrix))
    return tuple(cols)


def _zero_presentation(ring: GradedRing) -> ModulePresentation:
    return ModulePresentation(ring, (), (), ())


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def ext_dual_module(module: ModulePresentation, i: int) -> ModulePresentation:
    """Presentation of Ext^i(M, P(-w_total)), the graded dual of local
    cohomology at the maximal graded ideal in complementary index.

    D^j = Hom(F_j, P(-w_total)), mapped by the transposed differentials.
    Nothing leaves D^pd, so Ext^pd is the cokernel of the transposed d_pd,
    presented by its nonzero columns as they are.  Below pd, K = ker(D^i ->
    D^{i+1}) on generators k_j, and the relations of K/image are the kernel
    of e_j |-> k_j into D^i/image: one `modulo` basis, in place of syzygies
    plus a lift per image column.  That the image lies in K is checked."""
    ring = module.ring
    if i < 0 or i > ring.nvars:
        raise InputError(f"ext index {i} out of range 0..{ring.nvars}")
    res = minimal_free_resolution(module)
    if res.rank(0) == 0 or i > res.length:
        return _zero_presentation(ring)
    cm, cw = _dual_twist(ring)

    def dual_shifts(j: int) -> Tuple[Tuple[Degree, int], ...]:
        md, w = res.shifts[j]
        return tuple((deg_sub(cm, s), cw - x) for s, x in zip(md, w))

    image: Tuple[Column, ...] = ()
    if i >= 1:
        image = tuple(c for c in _transpose_columns(res.differentials[i - 1], res.rank(i - 1))
                      if not _column_is_zero(c))
    quotient = presentation(ring, dual_shifts(i), image)  # D^i / image
    if i == res.length:
        return quotient
    delta_next = _transpose_columns(res.differentials[i], res.rank(i))
    for col in image:
        if not _column_is_zero(_apply_matrix(ring, res.rank(i + 1), delta_next, col)):
            raise AssertionError("image does not lie in kernel (not a complex?)")
    d_i = quotient.free()
    kernel = module_kernel(d_i, delta_next, free_presentation(ring, dual_shifts(i + 1)))
    if not kernel:
        return _zero_presentation(ring)
    gen_degs = tuple(d_i.column_degree(c) for c in kernel)
    relations = module_kernel(free_module(ring, gen_degs), kernel, quotient)
    return presentation(ring, gen_degs, relations)


def a_invariant(module: ModulePresentation) -> Degree:
    """a_j(M) = max top-local-cohomology degree in coordinate j, computed as
    -(min generator multidegree coordinate j) of the dual Ext module.  For a
    Cohen-Macaulay M its index nvars - dim is pd, where Ext is a cokernel
    that takes no basis to present, and v_of takes none either when no
    relation entry has a constant term."""
    rec = is_cohen_macaulay(module)
    if rec.is_zero:
        raise InputError("a-invariant of the zero module")
    return deg_neg(v_of(ext_dual_module(module, module.ring.nvars - rec.dim)))


# ---------------------------------------------------------------------------
# grade


def grade_of(ideal_gens: Sequence[Polynomial]) -> Optional[int]:
    """grade(I, P) of I = (ideal_gens) on its polynomial ring P; None when I = P.

    P is Cohen-Macaulay, so grade(I, P) = ht I = nvars - dim P/I
    (Bruns-Herzog, Cohen-Macaulay Rings, Cor. 2.1.4), and krull_dim reads
    dim P/I off the initial ideal, which has the same Hilbert function.  Both
    steps hold only over the positively weighted polynomial rings that the
    public constructors build; this is not the grade on a module or over a
    quotient ring.
    """
    gens = tuple(g for g in ideal_gens if not g.is_zero())
    if not gens:
        raise InputError("grade of the zero ideal")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise InputError("ideal and module over different rings")
    dim = krull_dim(cyclic_presentation(ring, gens))
    return None if dim < 0 else ring.nvars - dim
