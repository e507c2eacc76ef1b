"""Rees and multi-Rees presentations over graded-local bases.

Blows up a list of ideals into a polynomial ambient (one new variable per
ideal generator, multidegree e_j, weight inherited from the generator).
One routine, `_blow_up`, builds the graph T - image * t of the substitution
in a ring with internal tag variables t, places it on every generator of a
module, and eliminates the tags once from it together with the module's
relations; every column it returns is checked by substituting the images
back.  Every construction returns a plain `ModulePresentation`: the
multi-Rees algebra is the Rees module of the cyclic free module, and the
regraded module of the irrelevant ideal used by the vanishing checks
differs from a Rees module only in how it grades the tag ring.
Layered on top: the diagonal, taken from a module and its ideals as the
Rees module of their product, and fiber cones with their analytic spread.
"""

from dataclasses import replace
from functools import lru_cache
from typing import List, Sequence, Tuple

from .graded_poly import (
    GradedRing,
    InputError,
    Polynomial,
    deg_add,
    deg_zero,
    substitute,
)
from .groebner_engine import (
    BASIS_CACHE_SIZE,
    ModulePresentation,
    basis_multiples,
    eliminate_module,
    free_module,
    free_presentation,
    groebner_module,
    ideal_power_product,
    presentation,
    submodule_contains,
)
from .homological import graded_piece_dim, krull_dim, piece_basis
from .cohomology import irrelevant_support, matrix_rank


# ---------------------------------------------------------------------------
# validation and naming


def _check_blocks(base: GradedRing, ideals) -> Tuple[Tuple[Polynomial, ...], ...]:
    ideals = tuple(ideals)
    if not ideals:
        raise InputError("need at least one ideal")
    blocks = []
    for gens in ideals:
        gens = tuple(gens)
        if not gens:
            raise InputError("ideal needs at least one generator")
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != base:
                raise InputError("ideal generator outside the base ring")
            if g.is_zero():
                raise InputError("zero ideal generator")
            g.degree_pair()
        blocks.append(gens)
    return tuple(blocks)


def _grade_gate(blocks, refusal: str = "unit ideal cannot be blown up"):
    """Refuse to blow up the unit ideal; every other ideal here has grade at
    least 1, so no basis is needed to tell.

    `_check_blocks` has refused zero and inhomogeneous generators (those of
    the irrelevant ideal are variable products), and every variable of a
    public ring has weight at least 1.  So a generator of
    weight 0 is a nonzero constant, and the ideal is the unit ideal.  If
    every generator has positive weight, every term of every generator has a
    variable, so the ideal lies in the ideal of the variables and is proper;
    being nonzero in the domain P, it contains a nonzerodivisor on P and has
    grade at least 1 (Bruns-Herzog, Cohen-Macaulay Rings, Sec. 1.2)."""
    if any(g.degree_pair()[1] == 0 for gens in blocks for g in gens):
        raise InputError(refusal)


def _fresh(taken, stem: str) -> str:
    nm = stem
    while nm in taken:
        nm += "x"
    return nm


def _tvar_names(taken, blocks) -> Tuple[Tuple[str, ...], ...]:
    total = sum(len(b) for b in blocks)
    letters = [c for c in "TUVWXYZ" if c not in taken]
    if total <= len(letters):
        flat = letters[:total]
    else:
        flat = []
        i = 1
        while len(flat) < total:
            nm = f"T{i}"
            if nm not in taken and nm not in flat:
                flat.append(nm)
            i += 1
    out = []
    pos = 0
    for b in blocks:
        out.append(tuple(flat[pos : pos + len(b)]))
        pos += len(b)
    return tuple(out)


# ---------------------------------------------------------------------------
# the blow-up


def _blow_up(
    M: ModulePresentation, blocks, base_degrees, block_degrees, tag_degrees, shifts
) -> ModulePresentation:
    """Image of M under T -> g * t_j for the generators g of block j.

    The tag ring holds M's variables in `base_degrees`, one new variable T
    per generator in its block's degree (`block_degrees`, weight of g) and
    one tag t_j per block in `tag_degrees` (weight 0).  The graph T - g * t_j
    is placed on every generator of M and the tags are eliminated once from
    it together with M's relations.  Every returned column is checked by
    substituting the images back: it must lie in the span of M's relations
    over the tag ring, so it must vanish when M is free."""
    base = M.ring
    taken = set(base.names)
    tnames = _tvar_names(taken, blocks)
    taken.update(nm for blk in tnames for nm in blk)
    tags: List[str] = []
    for j in range(len(blocks)):
        tags.append(_fresh(taken, f"t{j + 1}"))
        taken.add(tags[-1])
    names = list(base.names) + [nm for blk in tnames for nm in blk] + tags
    degrees = list(base_degrees) + [d for blk, d in zip(tnames, block_degrees) for _ in blk]
    weights = list(base.weights) + [g.degree_pair()[1] for gens in blocks for g in gens]
    tag_ring = GradedRing(base.field, names, degrees + list(tag_degrees),
                          weights + [0] * len(tags), _allow_zero_weight=True)
    images = {nm: substitute(g, tag_ring, {}) * tag_ring.var(tag)
              for tag, gens, blk in zip(tags, blocks, tnames) for g, nm in zip(gens, blk)}
    free = free_module(tag_ring, shifts)
    rels = tuple(tuple(substitute(e, tag_ring, {}) for e in col) for col in M.relations)
    cols = list(rels)
    for nm, image in images.items():
        cols.extend(basis_multiples(tag_ring.var(nm) - image, M.rank))
    subfree, kernel = eliminate_module(free, cols, tags)
    for col in kernel:
        back = tuple(substitute(e, tag_ring, images) for e in col)
        if not submodule_contains(free, rels, back):
            raise AssertionError("Rees relation fails the tag substitution check")
    return presentation(subfree.ring, shifts, kernel)


# ---------------------------------------------------------------------------
# multi-Rees algebras


def multi_rees_algebra_presentation(base: GradedRing, ideals) -> ModulePresentation:
    """Presentation of the blow-up algebra of the given ideals of the base:
    the Rees module of the cyclic free module.  Its ring holds the base
    variables (multidegree zero) plus one variable per ideal generator, in
    multidegree e_j for the j-th ideal with the weight of its generator."""
    blocks = _check_blocks(base, ideals)
    return _rees_module(free_presentation(base, ((deg_zero(base.rank), 0),)), blocks)


# ---------------------------------------------------------------------------
# multi-Rees modules


def rees_module_presentation(N: ModulePresentation, ideals) -> ModulePresentation:
    """Presentation of the image of N under blowing up the given ideals.

    Generators track those of N (multidegree zero, weights preserved);
    relations come from eliminating the tag variables out of the graph of
    the substitution together with N's own relations.
    """
    return _rees_module(N, _check_blocks(N.ring, ideals))


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _rees_module(N: ModulePresentation, blocks) -> ModulePresentation:
    if any(any(d) for d in N.ring.degrees):
        raise InputError("Rees base must be graded-local: variable multidegrees all zero")
    _grade_gate(blocks)
    if any(any(d) for d in N.mdeg_shifts):
        raise InputError("module generators must sit in multidegree zero over the base")
    r = len(blocks)
    units = [tuple(int(x == j) for x in range(r)) for j in range(r)]
    shifts = tuple((deg_zero(r), w) for w in N.weight_shifts)
    return _blow_up(N, blocks, [deg_zero(r)] * N.ring.nvars, units, units, shifts)


def rees_piece_oracle(
    N: ModulePresentation, ideals, n: Sequence[int], weight: int
) -> int:
    """Independent count: dim of the weight slice of I_1^{n_1} ... I_r^{n_r} N,
    computed over the base from generator products and standard monomials."""
    base = N.ring
    blocks = _check_blocks(base, ideals)
    n = tuple(int(x) for x in n)
    if len(n) != len(blocks):
        raise InputError("one exponent per ideal")
    if any(x < 0 for x in n):
        return 0
    prod = ideal_power_product(blocks, n)
    origin = deg_zero(base.rank)
    total = graded_piece_dim(N, origin, weight)
    if prod == (base.one(),):
        return total
    cols = list(N.relations)
    for f in prod:
        cols.extend(basis_multiples(f, N.rank))
    quotient = presentation(
        base, tuple(zip(N.mdeg_shifts, N.weight_shifts)), cols
    )
    return total - graded_piece_dim(quotient, origin, weight)


# ---------------------------------------------------------------------------
# diagonals


DIAGONAL_WINDOW = 2


def diagonal_of(N: ModulePresentation, ideals):
    """Rees module of N over the product of the ideals, with a window certificate.

    Returns (value, certificate): the certificate lists (n, weight, dim)
    triples, n = 0..DIAGONAL_WINDOW, on which the diagonal's graded pieces
    were checked against the multi-Rees module of N at (n, ..., n).  A
    mismatch raises AssertionError since the identity is exact; for a single
    ideal the Rees module itself is returned with an empty certificate.
    """
    blocks = _check_blocks(N.ring, ideals)
    mod = _rees_module(N, blocks)
    r = len(blocks)
    if r == 1:
        return mod, ()
    prod = ideal_power_product(blocks, (1,) * r)
    value = rees_module_presentation(N, (prod,))
    wshifts = N.weight_shifts or (0,)
    wmax = max(g.degree_pair()[1] for blk in blocks for g in blk)
    wlo = min(0, min(wshifts))
    whi = DIAGONAL_WINDOW * wmax + max(0, max(wshifts)) + 1
    entries = []
    for nd in range(DIAGONAL_WINDOW + 1):
        for w in range(wlo, whi + 1):
            dd = graded_piece_dim(value, (nd,), w)
            xx = graded_piece_dim(mod, (nd,) * r, w)
            if dd != xx:
                raise AssertionError(
                    f"diagonal certificate failed at n={nd} weight={w}: {dd} != {xx}"
                )
            entries.append((nd, w, dd))
    return value, tuple(entries)


# ---------------------------------------------------------------------------
# fiber cones


def fiber_cone_spread(ideal_gens) -> int:
    """Analytic spread: dimension of the Rees fiber over the base point."""
    gens = tuple(ideal_gens)
    if not gens:
        raise InputError("ideal needs at least one generator")
    base = gens[0].ring
    rees = multi_rees_algebra_presentation(base, (gens,))
    fiber = rees.relations + tuple((rees.ring.var(nm),) for nm in base.names)
    return krull_dim(replace(rees, relations=fiber))


# ---------------------------------------------------------------------------
# the regraded module of the irrelevant ideal


def irrelevant_rees(M: ModulePresentation) -> ModulePresentation:
    """Blow-up of the irrelevant ideal with M as coefficients.

    The module's ring extends the source grading by one coordinate: old
    variables keep their multidegree with a zero appended, the new variables
    sit in degree (0, ..., 0, 1).  Graded pieces at (n; k) match the span of
    M_n times the degree-(k, ..., k) part of the source ring.
    """
    S = M.ring
    gens = irrelevant_support(S).generators
    _grade_gate((gens,), "irrelevant ideal must have positive grade")
    r = S.rank
    shifts = tuple(
        (tuple(d) + (0,), w) for d, w in zip(M.mdeg_shifts, M.weight_shifts)
    )
    return _blow_up(
        M, (gens,), [tuple(d) + (0,) for d in S.degrees], [deg_zero(r) + (1,)],
        [tuple(-1 for _ in range(r)) + (1,)], shifts,
    )


def irrelevant_piece_oracle(M: ModulePresentation, n: Sequence[int], k: int) -> int:
    """Independent count of the (n; k) piece of `irrelevant_rees(M)`: rank of
    the multiplication span of the degree-(k, ..., k) monomials against the
    degree-n basis of M."""
    if k < 0:
        raise InputError("negative power")
    S = M.ring
    if not S.is_field_base():
        raise InputError("weightless piece oracle needs a field base")
    n = tuple(int(x) for x in n)
    if k == 0:
        return graded_piece_dim(M, n)
    kone = tuple(k for _ in range(S.rank))
    tgt = piece_basis(M, deg_add(n, kone))
    if not tgt:
        return 0
    src = piece_basis(M, n)
    if not src:
        return 0
    smonos = piece_basis(free_presentation(S, ((deg_zero(S.rank), 0),)), kone)
    index = {t: i for i, t in enumerate(tgt)}
    gb = groebner_module(M.free(), M.relations)
    rows = [[S.field.zero] * (len(src) * len(smonos)) for _ in range(len(tgt))]
    ci = 0
    for comp, exps in src:
        for _, sexps in smonos:
            red = gb.reduce({(comp, tuple(a + b for a, b in zip(exps, sexps))): S.field.one})
            for t, c in red.items():
                rows[index[t]][ci] = c
            ci += 1
    return matrix_rank(S.field, rows)
