"""Rees and multi-Rees presentations over graded-local bases.

Blows up a list of ideals into a polynomial ambient (one new variable per
ideal generator, multidegree e_j, weight inherited from the generator).
One routine builds the graph T - image * t of the substitution in a ring
with internal tag variables t and eliminates the tags: from the graph alone
for the defining relations, and from the graph on every generator of a
module plus that module's relations for its Rees module.  The multi-Rees
construction and the regraded module of the irrelevant ideal used by the
vanishing checks differ only in how they grade the tag ring.  Layered on
top: the diagonal, taken from a module and its ideals as the Rees module
of their product, and fiber cones with their analytic spread.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .graded_poly import (
    GradedRing,
    InputError,
    Polynomial,
    deg_add,
    deg_zero,
    substitute,
)
from .groebner_engine import (
    ModulePresentation,
    basis_multiples,
    cyclic_presentation,
    eliminate,
    eliminate_module,
    free_module,
    free_presentation,
    groebner_module,
    ideal_power_product,
    presentation,
)
from .homological import grade_of, graded_piece_dim, krull_dim, piece_basis
from .cohomology import irrelevant_support, matrix_rank


# ---------------------------------------------------------------------------
# validation and naming


def _check_base(base: GradedRing):
    for d in base.degrees:
        if any(x != 0 for x in d):
            raise InputError(
                "Rees base must be graded-local: variable multidegrees all zero"
            )


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


def _grade_gate(blocks, unit: str = "unit ideal cannot be blown up",
                zero: str = "ideal has grade zero on the base"):
    """Refuse to blow up an ideal that is the unit ideal or has grade zero."""
    for gens in blocks:
        g = grade_of(gens)
        if g is None:
            raise InputError(unit)
        if g < 1:
            raise InputError(zero)


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
# multi-Rees algebras


@dataclass(frozen=True)
class ReesPresentation:
    """Blown-up presentation of a multi-Rees algebra.

    `ambient` is a polynomial ring on the base variables (multidegree zero)
    plus one variable per ideal generator, carrying multidegree e_j for the
    j-th ideal and the weight of its generator.  `defining` generates the
    relations among the new variables over the base.
    """

    base: GradedRing
    blocks: Tuple[Tuple[Polynomial, ...], ...]
    ambient: GradedRing
    defining: Tuple[Polynomial, ...]
    rank: int

    def as_module(self) -> ModulePresentation:
        return cyclic_presentation(self.ambient, self.defining)


@dataclass(frozen=True)
class _Graph:
    """Graph of T -> image * t in the tag ring, and its tag-free part.

    `relations` holds T - image * t for every new variable T, with t the tag
    of T's block; `ambient` and `defining` are what survives eliminating the
    tags from those relations."""

    tag_ring: GradedRing
    tags: Tuple[str, ...]
    relations: Tuple[Polynomial, ...]
    ambient: GradedRing
    defining: Tuple[Polynomial, ...]


def _eliminate_tags(tag_ring: GradedRing, tags, blocks, tnames) -> _Graph:
    """Graph of T -> g * t_j for the generators g of block j, named by
    tnames[j], with the tags eliminated; every surviving relation is
    checked by substituting the images back."""
    images: Dict[str, Polynomial] = {}
    for tag, gens, blk in zip(tags, blocks, tnames):
        tpoly = tag_ring.var(tag)
        for g, nm in zip(gens, blk):
            images[nm] = substitute(g, tag_ring, {}) * tpoly
    graph = tuple(tag_ring.var(nm) - image for nm, image in images.items())
    ambient, defining = eliminate(tag_ring, graph, tuple(tags))
    for h in defining:
        if not substitute(h, tag_ring, images).is_zero():
            raise AssertionError("Rees relation fails the tag substitution check")
    return _Graph(tag_ring, tuple(tags), graph, ambient, defining)


def _graph_module(graph: _Graph, M: ModulePresentation, shifts) -> ModulePresentation:
    """Image of M under the blow-up: M's relations plus the graph placed on
    every generator, with the tags eliminated, over the ambient."""
    tag_ring = graph.tag_ring
    cols = [tuple(substitute(e, tag_ring, {}) for e in col) for col in M.relations]
    for g in graph.relations:
        cols.extend(basis_multiples(g, M.rank))
    _, kernel = eliminate_module(free_module(tag_ring, shifts), cols, graph.tags)
    return presentation(graph.ambient, shifts, kernel)


def _unit_vector(j: int, r: int) -> Tuple[int, ...]:
    return tuple(1 if x == j else 0 for x in range(r))


@lru_cache(maxsize=None)
def _rees_plan(base: GradedRing, blocks) -> Tuple[ReesPresentation, _Graph]:
    _check_base(base)
    _grade_gate(blocks)
    r = len(blocks)
    taken = set(base.names)
    tnames = _tvar_names(taken, blocks)
    taken.update(nm for blk in tnames for nm in blk)
    tags: List[str] = []
    for j in range(r):
        nm = _fresh(taken, f"t{j + 1}")
        tags.append(nm)
        taken.add(nm)

    names = list(base.names)
    degrees: List[Tuple[int, ...]] = [deg_zero(r) for _ in base.names]
    weights = list(base.weights)
    for j, (gens, blk) in enumerate(zip(blocks, tnames)):
        ej = _unit_vector(j, r)
        for g, nm in zip(gens, blk):
            names.append(nm)
            degrees.append(ej)
            weights.append(g.degree_pair()[1])
    for j, nm in enumerate(tags):
        names.append(nm)
        degrees.append(_unit_vector(j, r))
        weights.append(0)
    tag_ring = GradedRing(base.field, names, degrees, weights, _allow_zero_weight=True)
    graph = _eliminate_tags(tag_ring, tags, blocks, tnames)
    rees = ReesPresentation(base, blocks, graph.ambient, graph.defining, r)
    return rees, graph


def multi_rees_algebra_presentation(base: GradedRing, ideals) -> ReesPresentation:
    """Presentation of the blow-up algebra of the given ideals of the base."""
    blocks = _check_blocks(base, ideals)
    return _rees_plan(base, blocks)[0]


# ---------------------------------------------------------------------------
# multi-Rees modules


def rees_module_presentation(N: ModulePresentation, ideals) -> ModulePresentation:
    """Presentation of the image of N under blowing up the given ideals.

    Generators track those of N (multidegree zero, weights preserved);
    relations come from eliminating the tag variables out of the graph of
    the substitution together with N's own relations.
    """
    return _rees_module(N, _check_blocks(N.ring, ideals))


@lru_cache(maxsize=None)
def _rees_module(N: ModulePresentation, blocks) -> ModulePresentation:
    rees, graph = _rees_plan(N.ring, blocks)
    for d in N.mdeg_shifts:
        if any(x != 0 for x in d):
            raise InputError("module generators must sit in multidegree zero over the base")
    shifts = tuple((deg_zero(rees.rank), w) for w in N.weight_shifts)
    return _graph_module(graph, N, shifts)


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


def diagonal_of(N: ModulePresentation, ideals, window: int = 2):
    """Rees module of N over the product of the ideals, with a window certificate.

    Returns (value, certificate): the certificate lists (n, weight, dim)
    triples on which the diagonal's graded pieces were checked against the
    multi-Rees module of N at (n, ..., n).  A mismatch raises AssertionError
    since the identity is exact; for a single ideal the Rees module itself is
    returned with an empty certificate.
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
    whi = window * wmax + max(0, max(wshifts)) + 1
    entries = []
    for nd in range(window + 1):
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
    amb = rees.ambient
    rels = list(rees.defining)
    for nm in base.names:
        rels.append(amb.var(nm))
    return krull_dim(cyclic_presentation(amb, tuple(rels)))


# ---------------------------------------------------------------------------
# the regraded module of the irrelevant ideal


@dataclass(frozen=True)
class IrrelevantReesModule:
    """Blow-up of the irrelevant ideal with M as coefficients.

    The ambient ring extends the source grading by one coordinate: old
    variables keep their multidegree with a zero appended, the new variables
    sit in degree (0, ..., 0, 1).  Graded pieces at (n; k) match the span of
    M_n times the degree-(k, ..., k) part of the source ring.
    """

    source: ModulePresentation
    ambient: GradedRing
    algebra_relations: Tuple[Polynomial, ...]
    module: ModulePresentation


def irrelevant_rees(M: ModulePresentation) -> IrrelevantReesModule:
    S = M.ring
    gens = irrelevant_support(S).generators
    refusal = "irrelevant ideal must have positive grade"
    _grade_gate((gens,), unit=refusal, zero=refusal)
    r = S.rank
    taken = set(S.names)
    tnames = _tvar_names(taken, (gens,))[0]
    taken.update(tnames)
    tag = _fresh(taken, "t")

    names = list(S.names) + list(tnames) + [tag]
    degrees = [tuple(d) + (0,) for d in S.degrees]
    tdeg = deg_zero(r) + (1,)
    degrees.extend(tdeg for _ in tnames)
    degrees.append(tuple(-1 for _ in range(r)) + (1,))
    weights = list(S.weights) + [gp.degree_pair()[1] for gp in gens] + [0]
    tag_ring = GradedRing(S.field, names, degrees, weights, _allow_zero_weight=True)
    graph = _eliminate_tags(tag_ring, (tag,), (gens,), (tnames,))

    shifts = tuple(
        (tuple(d) + (0,), w) for d, w in zip(M.mdeg_shifts, M.weight_shifts)
    )
    module = _graph_module(graph, M, shifts)
    return IrrelevantReesModule(M, graph.ambient, graph.defining, module)


def irrelevant_piece_oracle(
    blowup: IrrelevantReesModule, n: Sequence[int], k: int
) -> int:
    """Independent count of the (n; k) piece: rank of the multiplication
    span of the degree-(k, ..., k) monomials against the degree-n basis."""
    if k < 0:
        raise InputError("negative power")
    M = blowup.source
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
