"""Deterministic Buchberger engine for submodules of graded free modules.

Design points, fixed once for the whole package:

  * canonical order: degrevlex on the weight grading refined by variable
    index; module terms tie-break by component (lower index wins);
  * elimination uses a block order (total degree in the eliminated block
    first), which stays a well order even when eliminated tag variables have
    weight 0.  Only the elements free of the eliminated variables are
    interreduced, and elimination bases are not cached: hardly any is asked
    for twice;
  * pair queue ordered by (S-pair weight degree, creation index): fully
    deterministic, sugar = true degree because all inputs are homogeneous.
    Pairs are formed within a component and pruned by the Gebauer-Moeller
    (1988) criteria B_k, M and F, then by the coprime criterion on ideals;
    seeds and S-pairs are reduced only until no lead divides their leading
    term, and `_reduced_basis` reduces every tail once at the end;
  * syzygies, kernels and colons all run through one routine, `_kernel`:
    Singular's `modulo`, a Groebner basis of F (+) A^s with the F block
    dominant, the images riding with unit tails and the relations of a
    quotient F/R with zero tails.  It picks the elements whose lead lies in
    A^s; they have no F part and are the kernel's reduced basis.  With no
    relations one nonzero image has no kernel, since P is a domain, and no
    basis is built.  A colon (U :_F (f_1..f_s)) is the kernel of
    F -> (+)_k F(-deg f_k)/U, e_j |-> (f_k e_j)_k, whose block k lowers F's
    shifts by deg f_k so the map has degree 0; no exact division is
    involved.  `submodules_equal` compares reduced bases, which are unique;
  * a basis keeps one form: the (lead term, vec) pairs Buchberger ends
    with, sorted by lead.  Normal forms, standard-monomial enumeration and
    piece counts read them as they are; syzygies and kernels pick their
    elements by lead term alone, and columns of polynomials are built only
    for what a public function returns.  Bases compare by identity;
  * vec arithmetic runs on plain field values, as `sparse_rank` does: over
    F_p the entries are ints in range(p) and every update reduces with
    x % p inline, over Q they are Fractions under plain arithmetic.  No
    per-term call goes through the field object; `field.inv` is called
    once per monic scaling.

Inhomogeneous generators are rejected.  Every public result is canonically
sorted, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import add, le, mul, neg, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .graded_poly import Degree, GradedRing, InputError, Polynomial, deg_add, deg_sub

Column = Tuple[Polynomial, ...]
Term = Tuple[int, Tuple[int, ...]]  # (component, exponent vector)
Vec = Dict[Term, object]

# One bound for the five caches whose values are Groebner bases or are built
# from them: `groebner_module`, `homological._relations_gb`,
# `minimal_free_resolution`, `ext_dual_module` and
# `rees_constructions._rees_module`.  Unbounded, they held 12.2 of the 13.95
# MB still live at the end of a blowup round (400 Rees modules in one
# process), and `groebner_module` kept 3,092 bases for 3 hits.  Peak RSS and
# misses summed over all caches, one round at seed 7, measured when a sixth
# cache (of syzygy bases) shared the bound:
#
#     bound   blowup peak RSS   blowup misses   corpus/kunneth/dual-route misses
#     none    32.6 MB           6,991           1,122 / 1,364 / 1,796
#     128     22.4 MB           7,446           unchanged
#     256     24.0 MB           7,235           unchanged
#     512     25.9 MB (*)       7,076           unchanged
#
# (*) read in one process, not through the bench.  128 read slower on
# blowup wall time, so 256 it is.  Piece bases, multiplication matrices and
# the colimit's level complexes stay unbounded: they are small, and bounding
# them at 256 added misses on kunneth.  An evicted value is rebuilt exactly,
# because every public result is canonically sorted.
BASIS_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# free modules and presentations


@dataclass(frozen=True)
class FreeModule:
    """Graded free module: one (multidegree, weight) shift per basis element."""

    ring: GradedRing
    mdeg_shifts: Tuple[Degree, ...]
    weight_shifts: Tuple[int, ...]

    def __post_init__(self):
        if len(self.mdeg_shifts) != len(self.weight_shifts):
            raise InputError("shift length mismatch")
        for d in self.mdeg_shifts:
            if len(d) != self.ring.rank:
                raise InputError("shift rank mismatch")

    @property
    def rank(self) -> int:
        return len(self.mdeg_shifts)

    def column_degree(self, col: Column) -> Tuple[Degree, int]:
        """(multidegree, weight) of a nonzero homogeneous column."""
        deg = None
        for i, entry in enumerate(col):
            if entry.is_zero():
                continue
            d, w = entry.degree_pair()
            pair = (deg_add(d, self.mdeg_shifts[i]), w + self.weight_shifts[i])
            if deg is None:
                deg = pair
            elif deg != pair:
                raise InputError("inhomogeneous column")
        if deg is None:
            raise ValueError("zero column has no degree")
        return deg

    def validate_column(self, col: Column) -> Optional[Tuple[Degree, int]]:
        """Check length, ring and homogeneity; the degree, None when zero."""
        if len(col) != self.rank:
            raise InputError(f"column length {len(col)} != rank {self.rank}")
        for entry in col:
            if entry.ring != self.ring:
                raise InputError("column entry from a different ring")
        if any(not e.is_zero() for e in col):
            return self.column_degree(col)
        return None


def free_module(ring: GradedRing, shifts: Sequence[Tuple[Sequence[int], int]]) -> FreeModule:
    """shifts: sequence of (multidegree shift, weight shift)."""
    return FreeModule(
        ring,
        tuple(tuple(int(x) for x in d) for d, _ in shifts),
        tuple(int(w) for _, w in shifts),
    )


@dataclass(frozen=True)
class ModulePresentation:
    """Cokernel presentation: free module on the shifts, modulo the columns.

    The zero module is rank 0 with no relations.  Relations are columns of
    the free module; each must be homogeneous.
    """

    ring: GradedRing
    mdeg_shifts: Tuple[Degree, ...]
    weight_shifts: Tuple[int, ...]
    relations: Tuple[Column, ...]

    def __post_init__(self):
        fm = FreeModule(self.ring, self.mdeg_shifts, self.weight_shifts)
        for col in self.relations:
            fm.validate_column(col)
        # every cache keyed by a module hashes it on each lookup; equality
        # stays by value, so an equal module built again hits them
        object.__setattr__(self, "_hash", hash(
            (self.ring, self.mdeg_shifts, self.weight_shifts, self.relations)))

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.mdeg_shifts)

    def free(self) -> FreeModule:
        return FreeModule(self.ring, self.mdeg_shifts, self.weight_shifts)


def presentation(ring: GradedRing, shifts, relations) -> ModulePresentation:
    return ModulePresentation(
        ring,
        tuple(tuple(int(x) for x in d) for d, _ in shifts),
        tuple(int(w) for _, w in shifts),
        tuple(tuple(col) for col in relations),
    )


def free_presentation(ring: GradedRing, shifts) -> ModulePresentation:
    return presentation(ring, shifts, ())


def cyclic_presentation(ring: GradedRing, polys: Sequence[Polynomial]) -> ModulePresentation:
    """S = ring/(polys) as a cyclic module over the polynomial ring, shift 0.

    This is how a quotient ring enters the package: S and every S-module are
    presented over the polynomial ring, whose depth, dimension and local
    cohomology at the irrelevant ideal agree with those over S.
    """
    shift = ((0,) * ring.rank, 0)
    cols = tuple((p,) for p in polys if not p.is_zero())
    return presentation(ring, (shift,), cols)


def basis_multiples(f: Polynomial, rank: int) -> Tuple[Column, ...]:
    """The columns f*e_0, ..., f*e_{rank-1}; with f = 1, the unit columns."""
    zero = f.ring.zero()
    return tuple(tuple(f if i == j else zero for i in range(rank)) for j in range(rank))


# ---------------------------------------------------------------------------
# term orders on module monomials


class _TermKeys(dict):
    """Term -> key tuple of one order, built on first lookup and kept; a
    bigger key is a bigger term.

    split: first `split` components dominate the rest (syzygy embedding);
    elim: variable indices whose block total degree is compared first.
    One Buchberger run looks up every term's key through one table, so it
    builds each key once.
    """

    __slots__ = ("weights", "wshift", "elimset", "split")

    def __init__(self, free: FreeModule, elim: Tuple[int, ...], split: Optional[int]):
        super().__init__()
        self.weights = free.ring.weights
        self.wshift = free.weight_shifts
        self.elimset = tuple(sorted(elim))
        self.split = split

    def __missing__(self, term: Term):
        c, e = term
        split = self.split
        blockflag = 1 if (split is None or c < split) else 0
        tagdeg = sum(map(e.__getitem__, self.elimset))
        w = sum(map(mul, e, self.weights)) + self.wshift[c]
        k = self[term] = (blockflag, tagdeg, w, tuple(map(neg, reversed(e))), -c)
        return k


# ---------------------------------------------------------------------------
# vec arithmetic


def _col_to_vec(col: Column) -> Vec:
    v: Vec = {}
    for i, entry in enumerate(col):
        for e, c in entry.terms:
            v[(i, e)] = c
    return v


def _vec_to_col(ring: GradedRing, rank: int, v: Vec) -> Column:
    buckets: List[Dict] = [dict() for _ in range(rank)]
    for (i, e), c in v.items():
        buckets[i][e] = c
    return tuple(ring.from_dict(b) for b in buckets)


def _vec_axpy(p: int, target: Vec, coeff, mono: Tuple[int, ...], src: Vec):
    """target -= coeff * x^mono * src   (in place), over the field of
    characteristic p: reduced with % p when p > 0, plain arithmetic on
    Q."""
    get = target.get
    for (c, e), cv in src.items():
        k = (c, tuple(map(add, e, mono)))
        nv = (get(k, 0) - coeff * cv) % p if p else get(k, 0) - coeff * cv
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


def _vec_monic(field, v: Vec, lead: Term) -> Vec:
    lc = v[lead]
    if lc == 1:
        return v
    inv, p = field.inv(lc), field.char
    if p:
        return {t: c * inv % p for t, c in v.items()}
    return {t: c * inv for t, c in v.items()}


def _divides(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _lcm(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(map(max, a, b))


def _reduce_vec(p: int, v: Vec, basis: Sequence[Tuple[Term, Vec]], keyf,
                lead_only: bool = False) -> Vec:
    """Full normal form over the field of characteristic p: leading term
    reduced when possible, otherwise moved to the remainder; reducers are
    scanned in fixed list order.  With lead_only, stop at the first leading
    term no lead divides and return the vec with its tail as it stands."""
    work = dict(v)
    rem: Vec = {}
    while work:
        t = max(work, key=keyf)
        comp, exps = t
        for (lc, lexps), g in basis:
            if lc == comp and _divides(lexps, exps):
                _vec_axpy(p, work, work[t], tuple(map(sub, exps, lexps)), g)
                break
        else:
            if lead_only:
                return work
            rem[t] = work.pop(t)
    return rem


# ---------------------------------------------------------------------------
# Buchberger


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """Reduced, monic basis as (lead term, vec) pairs sorted by lead, with
    the data of its order.  Compared by identity: equal inputs give equal
    `elements`, not equal objects."""

    free: FreeModule
    reducers: Tuple[Tuple[Term, Vec], ...]
    split: Optional[int] = None

    def term_key(self):
        """A key function of the basis's order, with a table of its own."""
        return _TermKeys(self.free, (), self.split).__getitem__

    @property
    def lead_terms(self) -> Tuple[Term, ...]:
        return tuple(lt for lt, _ in self.reducers)

    @property
    def elements(self) -> Tuple[Column, ...]:
        """The elements as columns, built on each access."""
        ring, rank = self.free.ring, self.free.rank
        return tuple(_vec_to_col(ring, rank, v) for _, v in self.reducers)

    def reduce(self, v: Vec) -> Vec:
        """Normal form of a vec of the free module."""
        return _reduce_vec(self.free.ring.field.char, v, self.reducers, self.term_key())

    def _component_leads(self) -> List[List[Tuple[int, ...]]]:
        """Per component c, the exponents of c's lead terms: the generators
        of the monomial ideal J_c."""
        gens: List[List[Tuple[int, ...]]] = [[] for _ in range(self.free.rank)]
        for c, exps in self.lead_terms:
            gens[c].append(exps)
        return gens

    @cached_property
    def hilbert_numerators(self) -> Tuple[Tuple[Tuple[Degree, int, int], ...], ...]:
        """Per component c, the K-polynomial of P/J_c in the (multidegree,
        weight) grading: a tuple of (multidegree, weight, coefficient) terms.
        Built on first use, each from the ring's `k_polynomials` table, so a
        lead ideal met before over the same ring costs one lookup."""
        ring = self.free.ring
        table = ring.k_polynomials
        degs = [d + (w,) for d, w in zip(ring.degrees, ring.weights)]
        out = []
        for g in self._component_leads():
            key = _minimal_monomials(g)
            terms = table.get(key)
            if terms is None:
                terms = table[key] = tuple(
                    (a[:-1], a[-1], k) for a, k in sorted(_k_polynomial(key, degs).items()))
            out.append(terms)
        return tuple(out)

    @cached_property
    def walk_plans(self) -> Dict[bool, tuple]:
        """`homological.standard_monomials`' walk plans over this basis,
        keyed by whether the multidegree-0 variables are held; each is
        built on first use."""
        return {}

    @cached_property
    def krull_dim(self) -> int:
        """max over the components c of dim P/J_c, read off the supports of
        the lead terms alone; -1 when every J_c is P.  Built on first use."""
        nvars = self.free.ring.nvars
        return max((_free_vars([sum(1 << v for v, k in enumerate(exps) if k) for exps in g], nvars)
                    for g in self._component_leads()), default=-1)


def _free_vars(supports: Sequence[int], nvars: int) -> int:
    """dim P/J for a monomial ideal J given by its generators' variable
    supports (bitmasks): the most variables that contain no support, -1 when
    J = P.  Branches on a support inside the allowed set; the answer depends
    on that set alone, so it is memoised and there are at most 2^nvars states.
    """
    supports = sorted(set(supports), key=lambda s: bin(s).count("1"))
    memo: Dict[int, int] = {}

    def most(allowed: int) -> int:
        hit = memo.get(allowed)
        if hit is None:
            inside = next((s for s in supports if s & allowed == s), None)
            if inside is None:
                hit = bin(allowed).count("1")
            else:
                hit = max(
                    (most(allowed & ~(1 << v)) for v in range(nvars) if inside >> v & 1),
                    default=-1,
                )
            memo[allowed] = hit
        return hit

    return most((1 << nvars) - 1)


def _minimal_monomials(gens) -> Tuple[Tuple[int, ...], ...]:
    """The minimal generators of the monomial ideal (x^g : g in gens), sorted."""
    out: List[Tuple[int, ...]] = []
    for g in sorted(set(gens), key=lambda g: (sum(g), g)):
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


def _k_polynomial(gens, degs) -> Dict[Tuple[int, ...], int]:
    """Numerator K of the Hilbert series of P/J, J = (x^g : g in gens), with
    x_v of degree degs[v]: HS(P/J) = K / prod_v (1 - t^deg x_v), as {degree:
    coefficient}.

    Bigatti's pivot recursion (Bigatti 1997, Computation of Hilbert-Poincare
    series): with x a variable in the most generators and x^e its least power
    among them, 0 -> P/(J : x^e)(-e deg x) -> P/J -> P/(J + (x^e)) -> 0 gives
    K(J) = K(J + (x^e)) + t^(e deg x) K(J : x^e).  Generators coprime to all
    the others split off as factors 1 - t^deg g, which ends the recursion
    when they are pairwise coprime; a generator of degree 0 gives K = 0.
    """
    nvars, zero = len(degs), (0,) * len(degs[0])
    memo: Dict[Tuple[Tuple[int, ...], ...], Dict[Tuple[int, ...], int]] = {}

    def add_shifted(out, poly, shift, sign):
        """out += sign * t^shift * poly, in place; returns out."""
        for k, c in poly.items():
            k2 = tuple(x + y for x, y in zip(k, shift))
            c2 = out.get(k2, 0) + sign * c
            if c2:
                out[k2] = c2
            else:
                out.pop(k2, None)
        return out

    def k_of(gs: Tuple[Tuple[int, ...], ...]) -> Dict[Tuple[int, ...], int]:
        hit = memo.get(gs)
        if hit is not None:
            return hit
        uses = [sum(1 for g in gs if g[v]) for v in range(nvars)]
        rest = [g for g in gs if any(e and uses[v] > 1 for v, e in enumerate(g))]
        poly = {zero: 1}
        if rest:
            x = max(range(nvars), key=lambda v: (uses[v], -v))
            e = min(g[x] for g in rest if g[x])
            pivot = tuple(e if v == x else 0 for v in range(nvars))
            colon = (tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in rest)
            poly = add_shifted(dict(k_of(_minimal_monomials(rest + [pivot]))),
                               k_of(_minimal_monomials(colon)),
                               tuple(e * y for y in degs[x]), 1)
        for g in gs:
            if g not in rest:
                shift = tuple(sum(a * d[j] for a, d in zip(g, degs)) for j in range(len(zero)))
                poly = add_shifted(dict(poly), poly, shift, -1)
        memo[gs] = poly
        return poly

    return k_of(_minimal_monomials(gens))


def _buchberger_vecs(free: FreeModule, gens: Sequence[Column], keyf,
                     split: Optional[int]) -> List[Tuple[Term, Vec]]:
    """A Groebner basis as monic (lead term, vec) pairs, not reduced: seeds
    and S-pairs are reduced only until no lead divides their leading term,
    and `_reduced_basis` reduces the tails once at the end."""
    field = free.ring.field
    p = field.char
    rank1 = free.rank == 1 and split is None

    seed = [v for v in map(_col_to_vec, gens) if v]

    basis: List[Tuple[Term, Vec]] = []
    pairs: List[Tuple[int, int, int]] = []  # heap of (degree, counter, component)
    # per component, counter -> (i, j, lcm) of the pairs not yet popped or
    # deleted; a deleted pair stays in the heap and is skipped when popped
    live: List[Dict[int, Tuple[int, int, Tuple[int, ...]]]] = [{} for _ in range(free.rank)]
    counter = itertools.count()

    def push_element(v: Vec):
        """Add v and update the pairs by Gebauer-Moeller (1988)."""
        lead = max(v, key=keyf)
        v = _vec_monic(field, v, lead)
        comp, m = lead
        old = live[comp]
        # B_k: m divides lcm(i, j), so S(i, j) follows from the new pairs
        # (i, new) and (j, new), unless one of them has the same lcm
        for cnt, (i, j, lcm) in list(old.items()):
            if (_divides(m, lcm) and _lcm(basis[i][0][1], m) != lcm
                    and _lcm(basis[j][0][1], m) != lcm):
                del old[cnt]
        # F: one new pair per lcm, none if a pair with that lcm is coprime
        # (the coprime criterion, valid for ideals only); in the order of j
        new: Dict[Tuple[int, ...], Optional[int]] = {}
        for j, ((c, e), _) in enumerate(basis):
            if c != comp:
                continue
            lcm = _lcm(e, m)
            if rank1 and not any(map(min, e, m)):
                new[lcm] = None
            else:
                new.setdefault(lcm, j)
        idx = len(basis)
        for lcm, j in new.items():
            # M: drop a pair whose lcm another new lcm properly divides
            if j is None or any(l2 != lcm and _divides(l2, lcm) for l2 in new):
                continue
            cnt = next(counter)
            old[cnt] = (j, idx, lcm)
            deg = free.ring.monomial_weight(lcm) + free.weight_shifts[comp]
            heapq.heappush(pairs, (deg, cnt, comp))
        basis.append((lead, v))

    for v in sorted(seed, key=lambda w: keyf(max(w, key=keyf))):
        h = _reduce_vec(p, v, basis, keyf, lead_only=True)
        if h:
            push_element(h)

    while pairs:
        _, cnt, comp = heapq.heappop(pairs)
        pair = live[comp].pop(cnt, None)
        if pair is None:
            continue
        i, j, lcm = pair
        (lti, gi), (ltj, gj) = basis[i], basis[j]
        s: Vec = {}
        _vec_axpy(p, s, -1, deg_sub(lcm, lti[1]), gi)
        _vec_axpy(p, s, 1, deg_sub(lcm, ltj[1]), gj)
        h = _reduce_vec(p, s, basis, keyf, lead_only=True)
        if h:
            push_element(h)

    return basis


def _reduced_basis(free: FreeModule, pairs: List[Tuple[Term, Vec]], keyf) -> List[Tuple[Term, Vec]]:
    field = free.ring.field
    # drop a vec if another lead properly divides its lead, or if an earlier
    # vec has the same lead
    kept = [(lt, v) for i, (lt, v) in enumerate(pairs)
            if not any(lt2[0] == lt[0] and _divides(lt2[1], lt[1]) and (lt2 != lt or j < i)
                       for j, (lt2, _) in enumerate(pairs))]
    out: List[Tuple[Term, Vec]] = []
    for i, (lt, v) in enumerate(kept):
        # no other kept lead divides lt, so lt stays the lead of the remainder
        h = _reduce_vec(field.char, v, kept[:i] + kept[i + 1:], keyf)
        out.append((lt, _vec_monic(field, h, lt)))
    out.sort(key=lambda t: keyf(t[0]))
    return out


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def groebner_module(
    free: FreeModule,
    gens: Tuple[Column, ...],
    split: Optional[int] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by `gens`; with a
    split, the first `split` components dominate the rest.

    The columns must already be validated (`FreeModule.validate_column`):
    Buchberger does not check them again.  Each is checked once, where it
    enters the package: `ModulePresentation` checks its relations;
    `groebner_basis`, `eliminate_module`, `submodule_contains` and
    `submodules_equal` check the raw columns they are given; `module_kernel`
    and `syzygy_basis` check theirs, and the embedding `_kernel` builds from
    checked columns is homogeneous by its shifts."""
    keyf = _TermKeys(free, (), split).__getitem__
    pairs = _buchberger_vecs(free, gens, keyf, split)
    return GroebnerBasis(free, tuple(_reduced_basis(free, pairs, keyf)), split)


def groebner_basis(ring: GradedRing, polys: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced GB of an ideal (rank-1 module at shift 0)."""
    fm = FreeModule(ring, ((0,) * ring.rank,), (0,))
    gens = tuple((p,) for p in polys if not p.is_zero())
    _validate(fm, gens)
    return groebner_module(fm, gens)


def _validate(free: FreeModule, cols: Sequence[Column]) -> None:
    for col in cols:
        free.validate_column(col)


def normal_form_column(gb: GroebnerBasis, col: Column) -> Column:
    free = gb.free
    free.validate_column(col)
    return _vec_to_col(free.ring, free.rank, gb.reduce(_col_to_vec(col)))


def normal_form(gb: GroebnerBasis, f: Polynomial) -> Polynomial:
    if gb.free.rank != 1:
        raise InputError("normal_form on a polynomial needs a rank-1 basis")
    return normal_form_column(gb, (f,))[0]


# ---------------------------------------------------------------------------
# syzygies and everything built on them


def _kernel(source: FreeModule, images: Sequence[Column], target: FreeModule,
            rels: Sequence[Column] = ()) -> Tuple[Column, ...]:
    """Kernel of source -> target/(rels), e_j |-> images[j], for checked
    columns of degree 0 and nonzero relations: the unit column of each zero
    image, then the reduced basis, in the source's own order, of the kernel
    on the others.  The target components of the `modulo` basis rank first,
    so a lead past them means no target part."""
    ring, p = source.ring, target.rank
    live = [j for j, col in enumerate(images) if any(not e.is_zero() for e in col)]
    units = basis_multiples(ring.one(), source.rank)
    out = [units[j] for j in range(source.rank) if j not in live]
    if len(live) < 2 and not rels:
        return tuple(out)
    big = FreeModule(ring, target.mdeg_shifts + tuple(source.mdeg_shifts[j] for j in live),
                     target.weight_shifts + tuple(source.weight_shifts[j] for j in live))
    zero_tail = (ring.zero(),) * len(live)
    emb = tuple(tuple(images[j]) + unit
                for j, unit in zip(live, basis_multiples(ring.one(), len(live))))
    gb = groebner_module(big, emb + tuple(tuple(col) + zero_tail for col in rels), split=p)
    out += [_vec_to_col(ring, source.rank, {(live[c - p], e): x for (c, e), x in v.items()})
            for (lc, _), v in gb.reducers if lc >= p]
    return tuple(out)


def syzygy_basis(free: FreeModule, gens: Sequence[Column]) -> Tuple[FreeModule, Tuple[Column, ...]]:
    """The reduced basis of Syz(gens), in the free module whose shifts are
    the degrees of gens."""
    degs = [free.validate_column(col) for col in gens]
    if None in degs:
        raise InputError("zero generator")
    syzfree = FreeModule(free.ring, tuple(d for d, _ in degs), tuple(w for _, w in degs))
    return syzfree, _kernel(syzfree, gens, free)


def submodule_contains(free: FreeModule, gens: Sequence[Column], col: Column) -> bool:
    """`col` lies in the submodule generated by `gens`; no basis is built
    when every generator is zero."""
    gens = tuple(g for g in gens if any(not e.is_zero() for e in g))
    _validate(free, gens)
    if not gens:
        return all(e.is_zero() for e in col)
    return all(e.is_zero() for e in normal_form_column(groebner_module(free, gens), col))


def submodules_equal(free: FreeModule, gens_a: Sequence[Column], gens_b: Sequence[Column]) -> bool:
    """The two generator lists span one submodule: their reduced bases, which
    are unique, are equal."""
    a = tuple(g for g in gens_a if any(not e.is_zero() for e in g))
    b = tuple(g for g in gens_b if any(not e.is_zero() for e in g))
    _validate(free, a + b)
    if not a or not b:
        return not a and not b
    return groebner_module(free, a).reducers == groebner_module(free, b).reducers


def module_kernel(
    source: FreeModule, image_cols: Sequence[Column], target: ModulePresentation
) -> Tuple[Column, ...]:
    """Kernel of source -> target, the map sending e_j to image_cols[j]:
    the unit column of each zero image, then a reduced basis (`_kernel`).

    image_cols live in target's free cover; the map must be degree 0, i.e.
    column j is homogeneous of degree = source shift j (zero columns allowed).
    """
    if len(image_cols) != source.rank:
        raise InputError("one image column per source basis element")
    tfree = target.free()
    for j, col in enumerate(image_cols):
        if tfree.validate_column(col) not in (None, (source.mdeg_shifts[j], source.weight_shifts[j])):
            raise InputError("map is not degree 0")
    rels = tuple(c for c in target.relations if any(not e.is_zero() for e in c))
    return _kernel(source, image_cols, tfree, rels)


def colon_in_quotient(
    module: ModulePresentation, sub_gens: Sequence[Column], ideal: Sequence[Polynomial]
) -> Tuple[Column, ...]:
    """(U :_M I) for U <= M = F/R given by generators in M's free cover F,
    returned as the reduced basis of (U + R :_F I) in F.

    With I = (f_1, ..., f_s), the colon is the kernel of the degree-0 map
    F -> (+)_k F(-deg f_k)/(U + R) sending e_j to (f_1 e_j, ..., f_s e_j):
    block k repeats F's shifts lowered by deg f_k and carries a copy of the
    columns of U + R.  No image is zero, so the kernel comes as its reduced
    basis; no exact division is involved.
    """
    ideal = [f for f in ideal if not f.is_zero()]
    if not ideal:
        raise InputError("colon by the zero ideal")
    free = module.free()
    gens = tuple(sub_gens) + module.relations
    s, p = len(ideal), free.rank
    zero = free.ring.zero()
    shifts = [(deg_sub(m, d), v - w)
              for d, w in (f.degree_pair() for f in ideal)
              for m, v in zip(free.mdeg_shifts, free.weight_shifts)]
    rels = [(zero,) * (p * k) + tuple(col) + (zero,) * (p * (s - 1 - k))
            for k in range(s) for col in gens]
    images = tuple(tuple(f if i == j else zero for f in ideal for i in range(p)) for j in range(p))
    return module_kernel(free, images, presentation(free.ring, shifts, rels))


def ideal_power_product(
    ideals: Sequence[Sequence[Polynomial]], exps: Sequence[int]
) -> Tuple[Polynomial, ...]:
    """Generators of I_1^{e_1} ... I_r^{e_r} (products of generator powers)."""
    if len(ideals) != len(exps):
        raise InputError("one exponent per ideal")
    if any(e < 0 for e in exps):
        raise InputError("negative exponent")
    ring = None
    for gens in ideals:
        for g in gens:
            ring = g.ring
            break
        if ring:
            break
    if ring is None:
        raise InputError("empty ideal list")
    factors: List[List[Polynomial]] = []
    for gens, e in zip(ideals, exps):
        gens = [g for g in gens if not g.is_zero()]
        if not gens and e > 0:
            raise InputError("power of the zero ideal")
        if e == 0:
            continue
        factors.append([reduce(mul, (gens[i] for i in combo))
                        for combo in itertools.combinations_with_replacement(range(len(gens)), e)])
    if not factors:
        return (ring.one(),)
    out: List[Polynomial] = []
    for combo in itertools.product(*factors):
        p = reduce(mul, combo)
        if not p.is_zero():
            out.append(p)
    # dedupe; for monomial generators also drop divisible redundancies
    seen = {}
    for p in out:
        seen[p.terms] = p
    polys = list(seen.values())
    if all(len(p.terms) == 1 for p in polys):
        monos = [p.lead_exps() for p in polys]
        keep = []
        for i, m in enumerate(monos):
            if any(j != i and _divides(monos[j], m) and monos[j] != m for j in range(len(monos))):
                continue
            keep.append(polys[i])
        polys = keep
        # equal monomials already deduped above
    polys.sort(key=lambda p: ring.term_sort_key(p.lead_exps()))
    return tuple(polys)


# ---------------------------------------------------------------------------
# elimination


def subring_without(ring: GradedRing, drop: Sequence[str]) -> Tuple[GradedRing, Tuple[int, ...]]:
    """The ring on the complementary variables, plus the kept indices."""
    drop_idx = {ring.var_index(nm) for nm in drop}
    keep = tuple(i for i in range(ring.nvars) if i not in drop_idx)
    if not keep:
        raise InputError("cannot drop every variable")
    kept_weights = tuple(ring.weights[i] for i in keep)
    kept_degrees = tuple(ring.degrees[i] for i in keep)
    still_internal = any(w < 1 for w in kept_weights) or any(
        any(x < 0 for x in d) for d in kept_degrees
    )
    sub = GradedRing(
        ring.field,
        tuple(ring.names[i] for i in keep),
        kept_degrees,
        kept_weights,
        _allow_zero_weight=still_internal,
    )
    return sub, keep


def eliminate_module(
    free: FreeModule, gens: Sequence[Column], drop: Sequence[str]
) -> Tuple[FreeModule, Tuple[Column, ...]]:
    """Module elimination: the reduced basis of (gens) intersected with the
    free module over the ring without `drop`.

    Under the block order the tag-free elements of a Groebner basis are a
    Groebner basis of the elimination, so only they are interreduced."""
    elim = tuple(free.ring.var_index(nm) for nm in drop)
    _validate(free, gens)
    keyf = _TermKeys(free, elim, None).__getitem__
    # tag degree is compared first, so a lead without `drop` means none at all
    kept = [(lt, v) for lt, v in _buchberger_vecs(free, gens, keyf, None)
            if not any(lt[1][i] for i in elim)]
    sub, keep = subring_without(free.ring, drop)
    subfree = FreeModule(sub, free.mdeg_shifts, free.weight_shifts)
    out = tuple(
        _vec_to_col(sub, free.rank, {(c, tuple(e[i] for i in keep)): x
                                     for (c, e), x in v.items()})
        for _, v in _reduced_basis(free, kept, keyf)
    )
    return subfree, out
