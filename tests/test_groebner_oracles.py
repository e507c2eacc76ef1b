"""Groebner bases against oracles that share no code with groebner_engine:
sympy's Groebner bases for ideals over F_32003, F_4294967311 and Q, and a
naive Buchberger (every pair, full reduction) for modules, ideals included,
under split and elimination orders."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from mgcm.graded_poly import GradedRing, field_for_char, parse_polynomial
from mgcm.groebner_engine import (
    _buchberger_vecs,
    _col_to_vec,
    _reduced_basis,
    _TermKeys,
    cyclic_presentation,
    eliminate_module,
    free_module,
    groebner_basis,
    groebner_module,
    normal_form,
    submodules_equal,
)
from mgcm.homological import graded_piece_dim

PRIME = 32003
NAMES = ("x0", "x1", "x2", "x3")
RING = GradedRing(field_for_char(PRIME), NAMES, ((1,),) * 4, (1,) * 4)
SYMBOLS = sympy.symbols(NAMES)
# the ideal oracle also runs over a prime above 2^32 and over Q, where the
# engine's arithmetic takes its other branch
OTHER_IDEAL_CHARS = (4294967311, 0)


def _terms(text):
    return dict(parse_polynomial(RING, text).terms)


def _monomials(degree, nvars=4):
    """Exponent vectors over x0..x3 of the degree, in the first nvars only."""
    return [e + (0,) * (4 - nvars)
            for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


@st.composite
def _homogeneous(draw, degree, nvars, max_terms=3, coeffs=st.integers(1, PRIME - 1)):
    """A homogeneous polynomial of the degree in the first nvars variables,
    or zero, as {exps: coeff}."""
    if degree < 0:
        return {}
    terms = draw(st.lists(st.sampled_from(_monomials(degree, nvars)), max_size=max_terms,
                          unique=True))
    return {e: draw(coeffs) for e in terms}


# ---------------------------------------------------------------------------
# ideals against sympy


@st.composite
def _ideal_cases(draw):
    """Generators as {exps: int}; the ints, signed and up to 2^40, are read
    in the field of the test, so over F_4294967311 they wrap."""
    nvars = draw(st.integers(2, 4))
    coeffs = st.integers(-(2 ** 40), 2 ** 40).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        poly = draw(_homogeneous(draw(st.integers(1, 3)), nvars, coeffs=coeffs))
        if poly:
            gens.append(poly)
    if not gens:
        gens.append({(1, 0, 0, 0): 1})
    return gens


def _to_sympy(terms, char):
    """A sympy Poly over GF(char), or over QQ when char is 0."""
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in dict(terms).items()}
    if char:
        return sympy.Poly.from_dict(terms, *SYMBOLS, modulus=char)
    return sympy.Poly.from_dict(terms, *SYMBOLS, domain=sympy.QQ)


def _from_sympy(ring, poly):
    char = ring.field.char
    if char:
        return ring.from_dict({e: int(c) % char for e, c in poly.as_dict().items()})
    return ring.from_dict({e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()})


def _check_ideal_basis(char, gens):
    ring = GradedRing(field_for_char(char), NAMES, ((1,),) * 4, (1,) * 4)
    polys = [ring.from_dict({e: ring.field.of(c) for e, c in g.items()}) for g in gens]
    polys = [f for f in polys if not f.is_zero()] or [ring.var("x0")]
    gb = groebner_basis(ring, polys)
    domain = {"modulus": char} if char else {"domain": sympy.QQ}
    ref = sympy.groebner([_to_sympy(f.terms, char) for f in polys], *SYMBOLS,
                         order="grevlex", **domain)
    # each basis lies in the other's ideal
    for (f,) in gb.elements:
        assert ref.contains(_to_sympy(f.terms, char))
    for p in ref.polys:
        assert normal_form(gb, _from_sympy(ring, p)).is_zero()
    # Hilbert function of P/I: standard monomials of sympy's lead terms
    leads = [p.monoms(order="grevlex")[0] for p in ref.polys]
    quotient = cyclic_presentation(ring, polys)
    for d in range(7):
        standard = sum(1 for e in _monomials(d)
                       if not any(all(a <= b for a, b in zip(m, e)) for m in leads))
        assert graded_piece_dim(quotient, (d,)) == standard


# the leads x0^2*x2, x0*x1*x2 and x0^2*x1 have one lcm pairwise: a B_k
# without its equality exception, or an F that keeps no pair, loses a
# needed S-pair here
@example(gens=[_terms("x2^3 + x1*x2^2 + x0^2*x2"), _terms("x2^3 + x0*x1*x2"),
               _terms("x2^3 + x1*x2^2 + x0^2*x1")])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gens=_ideal_cases())
def test_ideal_basis_matches_sympy(gens):
    _check_ideal_basis(PRIME, gens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gens=_ideal_cases())
@pytest.mark.parametrize("char", OTHER_IDEAL_CHARS)
def test_ideal_basis_matches_sympy_at_a_large_prime_and_over_q(char, gens):
    _check_ideal_basis(char, gens)


# ---------------------------------------------------------------------------
# modules against a naive Buchberger


def _order_key(shifts, elim, split):
    """The engine's module order, written out: the first `split` components
    dominate, then the eliminated variables' total degree, then weight
    degree, then reverse lexicographic on exponents, lower component first."""
    def key(term):
        c, e = term
        return (split is None or c < split, sum(e[i] for i in elim), sum(e) + shifts[c],
                tuple(-x for x in reversed(e)), -c)
    return key


def _reference_basis(vecs, key):
    """Reduced monic Groebner basis as sorted (lead, vec) pairs: Buchberger
    over every pair of the same component, full reduction throughout."""
    def lead(v):
        return max(v, key=key)

    def axpy(target, coeff, mono, src):  # target -= coeff * x^mono * src
        for (c, e), x in src.items():
            t = (c, tuple(a + b for a, b in zip(e, mono)))
            target[t] = (target.get(t, 0) - coeff * x) % PRIME
            if not target[t]:
                del target[t]

    def reduce(v, basis):
        work, rem = dict(v), {}
        while work:
            t = lead(work)
            g = next((g for g in basis if lead(g)[0] == t[0]
                      and all(a <= b for a, b in zip(lead(g)[1], t[1]))), None)
            if g is None:
                rem[t] = work.pop(t)
            else:
                lt = lead(g)
                axpy(work, work[t] * pow(g[lt], -1, PRIME), tuple(a - b for a, b in zip(t[1], lt[1])), g)
        return rem

    def monic(v):
        inv = pow(v[lead(v)], -1, PRIME)
        return {t: x * inv % PRIME for t, x in v.items()}

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lead(basis[i])[1], lead(basis[j])[1]))

    basis = [monic(v) for v in vecs if v]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        # lowest lcm degree first, so that no pass wanders into high degrees
        i, j = pairs.pop(min(range(len(pairs)), key=lambda k: sum(lcm(*pairs[k]))))
        (ci, ei), (cj, ej) = lead(basis[i]), lead(basis[j])
        if ci != cj:
            continue
        lcm_ij = lcm(i, j)
        s = {}
        axpy(s, PRIME - 1, tuple(a - b for a, b in zip(lcm_ij, ei)), basis[i])
        axpy(s, 1, tuple(a - b for a, b in zip(lcm_ij, ej)), basis[j])
        h = reduce(s, basis)
        if h:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(monic(h))
    minimal = []
    for g in sorted(basis, key=lambda g: key(lead(g))):
        c, e = lead(g)
        if not any(lead(h)[0] == c and all(a <= b for a, b in zip(lead(h)[1], e)) for h in minimal):
            minimal.append(g)
    out = []
    for g in minimal:
        lt = lead(g)
        tail = reduce({t: x for t, x in g.items() if t != lt}, [h for h in minimal if h is not g])
        out.append((lt, {lt: 1, **tail}))
    return sorted(out, key=lambda p: key(p[0]))


@st.composite
def _module_cases(draw):
    """Homogeneous columns in a free module of rank 1-3 over k[x0..x3], with
    a split (rank 2-3) or not, and eliminated variables or not."""
    rank = draw(st.integers(1, 3))
    shifts = tuple(draw(st.integers(0, 1)) for _ in range(rank))
    split = draw(st.none() | st.integers(1, rank - 1)) if rank > 1 else None
    elim = draw(st.sampled_from([(), ("x0",), ("x3",), ("x1", "x2")]))
    nvars = draw(st.integers(2, 4))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        top = max(shifts) + draw(st.integers(0, 2))
        col = [draw(_homogeneous(top - s, nvars, max_terms=2)) for s in shifts]
        if any(col):
            cols.append(col)
    if not cols:
        cols.append([{(1, 0, 0, 0): 1}] + [{}] * (rank - 1))
    return shifts, split, elim, cols


# leads x1*e0 and x0*e0 are coprime, yet their S-pair x0*x1*e1 is not zero
@example(((0, 0), None, (), [[_terms("x1"), _terms("x1")], [_terms("x0"), {}]]))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_module_cases())
def test_module_basis_matches_naive_buchberger(case):
    shifts, split, elim, cols = case
    free = free_module(RING, tuple(((s,), s) for s in shifts))
    gens = tuple(tuple(RING.from_dict(entry) for entry in col) for col in cols)
    elim_idx = tuple(NAMES.index(nm) for nm in elim)
    if elim:
        # the Buchberger run and interreduction that eliminate_module builds
        # on, under the block order
        keyf = _TermKeys(free, elim_idx, split).__getitem__
        got = _reduced_basis(free, _buchberger_vecs(free, gens, keyf, split), keyf)
    else:
        got = groebner_module(free, gens, split).reducers
    key = _order_key(shifts, elim_idx, split)
    vecs = [{(c, e): x for c, entry in enumerate(col) for e, x in entry.items()} for col in cols]
    want = _reference_basis(vecs, key)
    assert [(lt, dict(v)) for lt, v in got] == want
    if elim and split is None:
        # eliminate_module returns the reference's tag-free elements
        keep = [i for i in range(len(NAMES)) if i not in elim_idx]
        _, kernel = eliminate_module(free, gens, elim)
        assert [_col_to_vec(col) for col in kernel] == [
            {(c, tuple(e[i] for i in keep)): x for (c, e), x in v.items()}
            for (_, lead), v in want if not any(lead[i] for i in elim_idx)]


# ---------------------------------------------------------------------------
# elimination against sympy's lex basis


@st.composite
def _graph_cases(draw):
    """1-3 nonzero forms g_i of degree 1-2 over k[a,b,c], as {exps: coeff}."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(_homogeneous(draw(st.integers(1, 2)), 3, max_terms=2))
        gens.append({e[:3]: c for e, c in g.items()} or {(1, 0, 0): 1})
    return gens


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_graph_cases())
def test_eliminate_module_matches_the_t_free_part_of_sympy_lex(gens):
    """The graphs T_i - g_i*t over k[a,b,c][T, t], t of weight 0: eliminating
    t leaves the ideal that the t-free elements of sympy's lex basis, t
    first, generate over GF(32003), and a reduced basis of it."""
    k = len(gens)
    tnames = tuple(f"T{i + 1}" for i in range(k))
    names = ("a", "b", "c") + tnames + ("t",)
    weights = (1, 1, 1) + tuple(sum(next(iter(g))) for g in gens) + (0,)
    ring = GradedRing(field_for_char(PRIME), names, ((0,),) * 3 + ((1,),) * (k + 1),
                      weights, _allow_zero_weight=True)
    free = free_module(ring, (((0,), 0),))
    t = ring.var("t")
    polys = [ring.var(nm) - ring.from_dict({e + (0,) * (k + 1): c for e, c in g.items()}) * t
             for nm, g in zip(tnames, gens)]
    sub_free, cols = eliminate_module(free, [(f,) for f in polys], ("t",))
    sub = sub_free.ring
    assert sub.names == names[:-1]

    symbols = sympy.symbols(names)
    ref = sympy.groebner([sympy.Poly.from_dict(dict(f.terms), *symbols, modulus=PRIME)
                          for f in polys], symbols[-1], *symbols[:-1], order="lex",
                         modulus=PRIME)
    t_free = [sub.from_dict({e[1:]: int(c) for e, c in p.as_dict().items()})
              for p in ref.polys if not any(e[0] for e in p.monoms())]
    # sympy's generators come with t first
    assert submodules_equal(sub_free, cols, [(f,) for f in t_free])

    keyf = _TermKeys(sub_free, (), None).__getitem__
    leads = [max(_col_to_vec(col), key=keyf) for col in cols]
    for (_, lead), col in zip(leads, cols):
        assert col[0].terms[0] == (lead, 1)
        for other in cols:
            terms = other[0].terms[1:] if other is col else other[0].terms
            assert not any(all(a <= b for a, b in zip(lead, e)) for e, _ in terms)
