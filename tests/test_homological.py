"""Resolutions, Betti numbers, dimension, depth, duals, a-invariants, grade."""

import itertools
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from mgcm.cohomology import degree_box, mdeg_layer_nonzero
import mgcm.homological as hom
from mgcm.graded_poly import (
    GradedRing,
    InputError,
    deg_add,
    deg_min,
    deg_sub,
    field_for_char,
    parse_polynomial,
)
from mgcm.groebner_engine import (
    basis_multiples,
    cyclic_presentation,
    free_module,
    free_presentation,
    groebner_basis,
    groebner_module,
    module_kernel,
    presentation,
    syzygy_basis,
)
from mgcm.homological import (
    _dual_twist,
    _relations_gb,
    _transpose_columns,
    _unit_lead_components,
    a_invariant,
    check_complex,
    ext_dual_module,
    grade_of,
    graded_piece_dim,
    is_cohen_macaulay,
    is_zero_module,
    krull_dim,
    minimal_free_resolution,
    piece_basis,
    v_of,
)
from mgcm.rees_constructions import rees_module_presentation
from test_acceptance import _corpus_modules


def std_ring(char=0, names=("x", "y")):
    return GradedRing(field_for_char(char), names, tuple((1,) for _ in names),
                      tuple(1 for _ in names))


def bigraded_ring(char=0):
    return GradedRing(field_for_char(char), ("x", "y"), ((1, 0), (0, 1)), (1, 1))


def cyc(R, *strs):
    return cyclic_presentation(R, tuple(parse_polynomial(R, s) for s in strs))


# ---------------------------------------------------------------------------
# resolutions


def test_koszul_resolution_of_residue_field():
    R = std_ring()
    k = cyc(R, "x", "y")
    res = minimal_free_resolution(k)
    assert res.betti() == {0: 1, 1: 2, 2: 1}
    assert check_complex(res)
    assert res.shifts[2] == (((2,),), (2,))


def test_resolution_prunes_redundant_relations():
    R = std_ring()
    m = cyc(R, "x", "x", "x + x")
    res = minimal_free_resolution(m)
    assert res.betti() == {0: 1, 1: 1}
    assert res.shifts[1] == (((1,),), (1,))


def test_resolution_of_free_module():
    R = std_ring()
    free = cyc(R)
    res = minimal_free_resolution(free)
    assert res.length == 0 and res.rank(0) == 1


def test_three_variable_koszul():
    R = std_ring(names=("x", "y", "z"))
    k = cyc(R, "x", "y", "z")
    res = minimal_free_resolution(k)
    assert res.betti() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert check_complex(res)


# ---------------------------------------------------------------------------
# invariants


def test_invariants_of_polynomial_ring():
    R = std_ring()
    rec = is_cohen_macaulay(cyc(R))
    assert (rec.dim, rec.depth, rec.pd, rec.cm) == (2, 2, 0, True)


def test_invariants_of_hypersurface():
    R = std_ring()
    rec = is_cohen_macaulay(cyc(R, "x*y"))
    assert (rec.dim, rec.depth, rec.cm) == (1, 1, True)


def test_invariants_of_non_cm_module():
    R = std_ring()
    rec = is_cohen_macaulay(cyc(R, "x^2", "x*y"))
    assert (rec.dim, rec.depth, rec.pd, rec.cm) == (1, 0, 2, False)


def test_zero_module_sentinel():
    R = std_ring()
    z = cyc(R, "1")
    assert is_zero_module(z)
    rec = is_cohen_macaulay(z)
    assert (rec.dim, rec.depth, rec.pd, rec.cm, rec.is_zero) == (-1, -1, -1, True, True)
    assert krull_dim(z) == -1


def _hilbert_numerator(M):
    """Signed sum of t^(weight shift) over the minimal resolution."""
    res = minimal_free_resolution(M)
    out = {}
    for i in range(res.length + 1):
        for w in res.shifts[i][1]:
            out[w] = out.get(w, 0) + (-1) ** i
    return {w: c for w, c in out.items() if c}


def _pole_order_dim(M):
    """Reference Krull dimension: the pole order at t = 1 of the weight
    Hilbert series N(t) / prod(1 - t^w_v), i.e. nvars minus the multiplicity
    of t = 1 as a root of N; -1 for the zero module."""
    num = _hilbert_numerator(M)
    if not num:
        return -1
    coeffs = [num.get(k, 0) for k in range(min(num), max(num) + 1)]
    order = 0
    while sum(coeffs) == 0:
        coeffs = list(itertools.accumulate(coeffs))[:-1]  # divide by 1 - t
        order += 1
    return M.ring.nvars - order


def test_hilbert_numerator_koszul():
    R = std_ring()
    assert _hilbert_numerator(cyc(R, "x", "y")) == {0: 1, 1: -2, 2: 1}
    assert _pole_order_dim(cyc(R, "x", "y")) == 0


def test_dimension_of_coordinate_subspace():
    R = std_ring(names=("x", "y", "z"))
    assert krull_dim(cyc(R, "x")) == 2
    assert krull_dim(cyc(R, "x", "y")) == 1


# ---------------------------------------------------------------------------
# generator degrees


def test_v_of_shifted_free():
    R = bigraded_ring()
    m = presentation(R, (((2, 0), 2), ((0, 3), 3)), ())
    assert v_of(m) == (0, 0)
    m2 = presentation(R, (((2, 1), 3), ((1, 2), 3)), ())
    assert v_of(m2) == (1, 1)


def test_v_of_drops_redundant_generator():
    R = std_ring()
    x, _ = R.gens()
    # second generator equals x times the first: not minimal
    m = presentation(
        R,
        (((0,), 0), ((1,), 1)),
        (((x, R.const(-1)),)),
    )
    assert v_of(m) == (0,)


def test_v_of_drops_redundant_generator_of_least_degree():
    R = std_ring()
    # e_0 in degree 0 is a relation itself, so M = P(-1) and v = 1, not 0:
    # its unit lead term is what leaves it out of the minimal generators
    m = presentation(R, (((0,), 0), ((1,), 1)), ((R.one(), R.zero()),))
    assert not is_zero_module(m)
    assert v_of(m) == (1,)


def test_v_of_zero_module_rejected():
    R = std_ring()
    with pytest.raises(InputError):
        v_of(cyc(R, "1"))


# ---------------------------------------------------------------------------
# graded pieces


def test_piece_dims_polynomial_ring():
    R = std_ring()
    free = cyc(R)
    assert [graded_piece_dim(free, (d,)) for d in range(5)] == [1, 2, 3, 4, 5]


def test_piece_dims_quotient():
    R = std_ring()
    m = cyc(R, "x^2", "x*y")
    assert [graded_piece_dim(m, (d,)) for d in range(4)] == [1, 2, 1, 1]


def test_piece_basis_is_sorted_and_standard():
    R = std_ring()
    m = cyc(R, "x^2")
    basis = piece_basis(m, (2,))
    assert basis == ((0, (0, 2)), (0, (1, 1)))


def test_piece_dim_bigraded():
    R = bigraded_ring()
    free = cyc(R)
    assert graded_piece_dim(free, (3, 4)) == 1
    assert graded_piece_dim(free, (-1, 0)) == 0


def test_piece_negative_weight_slice_empty():
    R = std_ring()
    free = cyc(R)
    assert graded_piece_dim(free, (2,), weight=1) == 0
    assert graded_piece_dim(free, (2,), weight=2) == 3


# ---------------------------------------------------------------------------
# the standard-monomial enumerator against a brute-force oracle


def _brute_standard(M, n, weight=None, held_cap=2):
    """(component, exponents) of multidegree n (and the weight, if given) that
    no lead term divides, filtered from a full box of exponent vectors.
    Without a weight the multidegree-0 variables range over 0..held_cap."""
    ring = M.ring
    leads = _relations_gb(M).lead_terms
    out = []
    for comp in range(M.rank):
        tm = [a - b for a, b in zip(n, M.mdeg_shifts[comp])]
        tw = None if weight is None else weight - M.weight_shifts[comp]
        if min(tm) < 0 or (tw is not None and tw < 0):
            continue
        ranges = []
        for d, w in zip(ring.degrees, ring.weights):
            if tw is not None:
                ranges.append(range(tw // w + 1))
            elif any(d):
                ranges.append(range(min(t // x for t, x in zip(tm, d) if x) + 1))
            else:
                ranges.append(range(held_cap + 1))
        for e in itertools.product(*ranges):
            mdeg = [sum(k * d[c] for k, d in zip(e, ring.degrees)) for c in range(ring.rank)]
            if mdeg != tm:
                continue
            if tw is not None and sum(k * w for k, w in zip(e, ring.weights)) != tw:
                continue
            if any(c == comp and all(a <= b for a, b in zip(lt, e)) for c, lt in leads):
                continue
            out.append((comp, e))
    return out


def _check_enumerator(M, degrees, weights):
    ring = M.ring
    slices = list(weights) + ([None] if ring.is_field_base() else [])
    for n in degrees:
        for w in slices:
            want = sorted(_brute_standard(M, n, w), key=lambda t: (t[0], ring.term_sort_key(t[1])))
            assert list(piece_basis(M, n, w)) == want, (M, n, w)
        assert mdeg_layer_nonzero(M, n) == bool(_brute_standard(M, n)), (M, n)


def _corpus_boxes():
    """(module, degree box, weights) for every nonzero corpus module and each
    of its ext duals: a box one below and one or two above its shifts."""
    modules = [M for _label, M in _corpus_modules()]
    modules += [ext_dual_module(M, i) for M in modules for i in range(M.ring.nvars + 1)]
    for M in modules:
        if M.rank == 0:
            continue
        r = M.ring.rank
        lo = [min(d[i] for d in M.mdeg_shifts) - 1 for i in range(r)]
        hi = [max(d[i] for d in M.mdeg_shifts) + (1 if M.ring.nvars >= 6 else 2) for i in range(r)]
        weights = range(max(min(M.weight_shifts), 0), max(M.weight_shifts) + 3)
        yield M, degree_box(lo, hi), weights


def test_standard_monomials_match_brute_force_on_corpus():
    checked = 0
    for M, degrees, weights in _corpus_boxes():
        _check_enumerator(M, degrees, weights)
        checked += 1
    assert checked >= 40


@st.composite
def _binomial_quotients(draw, exponents=st.integers(0, 3), max_gens=4):
    """k[x_0..x_{v-1}]/I for I generated by monomials and homogeneous
    binomials, graded by Z or Z^2, possibly with one multidegree-0 variable."""
    nvars = draw(st.integers(2, 4))
    rank = draw(st.integers(1, 2))
    choices = [(1,)] if rank == 1 else [(1, 0), (0, 1), (1, 1)]
    degrees = [draw(st.sampled_from(choices)) for _ in range(nvars)]
    if draw(st.booleans()):
        degrees[-1] = (0,) * rank
    weights = [draw(st.integers(1, 2)) for _ in range(nvars)]
    return _binomial_quotient(draw, degrees, weights, exponents, max_gens)


def _binomial_quotient(draw, degrees, weights, exponents, max_gens):
    """k[x_0..x_{v-1}]/I with the given degrees and weights, for I drawn as
    in `_binomial_quotients`."""
    nvars = len(degrees)
    ring = GradedRing(field_for_char(32003), tuple(f"x{i}" for i in range(nvars)),
                      tuple(degrees), tuple(weights))
    exps = st.lists(exponents, min_size=nvars, max_size=nvars)
    polys = []
    for _ in range(draw(st.integers(1, max_gens))):
        e = draw(exps)
        f = ring.monomial(e)
        # a binomial moves one exponent block between two variables of the
        # same degree and weight, so it stays homogeneous
        same = [(i, j) for i in range(nvars) for j in range(nvars) if i != j and e[i]
                and degrees[i] == degrees[j] and weights[i] == weights[j]]
        if same and draw(st.booleans()):
            i, j = draw(st.sampled_from(same))
            k = draw(st.integers(1, e[i]))
            e2 = list(e)
            e2[i] -= k
            e2[j] += k
            f = f - ring.monomial(e2, draw(st.integers(1, 5)))
        if not f.is_zero():
            polys.append(f)
    return cyclic_presentation(ring, polys)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_binomial_quotients())
def test_standard_monomials_match_brute_force_on_binomial_ideals(M):
    r = M.ring.rank
    _check_enumerator(M, degree_box((0,) * r, (3,) * r), range(0, 5))


@st.composite
def _interleaved_quotients(draw):
    """Quotients drawn as in `_binomial_quotients` over rings whose blocks of
    equal (degree, weight) interleave in variable-index order, and whose
    variable 0 has multidegree 0: it is first by index and, held or walked
    last, last by block."""
    rank = draw(st.integers(1, 2))
    kinds = [((1,), 1), ((1,), 2)] if rank == 1 else [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)]
    a, b = draw(st.permutations(kinds))[:2]
    pattern = draw(st.sampled_from(("aba", "abab", "abba")))
    kinds = [((0,) * rank, draw(st.integers(1, 2)))] + [a if c == "a" else b for c in pattern]
    degrees, weights = zip(*kinds)
    # sparse exponents keep lead terms inside the degree box of the test
    return _binomial_quotient(draw, degrees, weights, st.sampled_from((0, 0, 0, 1, 1, 2)), 4)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_interleaved_quotients())
def test_standard_monomials_match_brute_force_on_interleaved_blocks(M):
    # the ring has a multidegree-0 variable, so the weightless slice is
    # checked through mdeg_layer_nonzero, the held-variable path
    assert not M.ring.is_field_base()
    r = M.ring.rank
    _check_enumerator(M, degree_box((0,) * r, (4 - r,) * r), range(0, 5))


def _check_stored_plan(M, degrees, weights):
    """Both walk modes against the brute-force filter, each walk run twice:
    the first builds the mode's plan on the relations basis (unless an
    earlier caller did), the second runs on the plan stored there.  The held
    mode (no weight) holds the multidegree-0 variables at 0."""
    ring = M.ring
    gb = _relations_gb(M)
    term_order = lambda t: (t[0], ring.term_sort_key(t[1]))
    for n in degrees:
        for w in [None] + list(weights):
            want = sorted(_brute_standard(M, n, w, held_cap=0))
            first = sorted(hom.standard_monomials(M, n, w))
            plan = gb.walk_plans[w is None]
            assert sorted(hom.standard_monomials(M, n, w)) == first == want, (M, n, w)
            assert gb.walk_plans[w is None] is plan
            if w is not None or ring.is_field_base():
                assert list(piece_basis(M, n, w)) == sorted(want, key=term_order), (M, n, w)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(_binomial_quotients(), _interleaved_quotients()))
def test_stored_walk_plans_match_brute_force(M):
    r = M.ring.rank
    _check_stored_plan(M, degree_box((0,) * r, (3 - r,) * r), range(0, 5))


# ---------------------------------------------------------------------------
# the piece counter against the basis it no longer lists


def _check_counter(M, degrees, weights):
    slices = list(weights) + ([None] if M.ring.is_field_base() else [])
    for n in degrees:
        for w in slices:
            assert graded_piece_dim(M, n, w) == len(piece_basis(M, n, w)), (M, n, w)


def test_piece_counter_matches_basis_on_corpus():
    checked = 0
    for M, degrees, weights in _corpus_boxes():
        _check_counter(M, degrees, weights)
        checked += 1
    assert checked >= 40


@st.composite
def _binomial_modules(draw):
    """A _binomial_quotients draw P/I, or (P/I)^2 with the second generator
    shifted by deg x_i and, optionally, glued to the first by x_j (x_i e_0 - e_1)."""
    M = draw(_binomial_quotients())
    if draw(st.booleans()):
        return M
    ring = M.ring
    i, j = (draw(st.integers(0, ring.nvars - 1)) for _ in range(2))
    x_i, x_j = ring.gens()[i], ring.gens()[j]
    zero = ring.zero()
    cols = [(f, zero) for (f,) in M.relations] + [(zero, f) for (f,) in M.relations]
    if draw(st.booleans()):
        cols.append((x_i * x_j, -x_j))
    shifts = (((0,) * ring.rank, 0), (ring.degrees[i], ring.weights[i]))
    return presentation(ring, shifts, tuple(cols))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_binomial_modules())
def test_piece_counter_matches_basis_on_binomial_modules(M):
    r = M.ring.rank
    _check_counter(M, degree_box((-1,) * r, (3,) * r), range(-1, 6))


def test_piece_dim_refuses_infinite_pieces():
    F = field_for_char(7)
    # no weight over a base with a multidegree-0 variable
    local = presentation(GradedRing(F, ("x", "a"), ((1,), (0,)), (1, 1)), (((0,), 0),), ())
    # without a weight, a variable with no positive degree bounds nothing
    bare = presentation(GradedRing(F, ("x", "t"), ((1,), (-1,)), (1, 0), _allow_zero_weight=True),
                        (((0,), 0),), ())
    for M, match in ((local, "infinite-dimensional"), (bare, "unbounded enumeration")):
        for size in (graded_piece_dim, piece_basis):
            with pytest.raises(InputError, match=match):
                size(M, (1,))
    assert graded_piece_dim(local, (1,), 2) == len(piece_basis(local, (1,), 2)) == 1


# ---------------------------------------------------------------------------
# dimension, vanishing and v from the initial module against the resolution


def _check_initial_module_routes(M):
    res = minimal_free_resolution(M)
    assert krull_dim(M) == _pole_order_dim(M), M
    assert is_zero_module(M) == (res.rank(0) == 0), M
    if res.rank(0):
        assert v_of(M) == reduce(deg_min, res.shifts[0][0]), M
    else:
        with pytest.raises(InputError):
            v_of(M)


def _with_ext_duals(M):
    return [M] + [ext_dual_module(M, i) for i in range(M.ring.nvars + 1)]


def test_initial_module_routes_match_resolution_on_corpus():
    checked = 0
    for _label, M in _corpus_modules():
        for N in _with_ext_duals(M):
            _check_initial_module_routes(N)
            checked += 1
    assert checked >= 100


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_binomial_quotients())
def test_initial_module_routes_match_resolution_on_binomial_ideals(M):
    for N in _with_ext_duals(M):
        _check_initial_module_routes(N)


# ---------------------------------------------------------------------------
# duals, a-invariants, grade


def test_ext_top_of_residue_field():
    R = std_ring()
    k = cyc(R, "x", "y")
    top = ext_dual_module(k, 2)
    assert minimal_free_resolution(top).shifts[0] == (((0,),), (0,))
    assert v_of(top) == (0,)
    assert is_zero_module(ext_dual_module(k, 0))
    assert is_zero_module(ext_dual_module(k, 1))


def test_ext_of_free_is_twisted_free():
    R = std_ring()
    free = cyc(R)
    e0 = ext_dual_module(free, 0)
    assert minimal_free_resolution(e0).shifts[0][0] == ((2,),)
    assert v_of(e0) == (2,)


def test_ext_top_of_koszul_residue_field_is_k_in_degree_zero():
    # Ext^3(k, P(-3)) = k on k[x,y,z]: Ext^3(k, P) is k(3), one copy of k in
    # degree -3, and the twist by -3 moves it to degree 0
    R = std_ring(names=("x", "y", "z"))
    k = cyc(R, "x", "y", "z")
    top = ext_dual_module(k, 3)
    assert [graded_piece_dim(top, (n,)) for n in range(-3, 4)] == [0, 0, 0, 1, 0, 0, 0]
    assert all(is_zero_module(ext_dual_module(k, i)) for i in range(3))


@pytest.fixture
def fresh_ext_cache():
    ext_dual_module.cache_clear()
    yield
    ext_dual_module.cache_clear()


def test_ext_refuses_a_resolution_that_is_not_a_complex(monkeypatch, fresh_ext_cache):
    # d_2 = (a, b) with a x + b y = 0; negating a leaves d_1 d_2 = -2 a x
    R = std_ring()
    k = cyc(R, "x", "y")
    res = minimal_free_resolution(k)
    assert is_zero_module(ext_dual_module(k, 1))
    ext_dual_module.cache_clear()
    (a, b), = res.differentials[1]
    broken = replace(res, differentials=(res.differentials[0], ((-a, b),)))
    assert not check_complex(broken)
    monkeypatch.setattr(hom, "minimal_free_resolution", lambda module: broken)
    with pytest.raises(AssertionError, match="not a complex"):
        ext_dual_module(k, 1)


def _ext_by_syzygies_and_lifts(M, i):
    """Ext^i(M, P(-w_total)) as it was presented before the cokernel and
    modulo routes: generated by the kernel K of the transposed d_{i+1}, or by
    all of D^i at the top index, with the syzygies of K's generators and the
    lifts of the image columns as relations.  Both are read off the
    syzygies of (K's generators, image columns), as their first coordinates.
    None where Ext^i is presented as the zero module."""
    ring = M.ring
    res = minimal_free_resolution(M)
    if res.rank(0) == 0 or i > res.length:
        return None
    cm, cw = _dual_twist(ring)

    def dual(j):
        md, w = res.shifts[j]
        return [(deg_sub(cm, d), cw - x) for d, x in zip(md, w)]

    d_i = free_module(ring, dual(i))
    if i < res.length:
        delta_next = _transpose_columns(res.differentials[i], res.rank(i))
        kernel = module_kernel(d_i, delta_next, free_presentation(ring, dual(i + 1)))
    else:
        kernel = basis_multiples(ring.one(), d_i.rank)
    if not kernel:
        return None
    image = ()
    if i >= 1:
        image = tuple(c for c in _transpose_columns(res.differentials[i - 1], res.rank(i - 1))
                      if any(not e.is_zero() for e in c))
    _, syz = syzygy_basis(d_i, tuple(kernel) + image)
    s = len(kernel)
    rels = [col[:s] for col in syz if any(not e.is_zero() for e in col[:s])]
    return presentation(ring, [d_i.column_degree(c) for c in kernel], rels)


def _check_ext_matches_syzygies_and_lifts(M):
    for i in range(M.ring.nvars + 1):
        got, want = ext_dual_module(M, i), _ext_by_syzygies_and_lifts(M, i)
        if want is None:
            assert got.rank == 0, (M, i)
            continue
        assert (got.mdeg_shifts, got.weight_shifts) == (want.mdeg_shifts, want.weight_shifts), (M, i)
        assert _relations_gb(got).reducers == _relations_gb(want).reducers, (M, i)


def test_ext_matches_syzygies_and_lifts_on_corpus():
    modules = [M for _label, M in _corpus_modules()]
    assert len(modules) == 21
    for M in modules:
        _check_ext_matches_syzygies_and_lifts(M)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_binomial_modules())
def test_ext_matches_syzygies_and_lifts_on_binomial_modules(M):
    # most draws are not Cohen-Macaulay, so Ext below the top index, where
    # the image is not all of the relations, is nonzero in many of them
    _check_ext_matches_syzygies_and_lifts(M)


@st.composite
def _cm_rees_modules(draw):
    """Rees modules of one or two ideals over k[a,b,c], every variable of
    multidegree 0 and weight 1, of N free of rank 1 or N = A/(a): each ideal
    has one or two generators, monomials or binomials of degree 1 or 2.
    Only Cohen-Macaulay ones are kept."""
    r = draw(st.integers(1, 2))
    A = GradedRing(field_for_char(32003), ("a", "b", "c"), ((0,) * r,) * 3, (1, 1, 1))
    monos = [e for d in (1, 2) for e in itertools.product(range(3), repeat=3) if sum(e) == d]
    ideals = []
    for _ in range(r):
        gens = []
        for _ in range(draw(st.integers(1, 2))):
            e = draw(st.sampled_from(monos))
            f = A.monomial(e)
            same = [e2 for e2 in monos if sum(e2) == sum(e) and e2 != e]
            if draw(st.booleans()):
                f = f - A.monomial(draw(st.sampled_from(same)), draw(st.integers(1, 5)))
            gens.append(f)
        ideals.append(tuple(gens))
    N = free_presentation(A, (((0,) * r, 0),))
    if draw(st.booleans()):
        N = cyclic_presentation(A, (A.var("a"),))
    T = rees_module_presentation(N, tuple(ideals))
    assume(is_cohen_macaulay(T).cm)
    return T


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(_cm_rees_modules())
def test_ext_matches_syzygies_and_lifts_on_cm_rees_modules(T):
    _check_ext_matches_syzygies_and_lifts(T)


@st.composite
def _presentations_with_constants(draw):
    """A `_binomial_modules` draw with up to two more relation columns, each a
    constant at a drawn component plus, at each other component, a monomial
    of the same degree or nothing."""
    M = draw(_binomial_modules())
    ring, free = M.ring, M.free()
    monos = list(itertools.product(range(3), repeat=ring.nvars))

    def degree(c, e):
        return (deg_add(ring.monomial_mdeg(e), free.mdeg_shifts[c]),
                ring.monomial_weight(e) + free.weight_shifts[c])

    cols = list(M.relations)
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(0, M.rank - 1))
        col = [ring.zero()] * M.rank
        col[c] = ring.const(draw(st.integers(1, 5)))
        for c2 in range(M.rank):
            same = [e for e in monos if degree(c2, e) == degree(c, (0,) * ring.nvars)]
            if c2 != c and same and draw(st.booleans()):
                col[c2] = ring.monomial(draw(st.sampled_from(same)), draw(st.integers(1, 5)))
        cols.append(tuple(col))
    return presentation(ring, tuple(zip(free.mdeg_shifts, free.weight_shifts)), cols)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_presentations_with_constants())
def test_unit_lead_components_match_the_basis(M):
    # the components e_c that lead a basis element; without a constant entry
    # the answer comes with no basis at all
    rels = tuple(c for c in M.relations if any(not e.is_zero() for e in c))
    leads = groebner_module(M.free(), rels).lead_terms if rels else ()
    assert _unit_lead_components(M) == frozenset(c for c, e in leads if not any(e))


def test_a_invariants():
    R = std_ring()
    assert a_invariant(cyc(R)) == (-2,)
    assert a_invariant(cyc(R, "x", "y")) == (0,)
    assert a_invariant(cyc(R, "x*y")) == (0,)
    R2 = bigraded_ring()
    assert a_invariant(cyc(R2)) == (-1, -1)


def test_grade_values():
    R = std_ring()
    x, y = R.gens()
    assert grade_of((x, y)) == 2
    assert grade_of((x,)) == 1
    assert grade_of((x * y, x * x)) == 1
    assert grade_of((R.zero(), y)) == 1
    assert grade_of((R.one(),)) is None


def test_grade_rejects_zero_ideal_and_mixed_rings():
    R = std_ring()
    x, _ = R.gens()
    with pytest.raises(InputError, match="grade of the zero ideal"):
        grade_of(())
    with pytest.raises(InputError, match="grade of the zero ideal"):
        grade_of((R.zero(),))
    other = std_ring(names=("u", "v"))
    with pytest.raises(InputError, match="different rings"):
        grade_of((x, other.gens()[0]))


def _min_vertex_cover(supports, nvars):
    """Fewest variables meeting every support; None if a support is empty."""
    if any(not s for s in supports):
        return None
    for size in range(nvars + 1):
        for cover in itertools.combinations(range(nvars), size):
            if all(s & set(cover) for s in supports):
                return size
    raise AssertionError("the set of every variable is a cover")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_binomial_quotients(st.sampled_from((0, 0, 1, 1, 2)), max_gens=6))
def test_grade_is_min_vertex_cover_of_initial_ideal(M):
    # dim P/I = dim P/in(I), and the height of a monomial ideal is the least
    # number of variables that meet the support of every generator; sparse
    # exponents and up to six generators draw grades 1 to 3 and unit ideals
    gens = tuple(col[0] for col in M.relations)
    leads = groebner_basis(M.ring, gens).lead_terms
    supports = [{v for v, k in enumerate(exps) if k} for _comp, exps in leads]
    assert grade_of(gens) == _min_vertex_cover(supports, M.ring.nvars)
