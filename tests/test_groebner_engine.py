"""Groebner bases, syzygies, kernels, colons, elimination."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mgcm.graded_poly import (
    GradedRing,
    InputError,
    deg_add,
    field_for_char,
    parse_polynomial,
    substitute,
)
from mgcm.groebner_engine import (
    BASIS_CACHE_SIZE,
    FreeModule,
    GroebnerBasis,
    _col_to_vec,
    _divides,
    basis_multiples,
    colon_in_quotient,
    cyclic_presentation,
    eliminate_module,
    free_module,
    free_presentation,
    groebner_basis,
    groebner_module,
    ideal_power_product,
    module_kernel,
    normal_form,
    normal_form_column,
    submodule_contains,
    submodules_equal,
    syzygy_basis,
    presentation,
)
from mgcm.homological import _relations_gb, ext_dual_module, minimal_free_resolution
from mgcm.rees_constructions import _rees_module, rees_module_presentation
from test_homological import _binomial_modules


def std_ring(char=0, names=("x", "y")):
    return GradedRing(field_for_char(char), names, tuple((1,) for _ in names),
                      tuple(1 for _ in names))


def P(ring, s):
    return parse_polynomial(ring, s)


# ---------------------------------------------------------------------------
# ideals


def test_reduced_basis_of_conic_pair():
    R = std_ring()
    gb = groebner_basis(R, (P(R, "x^2 - y^2"), P(R, "x*y")))
    polys = [col[0] for col in gb.elements]
    nf = lambda s: normal_form(gb, P(R, s))
    assert nf("x^2").is_homogeneous() and nf("x^2") == P(R, "y^2")
    assert nf("x^3").is_zero()
    assert nf("y^3").is_zero()
    assert nf("y^2") == P(R, "y^2")
    assert len(polys) == 3


def test_stored_lead_terms_and_identity():
    R = std_ring(names=("x", "y", "z"))
    fm = free_module(R, (((0,), 0), ((1,), 1)))
    gens = (
        (P(R, "x^2"), P(R, "y")),
        (P(R, "x*y - z^2"), R.zero()),
        (R.zero(), P(R, "y*z + x^2")),
    )
    gb = groebner_module(fm, gens)
    key = gb.term_key()
    assert gb.lead_terms == tuple(max(v, key=key) for _, v in gb.reducers)
    assert tuple(_col_to_vec(col) for col in gb.elements) == tuple(v for _, v in gb.reducers)
    nf = normal_form_column(gb, (P(R, "x^3*y"), P(R, "x^2*z")))
    assert nf == normal_form_column(gb, (P(R, "x^3*y"), P(R, "x^2*z")))
    fresh = groebner_module.__wrapped__(fm, gens)
    assert fresh is not gb and fresh != gb  # bases compare by identity
    assert fresh.elements == gb.elements and fresh.reducers == gb.reducers


@st.composite
def _generator_cases(draw):
    """Homogeneous generators over k[x0..x_{v-1}] (x0 of weight 1, each
    variable's multidegree its weight) in a free module of rank 1-2, and a
    nonempty set of variables other than x0 to eliminate; some generators
    avoid those variables."""
    nvars = draw(st.integers(2, 4))
    weights = (1,) + tuple(draw(st.integers(1, 2)) for _ in range(nvars - 1))
    names = tuple(f"x{i}" for i in range(nvars))
    ring = GradedRing(field_for_char(32003), names, tuple((w,) for w in weights), weights)
    drop = draw(st.lists(st.sampled_from(names[1:]), min_size=1, unique=True))
    rank = draw(st.integers(1, 2))
    shifts = tuple(draw(st.integers(0, 1)) for _ in range(rank))
    free = free_module(ring, tuple(((s,), s) for s in shifts))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        top = draw(st.integers(max(shifts), max(shifts) + 2))
        clean = draw(st.booleans())
        col = []
        for s in shifts:
            monos = [e for e in itertools.product(range(top - s + 1), repeat=nvars)
                     if sum(a * w for a, w in zip(e, weights)) == top - s
                     and not (clean and any(e[names.index(nm)] for nm in drop))]
            terms = draw(st.lists(st.sampled_from(monos), max_size=2, unique=True))
            entry = ring.zero()
            for e in terms:
                entry = entry + ring.monomial(e, draw(st.integers(1, 5)))
            col.append(entry)
        if all(e.is_zero() for e in col):
            col[0] = ring.monomial((top - shifts[0],) + (0,) * (nvars - 1))
        gens.append(tuple(col))
    return free, tuple(gens), tuple(drop)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_generator_cases())
def test_syzygy_basis_columns_are_syzygies(case):
    free, gens, _ = case
    ring = free.ring
    syz_free, syz = syzygy_basis(free, gens)
    degs = [free.column_degree(g) for g in gens]
    assert syz_free.mdeg_shifts == tuple(d for d, _ in degs)
    assert syz_free.weight_shifts == tuple(w for _, w in degs)
    for col in syz:
        syz_free.validate_column(col)
        assert any(not e.is_zero() for e in col)
        for c in range(free.rank):
            total = ring.zero()
            for a, g in zip(col, gens):
                total = total + a * g[c]
            assert total.is_zero()
    if free.rank == 1:
        # every Koszul syzygy g_j e_i - g_i e_j lies in the span
        for i, j in itertools.combinations(range(len(gens)), 2):
            kos = tuple(gens[j][0] if k == i else -gens[i][0] if k == j else ring.zero()
                        for k in range(len(gens)))
            assert submodule_contains(syz_free, syz, kos)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_generator_cases())
def test_eliminate_module_columns_avoid_dropped_variables(case):
    free, gens, drop = case
    ring = free.ring
    sub_free, cols = eliminate_module(free, gens, drop)
    sub = sub_free.ring
    assert sub.names == tuple(nm for nm in ring.names if nm not in drop)
    for col in cols:
        assert all(e.ring is sub for e in col)
        assert submodule_contains(free, gens, tuple(substitute(e, ring, {}) for e in col))
    for g in gens:
        if not any(e[ring.var_index(nm)] for entry in g for e, _ in entry.terms for nm in drop):
            assert submodule_contains(sub_free, cols, tuple(substitute(e, sub, {}) for e in g))


def test_equal_eliminations_share_their_ring():
    R = GradedRing(field_for_char(0), ("x", "y", "t"), ((2,), (3,), (1,)), (2, 3, 1))
    x, y, t = R.gens()
    free = free_module(R, (((0,), 0),))
    first, _ = eliminate_module(free, ((x - t * t,), (y - t * t * t,)), ("t",))
    second, _ = eliminate_module(free, [(x - t ** 2,), (y - t ** 3,)], ["t"])
    assert first.ring is second.ring


def test_groebner_requires_homogeneous():
    R = std_ring()
    with pytest.raises(InputError):
        groebner_basis(R, (P(R, "x^2 + y"),))


VALIDATING_ENTRY_POINTS = {
    "presentation": lambda R, fm, good, col: presentation(R, (((0,), 0),), (col,)),
    "groebner_basis": lambda R, fm, good, col: groebner_basis(R, col),
    "eliminate_module": lambda R, fm, good, col: eliminate_module(fm, (good, col), ("x",)),
    "submodule_contains": lambda R, fm, good, col: submodule_contains(fm, (good, col), good),
    "submodules_equal": lambda R, fm, good, col: submodules_equal(fm, (good,), (good, col)),
    "module_kernel": lambda R, fm, good, col: module_kernel(
        fm, (col,), free_presentation(R, (((0,), 0),))),
}


@pytest.mark.parametrize("entry", sorted(VALIDATING_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["x^2 + y", "u"], ids=["inhomogeneous", "foreign-ring"])
def test_every_entry_point_validates_its_columns(entry, bad):
    # Buchberger does not check columns, so every public entry point that
    # takes raw columns must refuse a bad one before a basis is built
    R = std_ring()
    col = (P(std_ring(names=("u", "v")) if bad == "u" else R, bad),)
    fm = free_module(R, (((0,), 0),))
    with pytest.raises(InputError):
        VALIDATING_ENTRY_POINTS[entry](R, fm, (P(R, "x"),), col)


def test_groebner_deterministic_and_monic():
    R = std_ring(char=32003)
    gens = (P(R, "3*x^2 - y^2"), P(R, "5*x*y"))
    gb1 = groebner_basis(R, gens)
    gb2 = groebner_basis(R, tuple(reversed(gens)))
    assert gb1.elements == gb2.elements
    for col in gb1.elements:
        assert col[0].lead_coeff() == 1


def test_normal_form_is_linear():
    R = std_ring()
    gb = groebner_basis(R, (P(R, "x^2"),))
    f, g = P(R, "x^3 + x*y^2"), P(R, "y^3")
    assert normal_form(gb, f + g) == normal_form(gb, f) + normal_form(gb, g)


# ---------------------------------------------------------------------------
# syzygies


def test_koszul_syzygy():
    R = std_ring()
    x, y = R.gens()
    free = free_module(R, (((0,), 0),))
    syz_free, syz = syzygy_basis(free, ((x,), (y,)))
    assert syz_free.mdeg_shifts == ((1,), (1,))
    assert syz_free.weight_shifts == (1, 1)
    assert submodules_equal(syz_free, syz, ((R.zero() - y, x),))


def test_syzygy_of_redundant_generators():
    R = std_ring()
    x, _ = R.gens()
    free = free_module(R, (((0,), 0),))
    _, syz = syzygy_basis(free, ((x,), (x,)))
    syz_free = FreeModule(R, ((1,), (1,)), (1, 1))
    assert submodule_contains(syz_free, syz, (R.one(), R.const(-1)))


def test_one_nonzero_column_has_no_syzygies_and_takes_no_basis():
    # P is a domain, so a (x^2 e_0 + y e_1) = 0 forces a = 0
    R = std_ring()
    x, y = R.gens()
    free = free_module(R, (((0,), 0), ((1,), 1)))
    misses = groebner_module.cache_info().misses
    syz_free, syz = syzygy_basis(free, ((x * x, y),))
    assert syz == ()
    assert (syz_free.mdeg_shifts, syz_free.weight_shifts) == (((2,),), (2,))
    assert groebner_module.cache_info().misses == misses
    with pytest.raises(InputError, match="zero generator"):
        syzygy_basis(free, ((R.zero(), R.zero()),))
    # two columns, even equal ones, still go through the basis
    line = free_module(R, (((0,), 0),))
    syz_free, syz = syzygy_basis(line, ((x,), (x,)))
    assert syz and submodules_equal(syz_free, syz, ((R.one(), R.const(-1)),))


def test_module_kernel_to_a_quotient_contains_one_for_a_target_in_the_image():
    # x^2 y lies in (x^2, xy), so every multiple of it does
    R = std_ring()
    x, y = R.gens()
    source = free_module(R, (((3,), 3),))
    quotient = presentation(R, (((0,), 0),), ((x * x,), (x * y,)))
    assert module_kernel(source, ((x * x * y,),), quotient) == ((R.one(),),)


def test_module_kernel_to_a_quotient_misses_a_target_outside_the_image():
    # y^2 is not in (x), and a y^2 is exactly when x divides a
    R = std_ring()
    x, y = R.gens()
    source = free_module(R, (((2,), 2),))
    quotient = presentation(R, (((0,), 0),), ((x,),))
    assert module_kernel(source, ((y * y,),), quotient) == ((x,),)


# ---------------------------------------------------------------------------
# kernels and colons


def test_module_kernel_koszul():
    R = std_ring()
    x, y = R.gens()
    source = free_module(R, (((1,), 1), ((1,), 1)))
    target = free_presentation(R, (((0,), 0),))
    ker = module_kernel(source, ((x,), (y,)), target)
    assert submodules_equal(source, ker, ((R.zero() - y, x),))


def test_module_kernel_with_zero_column():
    R = std_ring()
    x, _ = R.gens()
    source = free_module(R, (((0,), 0), ((1,), 1)))
    target = free_presentation(R, (((0,), 0),))
    ker = module_kernel(source, ((R.zero(),), (x,)), target)
    assert submodule_contains(source, ker, (R.one(), R.zero()))


def test_kernel_into_quotient():
    # kernel of R -> R/(x^2, xy) is the ideal itself
    R = std_ring()
    x, y = R.gens()
    source = free_module(R, (((0,), 0),))
    target = cyclic_presentation(R, (x * x, x * y))
    ker = module_kernel(source, ((R.one(),),), target)
    assert submodules_equal(source, ker, ((x * x,), (x * y,)))


def _term_degree(free, c, e):
    ring = free.ring
    return (deg_add(ring.monomial_mdeg(e), free.mdeg_shifts[c]),
            ring.monomial_weight(e) + free.weight_shifts[c])


@st.composite
def _homogeneous_column(draw, free, max_exp=2):
    """A nonzero homogeneous column of the free module: a monomial times a
    basis element, plus up to two terms of the same degree."""
    ring = free.ring
    monos = list(itertools.product(range(max_exp + 1), repeat=ring.nvars))
    c, e = draw(st.integers(0, free.rank - 1)), draw(st.sampled_from(monos))
    deg = _term_degree(free, c, e)
    same = [(c2, e2) for c2 in range(free.rank) for e2 in monos
            if (c2, e2) != (c, e) and _term_degree(free, c2, e2) == deg]
    extra = draw(st.lists(st.sampled_from(same), max_size=2, unique=True)) if same else []
    col = [ring.zero()] * free.rank
    for c2, e2 in [(c, e)] + extra:
        col[c2] = col[c2] + ring.monomial(e2, draw(st.integers(1, 5)))
    return tuple(col)


@st.composite
def _kernel_cases(draw):
    """A target drawn from `_binomial_quotients` (through `_binomial_modules`:
    rank 1-2, with relations) and 1-4 image columns: zero, a drawn
    homogeneous column, or a monomial times a relation."""
    target = draw(_binomial_modules())
    tfree, ring = target.free(), target.ring
    images, shifts = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("zero", "column", "column", "relation")))
        if kind == "relation" and target.relations:
            e = draw(st.tuples(*[st.integers(0, 1)] * ring.nvars))
            col = tuple(ring.monomial(e) * f for f in draw(st.sampled_from(target.relations)))
        else:
            col = draw(_homogeneous_column(tfree))
        shift = tfree.column_degree(col)
        if kind == "zero":
            col = (ring.zero(),) * tfree.rank
        images.append(col)
        shifts.append(shift)
    return free_module(ring, shifts), tuple(images), target


def _kernel_by_syzygies(source, images, target):
    """The kernel the long way: the first coordinates of every syzygy of the
    nonzero images together with the relations; a zero image gives its unit
    column."""
    ring = source.ring
    zero = ring.zero()
    live = [j for j, col in enumerate(images) if any(not e.is_zero() for e in col)]
    rels = [col for col in target.relations if any(not e.is_zero() for e in col)]
    units = basis_multiples(ring.one(), source.rank)
    out = [units[j] for j in range(source.rank) if j not in live]
    if live:
        _, syz = syzygy_basis(target.free(), [images[j] for j in live] + rels)
        for col in syz:
            full = [zero] * source.rank
            for pos, j in enumerate(live):
                full[j] = col[pos]
            if any(not e.is_zero() for e in full):
                out.append(tuple(full))
    return out


def _reduced_basis_of(free, cols):
    cols = tuple(c for c in cols if any(not e.is_zero() for e in c))
    return groebner_module(free, cols).reducers if cols else ()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_kernel_cases())
def test_module_kernel_matches_the_syzygy_route(case):
    source, images, target = case
    tfree, ring = target.free(), target.ring
    got = module_kernel(source, images, target)
    assert _reduced_basis_of(source, got) == \
        _reduced_basis_of(source, _kernel_by_syzygies(source, images, target))
    for col in got:
        source.validate_column(col)
        assert any(not e.is_zero() for e in col)
        image = tuple(sum((a * img[c] for a, img in zip(col, images)), ring.zero())
                      for c in range(tfree.rank))
        assert submodule_contains(tfree, target.relations, image)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_kernel_cases())
def test_module_kernel_is_units_then_a_reduced_basis(case):
    # with the target block dominant, the elements of a reduced `modulo`
    # basis that have no target part are the kernel's reduced basis
    source, images, target = case
    got = module_kernel(source, images, target)
    zero = [j for j, col in enumerate(images) if all(e.is_zero() for e in col)]
    units = basis_multiples(source.ring.one(), source.rank)
    assert got[:len(zero)] == tuple(units[j] for j in zero)
    rest = got[len(zero):]
    assert rest == groebner_module(source, rest).elements


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_generator_cases())
def test_syzygy_basis_is_the_kernel_to_the_free_target(case):
    free, gens, _ = case
    syz_free, syz = syzygy_basis(free, gens)
    target = free_presentation(free.ring, tuple(zip(free.mdeg_shifts, free.weight_shifts)))
    assert syz == module_kernel(syz_free, gens, target)
    assert syz == groebner_module(syz_free, syz).elements


def test_colon_ideal():
    R = std_ring()
    x, y = R.gens()
    module = free_presentation(R, (((0,), 0),))
    got = colon_in_quotient(module, ((x * x,), (x * y,)), (x,))
    assert submodules_equal(module.free(), got, ((x,), (y,)))


def test_colon_by_two_elements():
    # ((x^2) : (x, y)) = (x^2) : x  intersect  (x^2) : y = (x) cap (x^2) = (x^2)
    R = std_ring()
    x, y = R.gens()
    module = free_presentation(R, (((0,), 0),))
    got = colon_in_quotient(module, ((x * x,),), (x, y))
    assert submodules_equal(module.free(), got, ((x * x,),))


@st.composite
def _colon_cases(draw):
    """A module drawn by `_binomial_modules`, up to two drawn columns of its
    free cover as U, and one or two drawn forms as I."""
    module = draw(_binomial_modules())
    ring = module.ring
    sub = draw(st.lists(_homogeneous_column(module.free()), max_size=2))
    line = free_module(ring, (((0,) * ring.rank, 0),))
    ideal = draw(st.lists(_homogeneous_column(line), min_size=1, max_size=2))
    return module, tuple(sub), tuple(f for (f,) in ideal)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_colon_cases())
def test_colon_is_its_own_reduced_basis(case):
    module, sub, ideal = case
    free = module.free()
    got = colon_in_quotient(module, sub, ideal)
    assert got == groebner_module(free, got).elements
    assert all(submodule_contains(free, got, col) for col in sub + module.relations)


def _minimal_monomials(monos):
    monos = set(monos)
    return {m for m in monos
            if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in monos)}


def _monomial_colon(gens, ideal):
    """Minimal generators of (gens : ideal) for monomial ideals given by
    exponent vectors: (gens : x^a) = (x^max(b - a, 0) : b in gens), and an
    intersection of monomial ideals is generated by lcms of generator pairs."""
    meet = None
    for a in ideal:
        part = {tuple(max(x - y, 0) for x, y in zip(b, a)) for b in gens}
        if meet is not None:
            part = {tuple(map(max, m, q)) for m in meet for q in part}
        meet = _minimal_monomials(part)
    return meet


@st.composite
def _monomial_colon_cases(draw):
    """U = (+)_c U_c e_c with monomial U_c over a free module of rank 1-2 with
    nonzero shifts, split between relations and sub_gens, and a monomial I."""
    nvars = draw(st.integers(2, 4))
    ring = GradedRing(field_for_char(32003), tuple(f"x{i}" for i in range(nvars)),
                      tuple((1,) for _ in range(nvars)),
                      tuple(draw(st.integers(1, 2)) for _ in range(nvars)))
    rank = draw(st.integers(1, 2))
    nonzero = st.integers(-2, 2).filter(bool)
    shifts = tuple(((draw(nonzero),), draw(nonzero)) for _ in range(rank))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    comps = [draw(st.lists(exps, max_size=3)) for _ in range(rank)]
    rels, sub = [], []
    for c, monos in enumerate(comps):
        for e in monos:
            col = tuple(ring.monomial(e) if i == c else ring.zero() for i in range(rank))
            (rels if draw(st.booleans()) else sub).append(col)
    ideal = draw(st.lists(st.tuples(*[st.integers(0, 2)] * nvars), min_size=1, max_size=3))
    return presentation(ring, shifts, rels), tuple(sub), comps, ideal


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_monomial_colon_cases())
def test_colon_matches_monomial_oracle(case):
    module, sub, comps, ideal = case
    ring = module.ring
    got = colon_in_quotient(module, sub, tuple(ring.monomial(a) for a in ideal))
    terms = set()
    for col in got:
        ((c, entry),) = [(c, e) for c, e in enumerate(col) if not e.is_zero()]
        ((e, coeff),) = entry.terms
        assert coeff == 1
        terms.add((c, e))
    want = {(c, m) for c, monos in enumerate(comps) for m in _monomial_colon(monos, ideal)}
    assert len(terms) == len(got) and terms == want


# ---------------------------------------------------------------------------
# products and elimination


def test_ideal_power_product():
    R = std_ring()
    x, y = R.gens()
    got = ideal_power_product(((x, y), (x,)), (2, 1))
    free = free_module(R, (((0,), 0),))
    expected = ((x ** 3,), (x * x * y,), (x * y * y,))
    assert submodules_equal(free, tuple((g,) for g in got), expected)


def test_ideal_power_zero_exponent():
    R = std_ring()
    x, y = R.gens()
    got = ideal_power_product(((x, y),), (0,))
    assert [str(g) for g in got] == [str(R.one())]


def _power_product_reference(ideals, exps):
    """`ideal_power_product` as it was first written: every product starts
    at 1 and takes its factors one at a time."""
    ring = next(g.ring for gens in ideals for g in gens)
    factors = []
    for gens, e in zip(ideals, exps):
        gens = [g for g in gens if not g.is_zero()]
        if e == 0:
            continue
        prods = []
        for combo in itertools.combinations_with_replacement(range(len(gens)), e):
            p = ring.one()
            for i in combo:
                p = p * gens[i]
            prods.append(p)
        factors.append(prods)
    if not factors:
        return (ring.one(),)
    out = []
    for combo in itertools.product(*factors):
        p = ring.one()
        for q in combo:
            p = p * q
        if not p.is_zero():
            out.append(p)
    seen = {}
    for p in out:
        seen[p.terms] = p
    polys = list(seen.values())
    if all(len(p.terms) == 1 for p in polys):
        monos = [p.lead_exps() for p in polys]
        polys = [polys[i] for i, m in enumerate(monos)
                 if not any(j != i and _divides(monos[j], m) and monos[j] != m
                            for j in range(len(monos)))]
    polys.sort(key=lambda p: ring.term_sort_key(p.lead_exps()))
    return tuple(polys)


@st.composite
def _power_product_cases(draw):
    """1-3 ideals of 1-3 monomial or binomial generators each over k[x,y,z],
    over Q or F_32003, with exponents 0..3."""
    R = std_ring(draw(st.sampled_from((0, 32003))), ("x", "y", "z"))
    mono = st.tuples(*[st.integers(0, 2)] * 3)
    ideals = []
    for _ in range(draw(st.integers(1, 3))):
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            g = R.monomial(draw(mono), draw(st.integers(1, 4)))
            other = draw(mono)
            if draw(st.booleans()) and other != g.lead_exps():
                g = g - R.monomial(other, draw(st.integers(1, 4)))
            gens.append(g)
        ideals.append(tuple(gens))
    return tuple(ideals), tuple(draw(st.integers(0, 3)) for _ in ideals)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_power_product_cases())
def test_ideal_power_product_matches_its_first_form(case):
    ideals, exps = case
    got = ideal_power_product(ideals, exps)
    want = _power_product_reference(ideals, exps)
    assert [[(e, type(c), c) for e, c in p.terms] for p in got] == \
        [[(e, type(c), c) for e, c in p.terms] for p in want]
    assert [str(p) for p in got] == [str(p) for p in want]


@st.composite
def _submodule_pairs(draw):
    """Two generator lists in a free module of rank 1-2 over k[x,y,z]: the
    second is the first shuffled with redundant generators and zero columns
    added, the first with one coefficient changed (often the same lead
    terms, another submodule), or a fresh draw; either may be empty."""
    R = std_ring(32003, ("x", "y", "z"))
    rank = draw(st.integers(1, 2))
    free = free_module(R, tuple(((s,), s) for s in (draw(st.integers(0, 1)) for _ in range(rank))))
    zero_col = (R.zero(),) * rank
    a = draw(st.lists(_homogeneous_column(free, max_exp=1), max_size=3))
    how = draw(st.sampled_from(("redundant", "tweaked", "fresh"))) if a else "fresh"
    if how == "tweaked":
        b = list(a)
        j = draw(st.integers(0, len(a) - 1))
        c = draw(st.sampled_from([c for c, f in enumerate(a[j]) if not f.is_zero()]))
        e, _ = draw(st.sampled_from(a[j][c].terms))
        b[j] = tuple(f + R.monomial(e) if i == c else f for i, f in enumerate(a[j]))
    elif how == "redundant":
        b = list(a)
        for _ in range(draw(st.integers(0, 2))):
            col = draw(st.sampled_from(a))
            e = draw(st.tuples(*[st.integers(0, 1)] * 3))
            b.append(tuple(R.monomial(e, draw(st.integers(1, 5))) * f for f in col))
        b = draw(st.permutations(b))
    else:
        b = draw(st.lists(_homogeneous_column(free, max_exp=1), max_size=3))
    a = a + [zero_col] * draw(st.integers(0, 1))
    b = list(b) + [zero_col] * draw(st.integers(0, 1))
    return free, tuple(a), tuple(b)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_submodule_pairs())
def test_submodules_equal_is_containment_both_ways(case):
    free, a, b = case
    both = (all(submodule_contains(free, b, col) for col in a)
            and all(submodule_contains(free, a, col) for col in b))
    assert submodules_equal(free, a, b) == both
    assert submodules_equal(free, b, a) == both


def test_eliminate_monomial_curve():
    R = GradedRing(field_for_char(0), ("x", "y", "t"), ((2,), (3,), (1,)), (2, 3, 1))
    x, y, t = R.gens()
    free = free_module(R, (((0,), 0),))
    sub_free, cols = eliminate_module(free, ((x - t * t,), (y - t * t * t,)), ("t",))
    sub = sub_free.ring
    assert sub.names == ("x", "y")
    assert cols == ((parse_polynomial(sub, "x^3 - y^2"),),)


def test_eliminate_module_graph():
    # intersect the graph column with the subring in a rank 1 free module
    R = GradedRing(field_for_char(0), ("x", "t"), ((1,), (1,)), (1, 1))
    x, t = R.gens()
    free = free_module(R, (((0,), 0),))
    sub_free, cols = eliminate_module(free, ((x - t,), (t * t,)), ("t",))
    assert sub_free.ring.names == ("x",)
    (xs,) = sub_free.ring.gens()
    assert submodules_equal(sub_free, cols, ((xs * xs,),))


def test_groebner_module_cache_hits():
    R = std_ring()
    x, y = R.gens()
    free = free_module(R, (((0,), 0),))
    a = groebner_module(free, ((x,), (y,)))
    b = groebner_module(free, ((x,), (y,)))
    assert a is b


# ---------------------------------------------------------------------------
# the caches bounded by BASIS_CACHE_SIZE


def _cache_keys(cached):
    """The keys an lru_cache holds: the one dict among its referents that is
    not its __dict__ (CPython's C implementation)."""
    dicts = [d for d in gc.get_referents(cached) if isinstance(d, dict) and "__wrapped__" not in d]
    assert len(dicts) == 1
    return list(dicts[0])


def _reaches_a_basis(obj):
    seen, stack = set(), [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, GroebnerBasis):
            return True
        if isinstance(o, type) or id(o) in seen:
            continue
        seen.add(id(o))
        stack.extend(gc.get_referents(o))
    return False


def test_bounded_caches_rebuild_what_they_evict():
    """Build more than BASIS_CACHE_SIZE distinct values in three of the five
    bounded caches, then rebuild the first after its eviction: the rebuild
    equals the first build.

    `GroebnerBasis` compares by identity, so a key that held a basis would
    miss for good once that basis was evicted and built again, and would keep
    the old basis alive; so no key of the five caches may reach a basis."""
    R = std_ring()
    x, y = R.var("x"), R.var("y")
    fm = free_module(R, (((0,), 0),))
    exps = [(i, j) for i in range(17) for j in range(17)]
    assert len(exps) > BASIS_CACHE_SIZE

    def cached_twice(cached, build, first_arg, args):
        first = build(first_arg)
        for a in args:
            build(a)
        assert cached.cache_info().currsize <= BASIS_CACHE_SIZE
        misses = cached.cache_info().misses
        again = build(first_arg)
        assert cached.cache_info().misses == misses + 1
        return first, again

    mono = lambda e: ((x ** e[0] * y ** e[1],),)
    first, again = cached_twice(groebner_module, lambda e: groebner_module(fm, mono(e)), exps[0], exps[1:])
    assert again is not first
    assert again.reducers == first.reducers and again.elements == first.elements

    first, again = cached_twice(minimal_free_resolution, minimal_free_resolution,
                                cyclic_presentation(R, (x * x, x * y)),
                                [cyclic_presentation(R, (x ** i, y ** j)) for i, j in exps])
    assert (again.shifts, again.differentials) == (first.shifts, first.differentials)

    A = GradedRing(field_for_char(0), ("a", "b"), ((0,), (0,)), (1, 1))
    a, b = A.var("a"), A.var("b")
    N = free_presentation(A, (((0,), 0),))
    rees = lambda e: rees_module_presentation(N, ((a ** (e[0] + 1), b ** (e[1] + 1)),))
    first, again = cached_twice(_rees_module, rees, exps[0], exps[1:])
    assert again == first

    for cached in (groebner_module, _relations_gb, minimal_free_resolution, ext_dual_module,
                   _rees_module):
        assert cached.cache_info().maxsize == BASIS_CACHE_SIZE
        assert not _reaches_a_basis(_cache_keys(cached)), cached.__name__
