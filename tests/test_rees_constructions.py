"""Blow-up presentations checked against hand-computed relation ideals,
piece counts from generator products, and classical invariant values."""

import itertools

import pytest

import mgcm.rees_constructions as rc
from mgcm.cohomology import SupportSpec, irrelevant_support
from mgcm.graded_poly import (
    GradedRing,
    InputError,
    RationalField,
    field_for_char,
    parse_polynomial,
    substitute,
)
from mgcm.groebner_engine import (
    ModulePresentation,
    _col_to_vec,
    basis_multiples,
    cyclic_presentation,
    eliminate_vecs,
    free_module,
    free_presentation,
    ideal_power_product,
    presentation,
    submodules_equal,
)
from mgcm.homological import (
    a_invariant,
    grade_of,
    graded_piece_dim,
    is_cohen_macaulay,
    krull_dim,
    v_of,
)
from mgcm.rees_constructions import (
    diagonal_of,
    fiber_cone_spread,
    irrelevant_piece_oracle,
    irrelevant_rees,
    multi_rees_algebra_presentation,
    rees_module_presentation,
    rees_piece_oracle,
)

QQ = RationalField()


def local_base(*names):
    return GradedRing(QQ, names, [(0,)] * len(names), [1] * len(names))


@pytest.fixture(scope="module")
def A():
    return local_base("a", "b")


def ideal_equal(ring, gens, text):
    fm = free_module(ring, (((0,) * ring.rank, 0),))
    expected = [(parse_polynomial(ring, t),) for t in text]
    return submodules_equal(fm, [(g,) for g in gens], expected)


# -- algebra presentations --------------------------------------------------


def test_principal_ideal_gives_free_extension(A):
    rees = multi_rees_algebra_presentation(A, ((A.var("a"),),))
    assert rees.relations == ()
    assert rees.ring.names == ("a", "b", "T")
    assert rees.ring.degrees == ((0,), (0,), (1,))
    assert rees.ring.weights == (1, 1, 1)


def test_single_two_generator_ideal_is_koszul(A):
    rees = multi_rees_algebra_presentation(A, ((A.var("a"), A.var("b")),))
    assert rees.ring.names == ("a", "b", "T", "U")
    assert len(rees.relations) == 1
    assert ideal_equal(rees.ring, [h for (h,) in rees.relations], ["b*T - a*U"])


def test_two_ideal_blowup_relation(A):
    rees = multi_rees_algebra_presentation(
        A, ((A.var("a"),), (A.var("a"), A.var("b")))
    )
    assert rees.ring.rank == 2
    assert rees.ring.names == ("a", "b", "T", "U", "V")
    assert rees.ring.degrees == ((0, 0), (0, 0), (1, 0), (0, 1), (0, 1))
    assert len(rees.relations) == 1
    assert ideal_equal(rees.ring, [h for (h,) in rees.relations], ["b*U - a*V"])


def test_ambient_is_public_ring(A):
    rees = multi_rees_algebra_presentation(A, ((A.var("a"), A.var("b")),))
    assert all(w >= 1 for w in rees.ring.weights)
    assert all(all(x >= 0 for x in d) for d in rees.ring.degrees)


def test_unit_ideal_rejected(A):
    N = free_presentation(A, (((0,), 0),))
    for call in (lambda: multi_rees_algebra_presentation(A, ((A.one(),),)),
                 lambda: rees_module_presentation(N, ((A.var("a"),), (A.var("b"), A.one())))):
        with pytest.raises(InputError, match="unit ideal cannot be blown up"):
            call()


GATE_GRID = ("a", "b^2", "a*b - 2*c^2", "a + b", "3", "1")


def test_grade_gate_refuses_exactly_where_grade_is_below_one():
    # the gate reads weights alone; over k[a,b,c] it must agree with the
    # grade read off a Groebner basis, on every ideal of up to three
    # generators from the grid, some of them constants
    B = local_base("a", "b", "c")
    polys = [parse_polynomial(B, t) for t in GATE_GRID]
    for size in range(1, 4):
        for gens in itertools.combinations(polys, size):
            g = grade_of(gens)
            try:
                rc._grade_gate(rc._check_blocks(B, (gens,)))
                refused = False
            except InputError as err:
                assert str(err) == "unit ideal cannot be blown up"
                refused = True
            assert refused == (g is None or g < 1), (gens, g)


def test_irrelevant_gate_names_its_ideal(monkeypatch):
    # the irrelevant ideal of a public ring is generated by variable
    # products, so only a planted constant generator trips the gate
    S = GradedRing(QQ, ("x", "y"), [(1,), (1,)], [1, 1])
    monkeypatch.setattr(rc, "irrelevant_support", lambda ring: SupportSpec("irrelevant", (ring.one(),)))
    with pytest.raises(InputError, match="irrelevant ideal must have positive grade"):
        irrelevant_rees(free_presentation(S, (((0,), 0),)))


def test_zero_generator_rejected(A):
    with pytest.raises(InputError):
        multi_rees_algebra_presentation(A, ((A.zero(),),))


def test_base_must_be_graded_local():
    S = GradedRing(QQ, ("x", "y"), [(1,), (1,)], [1, 1])
    with pytest.raises(InputError):
        multi_rees_algebra_presentation(S, ((S.var("x"),),))


# -- module presentations ---------------------------------------------------


def test_rank_one_free_module_recovers_algebra(A):
    N = free_presentation(A, (((0,), 0),))
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    mod = rees_module_presentation(N, blocks)
    rees = multi_rees_algebra_presentation(A, blocks)
    assert mod.ring == rees.ring
    fm = free_module(rees.ring, (((0, 0), 0),))
    assert submodules_equal(fm, mod.relations, rees.relations)


def test_module_pieces_match_generator_product_oracle(A):
    N = free_presentation(A, (((0,), 0),))
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    mod = rees_module_presentation(N, blocks)
    assert graded_piece_dim(mod, (1, 1), 2) == 2
    assert graded_piece_dim(mod, (1, 1), 3) == 3
    for n1 in range(3):
        for n2 in range(3):
            for w in range(5):
                assert graded_piece_dim(mod, (n1, n2), w) == rees_piece_oracle(
                    N, blocks, (n1, n2), w
                )


def test_cyclic_quotient_coefficients(A):
    N = cyclic_presentation(A, (A.var("b"),))
    mod = rees_module_presentation(N, ((A.var("a"),),))
    for n in range(4):
        assert graded_piece_dim(mod, (n,), n) == 1
        assert graded_piece_dim(mod, (n,), n + 2) == 1
    assert graded_piece_dim(mod, (2,), 1) == 0
    assert krull_dim(mod) == 2


def test_dimension_formula(A):
    N = free_presentation(A, (((0,), 0),))
    assert krull_dim(rees_module_presentation(N, ((A.var("a"),),))) == 3
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    assert krull_dim(rees_module_presentation(N, blocks)) == 4


def test_v_and_a_invariants(A):
    N = free_presentation(A, (((0,), 0),))
    koszul = rees_module_presentation(N, ((A.var("a"), A.var("b")),))
    assert v_of(koszul) == (0,)
    assert a_invariant(koszul) == (-1,)
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    mod = rees_module_presentation(N, blocks)
    assert v_of(mod) == (0, 0)
    assert a_invariant(mod) == (-1, -1)
    assert is_cohen_macaulay(mod).cm


def test_nonzero_multidegree_shift_rejected(A):
    N = presentation(A, (((1,), 0),), ())
    with pytest.raises(InputError):
        rees_module_presentation(N, ((A.var("a"),),))


@pytest.fixture
def fresh_rees_cache():
    # a patched elimination must neither reuse nor leave cached Rees modules
    rc._rees_module.cache_clear()
    yield
    rc._rees_module.cache_clear()


def _append_to_elimination(monkeypatch, column):
    """Make every blow-up's elimination return one more column, built by
    `column` from the eliminated ring."""

    def with_extra_column(free, vecs, drop):
        subfree, cols = eliminate_vecs(free, vecs, drop)
        return subfree, cols + (column(subfree.ring),)

    monkeypatch.setattr(rc, "eliminate_vecs", with_extra_column)


def test_tag_substitution_check_rejects_a_column_off_a_free_module(
    A, monkeypatch, fresh_rees_cache
):
    # T*e_0 maps to a*t*e_0, which is not zero in the free module
    _append_to_elimination(monkeypatch, lambda R: (R.var("T"),))
    N = free_presentation(A, (((0,), 0),))
    with pytest.raises(AssertionError, match="tag substitution check"):
        rees_module_presentation(N, ((A.var("a"), A.var("b")),))
    with pytest.raises(AssertionError, match="tag substitution check"):
        multi_rees_algebra_presentation(A, ((A.var("a"),),))
    S = GradedRing(QQ, ("x0", "x1"), [(1,), (1,)], [1, 1])
    with pytest.raises(AssertionError, match="tag substitution check"):
        irrelevant_rees(free_presentation(S, (((0,), 0),)))


def test_tag_substitution_check_accepts_only_columns_in_the_relations(
    A, monkeypatch, fresh_rees_cache
):
    N = cyclic_presentation(A, (A.var("b"),))
    blocks = ((A.var("a"), A.var("b")),)
    _append_to_elimination(monkeypatch, lambda R: (R.var("b"),))
    mod = rees_module_presentation(N, blocks)
    assert (mod.ring.var("b"),) in mod.relations
    rc._rees_module.cache_clear()
    _append_to_elimination(monkeypatch, lambda R: (R.var("a"),))
    with pytest.raises(AssertionError, match="tag substitution check"):
        rees_module_presentation(N, blocks)


def _polynomial_graph(M, blocks, free, drop):
    """As vecs, the columns of a blow-up's elimination built from
    polynomials: M's relations substituted into the tag ring, then
    basis_multiples(T - g * t_j) for each generator g of block j in turn."""
    R = free.ring
    cols = [tuple(substitute(e, R, {}) for e in col) for col in M.relations]
    tnames = iter(R.names[M.ring.nvars:R.nvars - len(drop)])
    for tag, gens in zip(drop, blocks):
        for g in gens:
            image = substitute(g, R, {}) * R.var(tag)
            cols.extend(basis_multiples(R.var(next(tnames)) - image, M.rank))
    return [_col_to_vec(col) for col in cols]


def test_blow_up_builds_the_polynomial_graph_as_vecs(A, monkeypatch, fresh_rees_cache):
    # the vecs each blow-up hands to the elimination, against the columns
    # built from substitute, * and -: a rank-2 module with weight shifts
    # and relations over two ideals (over Q), a Rees algebra, and the
    # irrelevant ideal of P^1 x P^1 (over F_p), whose ring appends a 0 to
    # the base degrees and gives the tag degree (-1, -1, 1)
    seen = []

    def recording(free, vecs, drop):
        seen.append((free, vecs, drop))
        return eliminate_vecs(free, vecs, drop)

    monkeypatch.setattr(rc, "eliminate_vecs", recording)
    a, b = A.gens()
    N = presentation(A, (((0,), 0), ((0,), 1)), [(a * a, b), (a * b, a - b)])
    ideals = ((a, b * b), (a * b,))
    P = GradedRing(field_for_char(32003), ("x0", "x1", "y0", "y1"),
                   ((1, 0), (1, 0), (0, 1), (0, 1)), (1, 1, 1, 1))
    Q = cyclic_presentation(P, (parse_polynomial(P, "x0*y1 - 3*x1*y0"),))
    builds = [
        (N, ideals, lambda: rees_module_presentation(N, ideals)),
        (free_presentation(A, (((0,), 0),)), ((a * a, a * b, b * b),),
         lambda: multi_rees_algebra_presentation(A, ((a * a, a * b, b * b),))),
        (Q, (irrelevant_support(P).generators,), lambda: irrelevant_rees(Q)),
    ]
    for M, blocks, build in builds:
        build()
        free, vecs, drop = seen.pop()
        assert vecs == _polynomial_graph(M, blocks, free, drop)
    assert free.ring.degrees[-1] == (-1, -1, 1)
    assert not seen


def test_elimination_core_refuses_an_inhomogeneous_vec():
    # x0*e_0 + x1^2*e_1 is homogeneous only when e_1 sits one degree
    # below e_0
    R = GradedRing(QQ, ("x0", "x1"), ((1,), (1,)), (1, 1))
    vec = {(0, (1, 0)): QQ.one, (1, (0, 2)): QQ.one}
    shifted = free_module(R, (((0,), 0), ((-1,), -1)))
    assert eliminate_vecs(shifted, [vec], ("x1",))[1] == ()
    with pytest.raises(InputError, match="inhomogeneous"):
        eliminate_vecs(free_module(R, (((0,), 0), ((0,), 0))), [vec], ("x1",))


# -- diagonals ----------------------------------------------------------------


def test_diagonal_of_algebra(A):
    # the Rees algebra is the Rees module of the free cyclic module
    N = free_presentation(A, (((0,), 0),))
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    value, cert = diagonal_of(N, blocks)
    product = ideal_power_product(blocks, (1, 1))
    assert ideal_equal(A, product, ["a^2", "a*b"])
    assert value == multi_rees_algebra_presentation(A, (product,))
    assert cert
    assert [graded_piece_dim(value, (n,), 2 * n) for n in range(3)] == [1, 2, 3]


def test_diagonal_rank_one_is_identity(A):
    N = free_presentation(A, (((0,), 0),))
    ideals = ((A.var("a"), A.var("b")),)
    value, cert = diagonal_of(N, ideals)
    assert value == rees_module_presentation(N, ideals)
    assert cert == ()


def test_diagonal_of_module(A):
    N = free_presentation(A, (((0,), 0),))
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    value, cert = diagonal_of(N, blocks)
    assert graded_piece_dim(value, (1,), 2) == 2
    assert cert


def test_diagonal_certificate_catches_a_wrong_piece(A, monkeypatch):
    real = rc.graded_piece_dim

    def off_by_one_on_rank_one(module, n, *rest):
        return real(module, n, *rest) + (1 if len(n) == 1 else 0)

    monkeypatch.setattr(rc, "graded_piece_dim", off_by_one_on_rank_one)
    N = cyclic_presentation(A, (A.var("b"),))
    blocks = ((A.var("a"),), (A.var("a"), A.var("b")))
    with pytest.raises(AssertionError, match="diagonal certificate failed"):
        diagonal_of(N, blocks)


# -- fiber cones --------------------------------------------------------------


def test_analytic_spreads(A):
    a, b = A.var("a"), A.var("b")
    assert fiber_cone_spread((a,)) == 1
    assert fiber_cone_spread((a, b)) == 2
    assert fiber_cone_spread((a * a, a * b)) == 2


# -- the regraded module of the irrelevant ideal ------------------------------


def test_regraded_line(A):
    S = GradedRing(QQ, ("x",), [(1,)], [1])
    M = free_presentation(S, (((0,), 0),))
    blow = irrelevant_rees(M)
    assert isinstance(blow, ModulePresentation)
    assert blow.ring.names == ("x", "T")
    assert blow.ring.degrees == ((1, 0), (0, 1))
    assert blow.relations == ()
    assert graded_piece_dim(blow, (1, 2)) == 1
    assert irrelevant_piece_oracle(M, (1,), 2) == 1


def test_regraded_projective_line():
    S = GradedRing(QQ, ("x0", "x1"), [(1,), (1,)], [1, 1])
    M = free_presentation(S, (((0,), 0),))
    blow = irrelevant_rees(M)
    assert len(blow.relations) == 1
    (rel,) = blow.relations
    assert ideal_equal(blow.ring, rel, ["x1*T - x0*U"])
    for n in range(4):
        assert graded_piece_dim(blow, (n, 0)) == graded_piece_dim(M, (n,))


def test_regraded_quotient_window_matches_oracle():
    S = GradedRing(QQ, ("x0", "x1", "y0", "y1"), [(1, 0), (1, 0), (0, 1), (0, 1)], [1] * 4)
    M = cyclic_presentation(S, (S.var("x0") * S.var("y0"),))
    blow = irrelevant_rees(M)
    for n1 in range(-1, 2):
        for n2 in range(-1, 2):
            for k in range(3):
                engine = graded_piece_dim(blow, (n1, n2, k))
                assert engine == irrelevant_piece_oracle(M, (n1, n2), k)
    # pieces vanish once some coordinate drops below every generator degree
    assert v_of(M) == (0, 0)
    for k in range(3):
        assert graded_piece_dim(blow, (-1, 3, k)) == 0
