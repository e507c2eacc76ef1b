"""Blow-up presentations checked against hand-computed relation ideals,
piece counts from generator products, and classical invariant values."""

import pytest

import mgcm.rees_constructions as rc
from mgcm.graded_poly import GradedRing, InputError, RationalField, parse_polynomial
from mgcm.groebner_engine import (
    ModulePresentation,
    cyclic_presentation,
    eliminate_module,
    free_module,
    free_presentation,
    ideal_power_product,
    presentation,
    submodules_equal,
)
from mgcm.homological import (
    a_invariant,
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
    with pytest.raises(InputError):
        multi_rees_algebra_presentation(A, ((A.one(),),))


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

    def with_extra_column(free, gens, drop):
        subfree, cols = eliminate_module(free, gens, drop)
        return subfree, cols + (column(subfree.ring),)

    monkeypatch.setattr(rc, "eliminate_module", with_extra_column)


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
