"""Ratchets on the package source: counts that may fall but never rise."""

import pathlib

import pytest

import mgcm
from mgcm import cohomology, groebner_engine, homological, rees_constructions
from mgcm.cohomology import (
    SupportSpec,
    degree_box,
    irrelevant_support,
    local_cohomology_dim,
    maximal_support,
    sheaf_cohomology_dim,
    variables_support,
)
from mgcm.graded_poly import GradedRing, InputError, field_for_char, parse_polynomial
from mgcm.groebner_engine import (
    cyclic_presentation,
    free_module,
    free_presentation,
    groebner_module,
    module_kernel,
)
from mgcm.homological import a_invariant, graded_piece_dim, piece_basis
from mgcm.rees_constructions import rees_module_presentation

# lower these as caches move onto owners or get a bound; never raise them
MAX_LRU_CACHES = 9
MAX_UNBOUNDED_CACHES = 3
# Groebner bases built for one a-invariant of a Rees algebra over k[a,b,c];
# lower them as the duality route takes fewer, never raise them
MAX_A_INVARIANT_BASES = {("a", "b^2"): 1, ("a", "b", "c^2"): 5}
# Groebner bases built for the Rees algebra of a free module over k[a,b,c],
# one tuple of generators per ideal; the grade gate reads weights and the
# elimination is not cached, so none is built.  Never raise them
MAX_REES_BUILD_BASES = {(("a", "b^2"),): 0, (("a", "b", "c^2"),): 0, (("a",), ("b", "c^2")): 0}
# support ideals built for a run of sheaf values over one ring: the ring
# keeps its irrelevant ideal, so never raise it
MAX_SUPPORTS_PER_RING = 1
# certified levels read for every index of one colimit piece: the piece's
# level complex keeps its level, so never raise it
MAX_LEVEL_READS_PER_PIECE = 1
# walk plans built for pieces of one module in one mode: the relations
# basis keeps its plan, so never raise it
MAX_WALK_PLANS_PER_MODE = 1
# piece monomials listed for h^0..h^3 of one mixed cell on P^2 x P^2: each
# variable block reads its own certified exponent, so the block that needs
# level 1 is not raised to the other's (4635 with one level for all
# blocks); never raise it
MAX_MIXED_CELL_PIECE_MONOMIALS = 1683


def _source_count(needle):
    src = pathlib.Path(mgcm.__file__).parent
    return sum(path.read_text(encoding="utf-8").count(needle) for path in src.rglob("*.py"))


def test_no_more_than_nine_lru_caches():
    # a new cache belongs on an owner (a basis, a ring), not at module level
    n = _source_count("@lru_cache")
    assert n <= MAX_LRU_CACHES, f"{n} @lru_cache decorators in src/mgcm"


def test_no_more_than_three_unbounded_caches():
    # an unbounded cache grows for the life of the process; a cache of bases
    # takes groebner_engine.BASIS_CACHE_SIZE
    n = _source_count("maxsize=None")
    assert n <= MAX_UNBOUNDED_CACHES, f"{n} caches with maxsize=None in src/mgcm"


def _clear_caches():
    for module in (cohomology, groebner_engine, homological, rees_constructions):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.mark.parametrize("gens", sorted(MAX_A_INVARIANT_BASES))
def test_a_invariant_of_a_rees_algebra_takes_few_bases(gens):
    # the blowup workload's first step, with every cache cleared after the
    # Rees algebra is built: the resolution, Ext at the top index and its
    # generators, counted as `groebner_module` misses
    A = GradedRing(field_for_char(32003), ("a", "b", "c"), ((0,),) * 3, (1, 1, 1))
    N = free_presentation(A, (((0,), 0),))
    T = rees_module_presentation(N, (tuple(parse_polynomial(A, g) for g in gens),))
    _clear_caches()
    try:
        assert a_invariant(T) == (-1,)
        misses = groebner_module.cache_info().misses
        assert misses <= MAX_A_INVARIANT_BASES[gens], f"{misses} bases for the a-invariant"
    finally:
        _clear_caches()


@pytest.mark.parametrize("ideals", sorted(MAX_REES_BUILD_BASES))
def test_rees_algebra_of_a_free_module_takes_few_bases(ideals):
    # the blowup workload's build, with every cache cleared first, counted
    # as `groebner_module` misses
    r = len(ideals)
    A = GradedRing(field_for_char(32003), ("a", "b", "c"), ((0,) * r,) * 3, (1, 1, 1))
    N = free_presentation(A, (((0,) * r, 0),))
    blocks = tuple(tuple(parse_polynomial(A, g) for g in gens) for gens in ideals)
    _clear_caches()
    try:
        rees_module_presentation(N, blocks)
        misses = groebner_module.cache_info().misses
        assert misses <= MAX_REES_BUILD_BASES[ideals], f"{misses} bases for the Rees algebra"
    finally:
        _clear_caches()


def test_kernel_of_one_nonzero_column_into_a_free_target_takes_no_basis():
    # P is a domain, so a (x^2 e_0 + y e_1) = 0 forces a = 0; a zero image
    # gives its unit column, and neither builds a basis
    A = GradedRing(field_for_char(32003), ("x", "y"), ((1,),) * 2, (1, 1))
    x, y = A.gens()
    source = free_module(A, (((2,), 2), ((0,), 0)))
    target = free_presentation(A, (((0,), 0), ((1,), 1)))
    _clear_caches()
    try:
        kernel = module_kernel(source, ((x * x, y), (A.zero(), A.zero())), target)
        assert kernel == ((A.zero(), A.one()),)
        misses = groebner_module.cache_info().misses
        assert misses == 0, f"{misses} bases for a kernel of one nonzero column"
    finally:
        _clear_caches()


def _p1xp1():
    return GradedRing(field_for_char(32003), ("x0", "x1", "y0", "y1"),
                      ((1, 0), (1, 0), (0, 1), (0, 1)), (1, 1, 1, 1))


def test_a_ring_keeps_one_irrelevant_and_one_maximal_support():
    # an equal ring built again is the same ring, with the same supports;
    # the variables' ideal is kept twice, once per route
    R, again = _p1xp1(), _p1xp1()
    for support in (irrelevant_support, maximal_support, variables_support):
        assert support(R) is support(R)
        assert support(again) is support(R)
    assert maximal_support(R) != variables_support(R)
    assert sorted(R.supports) == ["irrelevant", "maximal", "variables"]


def test_sheaf_values_build_one_support_per_ring(monkeypatch):
    # fifty sheaf values on P^1 x P^1 read the ring's irrelevant ideal; a
    # support built per value rehashes and compares its generators on
    # every cache lookup
    built = []
    post_init = SupportSpec.__post_init__

    def counting(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(SupportSpec, "__post_init__", counting)
    R = _p1xp1()
    R.supports.clear()
    M = free_presentation(R, (((0, 0), 0),))
    values = [sheaf_cohomology_dim(M, i, n) for n in degree_box((-3, -3), (1, 1)) for i in (0, 1)]
    assert len(values) == 50
    assert len(built) <= MAX_SUPPORTS_PER_RING, f"{len(built)} supports for one ring"


def test_a_ring_without_an_irrelevant_ideal_raises_every_time():
    # a failure is never kept as the ring's support
    R = GradedRing(field_for_char(0), ("x",), ((2,),), (2,))
    for _ in range(2):
        with pytest.raises(InputError):
            irrelevant_support(R)
    assert "irrelevant" not in R.supports


def test_every_index_of_one_piece_reads_its_certified_level_once(monkeypatch):
    # H^0..H^4 of S at (-2, -2) on P^1 x P^1, cold caches: one level for
    # the piece, read off the resolution once and not once per index
    reads = []
    certified = cohomology._certified_level

    def counting(*args):
        reads.append(args)
        return certified(*args)

    monkeypatch.setattr(cohomology, "_certified_level", counting)
    R = _p1xp1()
    S = free_presentation(R, (((0, 0), 0),))
    _clear_caches()
    try:
        values = [local_cohomology_dim(S, irrelevant_support(R), i, (-2, -2)).value
                  for i in range(R.nvars + 1)]
        assert values == [0, 0, 0, 1, 0]
        assert len(reads) <= MAX_LEVEL_READS_PER_PIECE, f"{len(reads)} level reads"
    finally:
        _clear_caches()


def test_pieces_of_one_module_in_two_degrees_build_one_walk_plan(monkeypatch):
    # S/(x0 y0 - x1 y1) on P^1 x P^1, cold caches: the second piece walks on
    # the plan the relations basis keeps from the first
    built = []
    plan = homological._walk_plan

    def counting(*args):
        built.append(args)
        return plan(*args)

    monkeypatch.setattr(homological, "_walk_plan", counting)
    R = _p1xp1()
    x0, x1, y0, y1 = R.gens()
    M = cyclic_presentation(R, (x0 * y0 - x1 * y1,))
    _clear_caches()
    try:
        for n in ((1, 1), (2, 1)):
            assert len(piece_basis(M, n)) == graded_piece_dim(M, n)
        assert len(built) <= MAX_WALK_PLANS_PER_MODE, f"{len(built)} walk plans"
    finally:
        _clear_caches()


def test_a_mixed_cell_lists_few_piece_monomials(monkeypatch):
    # h^0..h^3 at (-4, 4) of S/(x0y0 + x1y1 + x2y2, x0^2y1 - x1x2y2) on
    # P^2 x P^2, cold caches: the monomials of every piece the colimit lists
    # through `piece_basis`, each counted once, on its cache miss
    listed = []
    pieces = cohomology.piece_basis

    def counting(*args):
        misses = pieces.cache_info().misses
        basis = pieces(*args)
        if pieces.cache_info().misses != misses:
            listed.append(len(basis))
        return basis

    monkeypatch.setattr(cohomology, "piece_basis", counting)
    R = GradedRing(field_for_char(32003), ("x0", "x1", "x2", "y0", "y1", "y2"),
                   ((1, 0),) * 3 + ((0, 1),) * 3, (1,) * 6)
    M = cyclic_presentation(R, tuple(parse_polynomial(R, g) for g in
                                     ("x0*y0 + x1*y1 + x2*y2", "x0^2*y1 - x1*x2*y2")))
    _clear_caches()
    try:
        assert [sheaf_cohomology_dim(M, i, (-4, 4)) for i in range(4)] == [0, 25, 0, 0]
        total = sum(listed)
        assert total <= MAX_MIXED_CELL_PIECE_MONOMIALS, f"{total} piece monomials"
    finally:
        _clear_caches()
