"""Local and sheaf cohomology dimensions against classical hand values."""

import itertools
import math

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from mgcm.graded_poly import (
    GradedRing,
    InputError,
    PrimeField,
    RationalField,
    field_for_char,
    parse_polynomial,
)
from mgcm.groebner_engine import (
    _k_polynomial,
    cyclic_presentation,
    free_presentation,
    normal_form_column,
    presentation,
)
from mgcm.homological import (
    _relations_gb,
    ext_dual_module,
    graded_piece_dim,
    is_zero_module,
    minimal_free_resolution,
    piece_basis,
)
from mgcm.cohomology import (
    CohomologyValue,
    SupportSpec,
    _LevelComplex,
    _block_complex,
    _certified_level,
    _complex,
    _level_complex,
    _mult_matrix,
    cohomology_table,
    default_window,
    degree_box,
    irrelevant_support,
    local_cohomology_dim,
    local_cohomology_layer_vanishes,
    matrix_rank,
    maximal_support,
    mdeg_layer_nonzero,
    sections_natural_iso,
    sheaf_cohomology_dim,
    sparse_rank,
    support_E_vanishes,
    variables_support,
)
from test_acceptance import _corpus_modules, _line_h, _plane_h, _product_h


def p1_ring(char=0):
    return GradedRing(field_for_char(char), ("x0", "x1"), ((1,), (1,)), (1, 1))


def p2_ring(char=32003):
    return GradedRing(field_for_char(char), ("x0", "x1", "x2"), ((1,), (1,), (1,)), (1, 1, 1))


def p1xp1_ring(char=32003):
    return GradedRing(
        field_for_char(char),
        ("x0", "x1", "y0", "y1"),
        ((1, 0), (1, 0), (0, 1), (0, 1)),
        (1, 1, 1, 1),
    )


def p1xp2_ring(char=32003):
    return GradedRing(
        field_for_char(char),
        ("x0", "x1", "y0", "y1", "y2"),
        ((1, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
        (1, 1, 1, 1, 1),
    )


# ---------------------------------------------------------------------------
# rank


def test_rank_rational():
    F = RationalField()
    assert matrix_rank(F, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert matrix_rank(F, []) == 0


def test_rank_mod_p():
    F = PrimeField(7)
    assert matrix_rank(F, [[1, 2], [2, 4], [0, 1]]) == 2
    assert matrix_rank(F, [[7, 14]]) == 0
    # rank-1 outer products whose entry products overflow 64-bit integers
    for p in (4294967311, 2**61 - 1):
        u = [p - 1 - 3 * i for i in range(6)]
        v = [p - 7 - 5 * j for j in range(6)]
        assert matrix_rank(PrimeField(p), [[ui * vj % p for vj in v] for ui in u]) == 1


def _char_and_scalars(draw):
    """Q or one of four primes p, and a strategy for matrix entries: over F_p
    unreduced ints (some of them multiples of p), over Q Fractions."""
    p = draw(st.sampled_from((0, 7, 32003, 4294967311, 2**61 - 1)))
    if p:
        return p, st.one_of(st.integers(-3, 3), st.integers(0, 2 * p), st.just(p))
    return p, st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _rank_cases(draw):
    """(field, rows): a dense product of rank at most 3, plus a few rows with
    one or two nonzero entries, in random order."""
    p, scalar = _char_and_scalars(draw)
    nrows, ncols, k = draw(st.integers(0, 6)), draw(st.integers(1, 7)), draw(st.integers(0, 3))
    left = [[draw(scalar) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(scalar) for _ in range(ncols)] for _ in range(k)]
    rows = [[sum(lr[t] * right[t][j] for t in range(k)) for j in range(ncols)] for lr in left]
    for _ in range(draw(st.integers(0, 3))):
        row = [0] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=2)):
            row[c] = draw(scalar)
        rows.append(row)
    return field_for_char(p), draw(st.permutations(rows))


def _check_rank_kernels(field, rows):
    ncols = len(rows[0]) if rows else 0
    if field.char:
        K = GF(field.char)
        entries = [[K(x % field.char) for x in r] for r in rows]
    else:
        K = QQ
        entries = [[QQ(x.numerator, x.denominator) for x in map(Fraction, r)] for r in rows]
    expected = DomainMatrix(entries, (len(rows), ncols), K).rank()
    assert matrix_rank(field, rows) == expected
    elements = [{c: field.of(x) for c, x in enumerate(r) if field.of(x)} for r in rows]
    assert sparse_rank(field, elements) == expected
    assert matrix_rank(field, [[field.of(x) for x in r] for r in rows]) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rank_cases())
def test_rank_kernels_match_sympy(case):
    _check_rank_kernels(*case)


@st.composite
def _block_diagonal_cases(draw):
    """(field, rows): two to four dense low-rank blocks on disjoint columns,
    with the rows and the columns of the whole matrix shuffled."""
    p, scalar = _char_and_scalars(draw)
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        nrows, ncols, k = draw(st.integers(2, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 3))
        left = [[draw(scalar) for _ in range(k)] for _ in range(nrows)]
        right = [[draw(scalar) for _ in range(ncols)] for _ in range(k)]
        blocks.append([[sum(lr[t] * right[t][j] for t in range(k)) for j in range(ncols)]
                       for lr in left])
    width = sum(len(b[0]) for b in blocks)
    perm = draw(st.permutations(range(width)))
    rows, start = [], 0
    for b in blocks:
        for r in b:
            row = [0] * width
            for j, x in enumerate(r):
                row[perm[start + j]] = x
            rows.append(row)
        start += len(b[0])
    return field_for_char(p), draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_block_diagonal_cases())
def test_rank_kernels_match_sympy_on_permuted_block_diagonals(case):
    _check_rank_kernels(*case)


# ---------------------------------------------------------------------------
# support specs


def test_irrelevant_support_blocks():
    sup = irrelevant_support(p1xp1_ring())
    assert sorted(str(g) for g in sup.generators) == [
        "x0*y0",
        "x0*y1",
        "x1*y0",
        "x1*y1",
    ]


def test_irrelevant_support_requires_block_variables():
    R = GradedRing(field_for_char(0), ("x",), ((2,),), (2,))
    with pytest.raises(InputError):
        irrelevant_support(R)


def test_equal_supports_built_twice_share_the_complex_cache():
    # equality and hash are by value, so a support equal to the ring's
    # variables support but built again reads the level complexes already
    # built, and builds no complex, piece or matrix again
    R = p1xp1_ring()
    S = cyclic_presentation(R, ())
    first, second = variables_support(R), SupportSpec("variables", R.gens())
    assert first is not second
    assert first == second and hash(first) == hash(second)
    local_cohomology_dim(S, first, 4, (-2, -2))
    caches = (_level_complex, _complex, _mult_matrix, piece_basis)
    before = [c.cache_info() for c in caches]
    assert local_cohomology_dim(S, second, 4, (-2, -2)).value == 1
    after = [c.cache_info() for c in caches]
    assert after[0].hits > before[0].hits
    assert [a.misses for a in after] == [b.misses for b in before]


# ---------------------------------------------------------------------------
# free complexes behind the colimit


def _block_ring(sizes, base=0):
    """P^(sizes[0] - 1) x ... with `base` extra variables of multidegree 0;
    the weights run 1, 2, 3, 1, ... so that weight shifts are checked too."""
    r = len(sizes)
    names = [f"a{v}" for v in range(base)]
    degs = [(0,) * r] * base
    for j, size in enumerate(sizes):
        names += [f"x{j}_{v}" for v in range(size)]
        degs += [tuple(int(t == j) for t in range(r))] * size
    weights = tuple(1 + v % 3 for v in range(len(names)))
    return GradedRing(field_for_char(32003), tuple(names), tuple(degs), weights)


def _ring_id(sizes, base=0):
    return "x".join(f"P{s - 1}" for s in sizes) + ("+base" if base else "")


RESOLUTION_RINGS = [((2,), 0), ((2, 2), 0), ((2, 3), 0), ((3, 3), 0), ((2, 2), 1)]


def _check_complex(ring, shifts, maps):
    """Assert that every entry is homogeneous of the degree its two summands
    differ by and that d o d = 0; return sum_q (-1)^q sum_a t^a, the
    K-polynomial of the complex, keyed by multidegree + (weight,)."""
    assert len(shifts) == len(maps) + 1
    assert len(shifts[0]) == 1 and shifts[0][0] == ((0,) * ring.rank, 0)
    for q, entries in enumerate(maps):
        assert [e[:2] for e in entries] == sorted(e[:2] for e in entries)
        for a, b, sign, m in entries:
            (ma, wa), (mb, wb) = shifts[q][a], shifts[q + 1][b]
            assert sign in (1, -1)
            assert m.degree_pair() == (tuple(y - x for x, y in zip(ma, mb)), wb - wa)
    for q in range(1, len(maps)):
        composite = {}
        for a, b, sign, m in maps[q - 1]:
            for a2, c, sign2, m2 in maps[q]:
                if a2 == b:
                    term = (sign * sign2) * (m * m2)
                    composite[(a, c)] = composite.get((a, c), ring.zero()) + term
        assert all(p.is_zero() for p in composite.values()), q
    euler = {}
    for q, twists in enumerate(shifts):
        for m, w in twists:
            euler[m + (w,)] = euler.get(m + (w,), 0) + (-1) ** q
    return {t: c for t, c in euler.items() if c}


def _raised(g, level):
    """The monomial g, a product of distinct variables, with each variable
    x_v raised to level[v]."""
    return g.ring.monomial(tuple(e * d for e, d in zip(g.terms[0][0], level)))


@pytest.mark.parametrize("sizes, base", RESOLUTION_RINGS,
                         ids=[_ring_id(*case) for case in RESOLUTION_RINGS])
def test_irrelevant_resolution_is_a_complex_with_the_k_polynomial_of_s_mod_b_d(sizes, base):
    # both colimit supports through the one producer: the irrelevant ideal
    # B (S/B_1^[d_1]...B_r^[d_r], one block per variable block) and the
    # ideal of all the variables (S/(x_v^(d_v)), one block), at equal
    # exponents and at exponents that differ from block to block and from
    # variable to variable
    ring = _block_ring(sizes, base)
    degs = [d + (w,) for d, w in zip(ring.degrees, ring.weights)]
    block_of = [next((j for j, e in enumerate(m) if e), 0) for m in ring.degrees]
    irrelevant = irrelevant_support(ring)
    for support, length in ((irrelevant, 2 + sum(s - 1 for s in sizes)),
                            (variables_support(ring), 1 + ring.nvars)):
        for d in (1, 2, 3):
            steps = (d,) * ring.nvars, tuple(d + j for j in block_of)
            if support.kind == "variables":
                steps += (tuple(d + v % 2 for v in range(ring.nvars)),)
            for level in steps:
                shifts, maps = _complex(support, level)
                assert len(shifts) == length
                assert all(len(m.terms) == 1 for entries in maps for _, _, _, m in entries)
                euler = _check_complex(ring, shifts, maps)
                # the image of F_1 is generated by the generators raised to
                # the level
                powers = [_raised(g, level) for g in support.generators]
                assert [m for _, _, _, m in maps[0]] == powers
                assert euler == _k_polynomial([g.terms[0][0] for g in powers], degs), \
                    (sizes, level)


@pytest.mark.parametrize("sizes", [(2,), (3,), (4,)], ids=_ring_id)
def test_rank_one_resolution_is_the_koszul_complex_of_the_irrelevant_generators(sizes):
    # in rank 1 the irrelevant complex is the Koszul complex on the d-th
    # powers of B's generators; with no multidegree-0 variable B is the
    # ideal of the variables, and both supports build the same complex
    for base in (0, 1):
        ring = _block_ring(sizes, base)
        irrelevant = irrelevant_support(ring)
        for d in (1, 2, 3):
            level = (d,) * ring.nvars
            koszul = _block_complex([[g ** d for g in irrelevant.generators]])
            assert _complex(irrelevant, level) == koszul
            if not base:
                assert _complex(variables_support(ring), level) == koszul


def test_irrelevant_and_koszul_complexes_give_the_same_local_cohomology():
    """The resolution of S/B^[d] (irrelevant support, at its certified
    level) against the Koszul complex on the d-th powers of the same
    generators, in every index, on the Cox corpus modules and on the
    kunneth bench's free modules of P^a x P^b.  In rank 1 the generators of
    B are the variables, whose ideal has a certified level of its own.  In
    rank 2 it has none, and the Koszul complex is read at two fixed levels
    past where it settles here.  P^1 x P^2 is left to the Kunneth test:
    over this box its 64-summand Koszul complex is about 25 times slower
    than the resolution."""
    cox = [M for label, M in _corpus_modules() if label.startswith("cox-")]
    assert len(cox) == 6
    cases = [(M, degree_box((-3,) * M.ring.rank, (2,) * M.ring.rank)) for M in cox]
    for a, b in ((0, 1), (1, 0), (1, 1)):
        ring = _block_ring((a + 1, b + 1))
        cases.append((free_presentation(ring, (((0, 0), 0),)), degree_box((-3, -3), (2, 2))))
    checked = 0
    for M, box in cases:
        irrelevant = irrelevant_support(M.ring)
        gens = irrelevant.generators
        koszul = [_block_complex([[g ** d for g in gens]]) for d in (4, 5)]
        for n in box:
            for i in range(len(gens) + 1):
                got = local_cohomology_dim(M, irrelevant, i, n)
                assert got.mode == "koszul-colimit"
                if M.ring.rank == 1:
                    want = [local_cohomology_dim(M, variables_support(M.ring), i, n).value]
                else:
                    want = [_LevelComplex(M, k, n, None).value(i) for k in koszul]
                assert want == [got.value] * len(want), (M.ring.names, i, n)
                checked += 1
    assert checked == 834


# ---------------------------------------------------------------------------
# multiplication matrices


def _multipliers(ring):
    """Each variable, 3 * (first variable)^3, and, when two quadratic
    monomials share a degree, a binomial in them."""
    gens = ring.gens()
    quads = {}
    for a, b in itertools.combinations_with_replacement(gens, 2):
        quads.setdefault((a * b).degree_pair(), []).append(a * b)
    binomial = next((ms[0] + ms[1] * 2 for ms in quads.values() if len(ms) > 1), None)
    return gens + (3 * gens[0] ** 3,) + ((binomial,) if binomial is not None else ())


def test_mult_matrix_columns_are_normal_forms_on_corpus():
    checked = 0
    for _label, M in _corpus_modules():
        ring = M.ring
        gb = _relations_gb(M)
        r = ring.rank
        lo = [min(d[i] for d in M.mdeg_shifts) for i in range(r)]
        weights = (None,) if ring.is_field_base() else (0, 1, 2)
        for g in _multipliers(ring):
            gm, gw = g.degree_pair()
            for n in degree_box(lo, [x + 1 for x in lo]):
                for w in weights:
                    cols, src_len, tgt_len = _mult_matrix(M, g, n, w)
                    src = piece_basis(M, n, w)
                    tgt = piece_basis(M, tuple(a + b for a, b in zip(n, gm)),
                                      None if w is None else w + gw)
                    assert (src_len, tgt_len) == (len(src), len(tgt))
                    assert len(cols) == len(src)
                    index = {t: i for i, t in enumerate(tgt)}
                    for col, (comp, exps) in zip(cols, src):
                        vec = [ring.zero()] * M.rank
                        vec[comp] = g * ring.monomial(exps)
                        red = normal_form_column(gb, tuple(vec))
                        expected = {index[(c2, e2)]: v for c2, entry in enumerate(red)
                                    for e2, v in entry.terms}
                        assert dict(col) == expected, (M, g, n, w, comp, exps)
                        checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# local cohomology, both routes


def test_top_local_cohomology_of_plane():
    R = p1_ring()
    S = cyclic_presentation(R, ())
    ms = maximal_support(R)
    assert local_cohomology_dim(S, ms, 2, (-2,)).value == 1
    assert local_cohomology_dim(S, ms, 2, (-3,)).value == 2
    assert local_cohomology_dim(S, ms, 2, (-1,)).value == 0
    assert local_cohomology_dim(S, ms, 1, (-2,)).value == 0
    assert local_cohomology_dim(S, ms, 5, (-2,)).value == 0


def test_duality_equals_colimit_small_window():
    R = p1_ring()
    S = cyclic_presentation(R, ())
    ms = maximal_support(R)
    cs = variables_support(R)
    for n in range(-4, 2):
        for i in range(3):
            a = local_cohomology_dim(S, ms, i, (n,))
            b = local_cohomology_dim(S, cs, i, (n,))
            assert a.value == b.value, (i, n)
            assert a.mode == "duality" and b.mode == "koszul-colimit"


def test_certified_level_needs_a_standard_grading_or_a_weight_slice():
    R = GradedRing(field_for_char(32003), ("x0", "x1", "y0", "y1", "z"),
                   ((1, 0), (1, 0), (0, 1), (0, 1), (1, 1)), (1, 1, 1, 1, 2))
    S = cyclic_presentation(R, ())
    cs = variables_support(R)
    with pytest.raises(InputError, match="neither 0 nor some e_j"):
        sheaf_cohomology_dim(S, 1, (0, 0))
    with pytest.raises(InputError, match="neither 0 nor some e_j"):
        local_cohomology_dim(S, cs, 5, (-3, -3))
    # in a weight slice the level of the variables' ideal needs only
    # positive weights
    values = []
    for n in degree_box((-4, -4), (-3, -3)):
        for w in range(-9, -5):
            a = local_cohomology_dim(S, maximal_support(R), 5, n, w).value
            assert local_cohomology_dim(S, cs, 5, n, w).value == a, (n, w)
            values.append(a)
    assert sorted(set(values)) == [0, 1, 2, 5]


def test_bigraded_corner_piece():
    R = GradedRing(field_for_char(0), ("x", "y"), ((1, 0), (0, 1)), (1, 1))
    M = cyclic_presentation(R, ())
    ms = maximal_support(R)
    assert local_cohomology_dim(M, ms, 2, (-1, -1)).value == 1
    assert local_cohomology_dim(M, ms, 2, (-2, -1)).value == 1
    assert local_cohomology_dim(M, ms, 2, (0, -1)).value == 0


def test_torsion_free_has_no_h0():
    R = p1_ring()
    S = cyclic_presentation(R, ())
    sup = irrelevant_support(R)
    for n in range(-3, 4):
        assert local_cohomology_dim(S, sup, 0, (n,)).value == 0


def test_negative_index_rejected():
    R = p1_ring()
    S = cyclic_presentation(R, ())
    with pytest.raises(InputError):
        local_cohomology_dim(S, maximal_support(R), -1, (0,))


# ---------------------------------------------------------------------------
# sheaf cohomology


def test_line_bundles_on_p1():
    S = cyclic_presentation(p1_ring(), ())
    assert sheaf_cohomology_dim(S, 0, (2,)) == 3
    assert sheaf_cohomology_dim(S, 0, (-1,)) == 0
    assert sheaf_cohomology_dim(S, 1, (-2,)) == 1
    assert sheaf_cohomology_dim(S, 1, (-3,)) == 2
    assert sheaf_cohomology_dim(S, 1, (0,)) == 0
    assert sheaf_cohomology_dim(S, 2, (-5,)) == 0


def test_line_bundles_on_p2():
    S = cyclic_presentation(p2_ring(), ())
    assert sheaf_cohomology_dim(S, 0, (2,)) == 6
    assert sheaf_cohomology_dim(S, 1, (-2,)) == 0
    assert sheaf_cohomology_dim(S, 2, (-3,)) == 1
    assert sheaf_cohomology_dim(S, 2, (-4,)) == 3


def test_line_bundles_on_p1xp1():
    S = cyclic_presentation(p1xp1_ring(), ())
    assert sheaf_cohomology_dim(S, 0, (1, 2)) == 6
    assert sheaf_cohomology_dim(S, 1, (-2, 0)) == 1
    assert sheaf_cohomology_dim(S, 1, (-1, 5)) == 0
    assert sheaf_cohomology_dim(S, 2, (-2, -2)) == 1
    assert sheaf_cohomology_dim(S, 2, (-2, -3)) == 2


def test_line_bundles_on_p1xp2_match_kunneth():
    ring = _block_ring((2, 3))
    M = free_presentation(ring, (((0, 0), 0),))
    checked = 0
    for n, m in degree_box((-4, -4), (1, 1)):
        for i in range(4):
            got = sheaf_cohomology_dim(M, i, (n, m))
            assert got == _product_h(_line_h, _plane_h, i, n, m), (i, n, m)
            checked += 1
    assert checked == 144


def test_shifted_line_bundles_on_p1xp2_match_kunneth():
    """S(-1,2) + S(3,-2) on P^1 x P^2: h^i(n) = h^i(O(n1-1, n2+2)) +
    h^i(O(n1+3, n2-2)) by Kunneth and Bott, on 196 cells.  The two
    summands' twists pull each block's certified exponent in opposite
    directions; with block 1's or block 2's exponents planted one too low,
    20 or 24 of the cells read wrong."""
    M = free_presentation(p1xp2_ring(), (((1, -2), -1), ((-3, 2), 1)))
    checked = 0
    for n, m in degree_box((-4, -4), (2, 2)):
        for i in range(4):
            want = (_product_h(_line_h, _plane_h, i, n - 1, m + 2)
                    + _product_h(_line_h, _plane_h, i, n + 3, m - 2))
            assert sheaf_cohomology_dim(M, i, (n, m)) == want, (i, n, m)
            checked += 1
    assert checked == 196


def test_mixed_twists_on_p1xp2_and_p2xp2_match_kunneth():
    """h^i(O(t, -t)) and h^i(O(-t, t)), t = 1..6, on P^1 x P^2 and P^2 x P^2
    by Kunneth and Bott, on 108 cells.  One block needs level 1 there and
    the other about t, so each block reads its own certified exponent."""
    checked = 0
    for sizes, fx in (((2, 3), _line_h), ((3, 3), _plane_h)):
        M = free_presentation(_block_ring(sizes), (((0, 0), 0),))
        for t in range(1, 7):
            for n, m in ((t, -t), (-t, t)):
                for i in range(M.ring.nvars - 1):
                    want = _product_h(fx, _plane_h, i, n, m)
                    assert sheaf_cohomology_dim(M, i, (n, m)) == want, (sizes, i, n, m)
                    checked += 1
    assert checked == 108


def test_one_block_below_its_certified_level_reads_wrong():
    """On S over P^1 x P^2, H^i_B(S)_n against its Kunneth closed form for n
    in [-5, 2]^2: right at the certified level, and with one block's
    exponents lowered by one and the other block's kept, wrong on some
    cell for each block.  At n = (-5, -3) the level is (4, 4 | 1, 1, 1),
    and lowering block 1 makes H^4_B read 2 instead of 4."""
    ring = p1xp2_ring()
    S = free_presentation(ring, (((0, 0), 0),))
    B = irrelevant_support(ring)
    blocks = ring.unit_blocks
    wrong = [0, 0]
    for n in degree_box((-5, -5), (2, 2)):
        want = [_product_h(_line_h, _plane_h, i - 1, *n) if i >= 2 else 0 for i in range(5)]
        assert [local_cohomology_dim(S, B, i, n).value for i in range(5)] == want, n
        level = _certified_level(S, B, n, None)
        for j, block in enumerate(blocks):
            if level[block[0]] == 1:
                continue
            lowered = tuple(d - (v in block) for v, d in enumerate(level))
            piece = _LevelComplex(S, _complex(B, lowered), n, None)
            got = [piece.value(i) for i in range(5)]
            wrong[j] += got != want
            if n == (-5, -3) and j == 0:
                assert level == (4, 4, 1, 1, 1) and (got[4], want[4]) == (2, 4)
    assert wrong == [18, 14]


def _serre_region(M):
    """The nonzero E_q = Ext^q(M, S(-w_total)), and the test of the cells n
    with -n_j >= b_j - N_j + 1 in every block j, for every twist b of the
    minimal resolutions of the nonzero E_q.  There every H^k_B(E_q)_(-n) is
    0, by the free-module argument of the certified level, so the
    local-to-global spectral sequence of Ext(F, omega_X(-n)) degenerates,
    and Serre duality gives h^i(F(n)) = dim (E_(D-i))_(-n), D = dim X
    (Hartshorne III.6.7, III.7.1)."""
    ring = M.ring
    ext = {q: ext_dual_module(M, q) for q in range(ring.nvars + 1)}
    ext = {q: E for q, E in ext.items() if not is_zero_module(E)}
    bound = [max(b[j] - len(block) + 1 for E in ext.values()
                 for mds, _ in minimal_free_resolution(E).shifts for b in mds)
             for j, block in enumerate(ring.unit_blocks)]
    return ext, lambda n: all(-x >= c for x, c in zip(n, bound))


def _p2xp2_module():
    """S/(x0y0 + x1y1 + x2y2, x0^2y1 - x1x2y2) on P^2 x P^2."""
    ring = GradedRing(field_for_char(32003), ("x0", "x1", "x2", "y0", "y1", "y2"),
                      ((1, 0),) * 3 + ((0, 1),) * 3, (1,) * 6)
    gens = [parse_polynomial(ring, t) for t in ("x0*y0 + x1*y1 + x2*y2", "x0^2*y1 - x1*x2*y2")]
    return cyclic_presentation(ring, tuple(gens))


def test_serre_duality_region_agrees_with_the_colimit():
    """Every cell of [-4, 1]^r in the Serre region of the P^2 x P^2 module
    and of the six Cox corpus modules, in every index: the colimit's sheaf
    value against the piece of the dual Ext module.  On the P^2 x P^2
    module the region is n <= (-1, -1), 16 cells and 80 checks."""
    cox = [M for label, M in _corpus_modules() if label.startswith("cox-")]
    assert len(cox) == 6
    checked = []
    for M in [_p2xp2_module()] + cox:
        ext, in_region = _serre_region(M)
        D = M.ring.nvars - M.ring.rank
        checked.append(0)
        for n in degree_box((-4,) * M.ring.rank, (1,) * M.ring.rank):
            if not in_region(n):
                continue
            for i in range(D + 1):
                E = ext.get(D - i)
                want = 0 if E is None else graded_piece_dim(E, tuple(-x for x in n))
                assert sheaf_cohomology_dim(M, i, n) == want, (M.ring.names, i, n)
                checked[-1] += 1
    assert checked[0] == 80 and all(checked), checked


def _p1xp2_quotient():
    """S(-2,-1)/(x0^2 + x0*x1, x0*x1*y0*y2) on P^1 x P^2.  At n = (-2, -1)
    the levels of the colimit agree on wrong values for a while: H^2_B reads
    0 at levels 1-5 and H^3_B reads 3 at levels 3-5, where the colimits are
    3 and 0."""
    ring = p1xp2_ring()
    gens = [parse_polynomial(ring, t) for t in ("x0^2 + x0*x1", "x0*x1*y0*y2")]
    return presentation(ring, (((2, 1), 3),), tuple((g,) for g in gens))


def test_shifted_quotient_on_p1xp2_past_the_levels_that_agree_early():
    M = _p1xp2_quotient()
    assert sheaf_cohomology_dim(M, 1, (-2, -1)) == 3
    assert sheaf_cohomology_dim(M, 2, (-2, -1)) == 0


def test_natural_sections_map():
    S = cyclic_presentation(p1_ring(), ())
    assert sections_natural_iso(S, (0,))
    assert sections_natural_iso(S, (-2,))
    # a module with S_+ torsion: k = S/(x0,x1) has h0 != 0 at degree 0
    R = p1_ring()
    x0, x1 = R.gens()
    k = cyclic_presentation(R, (x0, x1))
    assert not sections_natural_iso(k, (0,))


def test_support_E_direct_mode_on_field_base():
    S = cyclic_presentation(p1_ring(), ())
    assert support_E_vanishes(S, 1, (-2,)) == (False, "direct")
    assert support_E_vanishes(S, 1, (-1,)) == (True, "direct")


def test_support_E_identity_gate():
    # graded-local base: one base variable and one block variable
    R = GradedRing(field_for_char(0), ("a", "T"), ((0,), (1,)), (1, 1))
    M = cyclic_presentation(R, ())
    with pytest.raises(InputError):
        support_E_vanishes(M, 0, (0,))  # not strictly below v = 0
    with pytest.raises(InputError, match="not strictly below"):
        support_E_vanishes(M, 0, (-1, -1))  # a rank-2 degree on a rank-1 module
    assert support_E_vanishes(M, 0, (-1,)) == (True, "fiber-identity")
    assert support_E_vanishes(M, 1, (-1,)) == (False, "fiber-identity")


def test_layer_vanishing_graded_local():
    R = GradedRing(field_for_char(0), ("a", "T"), ((0,), (1,)), (1, 1))
    M = cyclic_presentation(R, ())
    assert not local_cohomology_layer_vanishes(M, 2, (-1,))
    assert local_cohomology_layer_vanishes(M, 2, (0,))
    assert local_cohomology_layer_vanishes(M, 1, (-1,))


def _witness_weights(M, n):
    """Weights of the monomials t * e_s, t in the positive-multidegree
    variables, of multidegree n: every weight a standard witness can have."""
    ring = M.ring
    pos = [v for v in range(ring.nvars) if any(ring.degrees[v])]
    assert all(x >= 0 for v in pos for x in ring.degrees[v])
    weights = set()
    for s in range(M.rank):
        target = tuple(a - b for a, b in zip(n, M.mdeg_shifts[s]))
        if any(x < 0 for x in target):
            continue
        caps = [min(t // x for t, x in zip(target, ring.degrees[v]) if x > 0) for v in pos]
        for exps in itertools.product(*(range(c + 1) for c in caps)):
            mdeg = [sum(e * ring.degrees[v][i] for e, v in zip(exps, pos))
                    for i in range(ring.rank)]
            if tuple(mdeg) == target:
                w = sum(e * ring.weights[v] for e, v in zip(exps, pos))
                weights.add(w + M.weight_shifts[s])
    return weights


def test_mdeg_layer_nonzero_direct():
    R = GradedRing(field_for_char(0), ("a", "T"), ((0,), (1,)), (1, 1))
    a, T = R.gens()
    M = cyclic_presentation(R, (T * T,))
    assert mdeg_layer_nonzero(M, (1,))
    assert not mdeg_layer_nonzero(M, (2,))
    assert not mdeg_layer_nonzero(M, (-1,))

    # against weight slices: the layer is nonzero iff some slice up to the
    # largest witness weight is; the dual Ext modules are the layer test's
    # production inputs and vanish in many multidegrees
    modules = [M for _label, M in _corpus_modules()]
    modules += [ext_dual_module(M, i) for M in modules for i in range(M.ring.nvars + 1)]
    for M in modules:
        if M.rank == 0:
            continue
        r = M.ring.rank
        lo = [min(d[i] for d in M.mdeg_shifts) - 1 for i in range(r)]
        hi = [max(d[i] for d in M.mdeg_shifts) + 2 for i in range(r)]
        for n in degree_box(lo, hi):
            weights = _witness_weights(M, n)
            top = max(weights, default=-1)
            expected = any(
                graded_piece_dim(M, n, w) for w in range(min(weights | {0}), top + 1)
            )
            assert mdeg_layer_nonzero(M, n) == expected, (M, n)


# ---------------------------------------------------------------------------
# Euler characteristic against the Hilbert polynomial
#
# On a field base with standard N^r grading (every variable of multidegree
# some e_j), sum_i (-1)^i h^i(F(n)) equals the multigraded Hilbert polynomial
# P_M(n) for every n in Z^r, not only for large n (Snapper; in local form the
# Grothendieck-Serre formula).  P_M needs no Koszul level, rank or piece
# listing, so it guards every sheaf value the colimit and the rank kernel
# produce.


def _hilbert_polynomial(module, n):
    """P_M(n) = sum_c sum_a k_a prod_j C(n_j - shift_cj - a_j + N_j - 1, N_j - 1)
    over the K-polynomial terms k_a t^a of each component (weights summed),
    N_j the number of variables of multidegree e_j, each binomial read as a
    polynomial in n."""
    ring = module.ring
    sizes = [ring.degrees.count(tuple(int(t == j) for t in range(ring.rank)))
             for j in range(ring.rank)]
    assert sum(sizes) == ring.nvars, "not a standard grading"
    total = 0
    for terms, shift in zip(_relations_gb(module).hilbert_numerators, module.mdeg_shifts):
        for a, _, k in terms:
            for nj, sj, aj, size in zip(n, shift, a, sizes):
                x = nj - sj - aj
                k *= math.prod(range(x + 1, x + size)) // math.factorial(size - 1)
            total += k
    return total


def _check_euler_characteristic(module, box):
    ring = module.ring
    for n in box:
        chi = sum((-1) ** i * sheaf_cohomology_dim(module, i, n)
                  for i in range(ring.nvars - ring.rank + 1))
        assert chi == _hilbert_polynomial(module, n), (ring.names, module.mdeg_shifts, n)


def test_euler_characteristic_on_cox_corpus():
    cox = [M for label, M in _corpus_modules() if label.startswith("cox-")]
    assert len(cox) == 6
    for M in cox:
        _check_euler_characteristic(M, degree_box((-3,) * M.ring.rank, (2,) * M.ring.rank))


def test_euler_characteristic_on_line_bundles():
    """The free modules of the Kunneth bench: P^a x P^b and P^2."""
    for a, b in ((0, 1), (1, 0), (1, 1)):
        names = tuple(f"x{j}" for j in range(a + 1)) + tuple(f"y{j}" for j in range(b + 1))
        degs = ((1, 0),) * (a + 1) + ((0, 1),) * (b + 1)
        ring = GradedRing(field_for_char(32003), names, degs, (1,) * len(names))
        _check_euler_characteristic(cyclic_presentation(ring, ()), degree_box((-2, -2), (2, 2)))
    _check_euler_characteristic(cyclic_presentation(p2_ring(), ()), degree_box((-4,), (2,)))


@st.composite
def _quotient_cases(draw):
    """A shifted quotient of P^1, P^2, P^1 x P^1 or P^1 x P^2 by one or two
    monomials or binomials, and a degree to check it at."""
    ring = draw(st.sampled_from((p1_ring(), p2_ring(), p1xp1_ring(), p1xp2_ring())))
    r = ring.rank
    blocks = [[v for v in range(ring.nvars) if ring.degrees[v][j]] for j in range(r)]
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        mdeg = [draw(st.integers(0, 2)) for _ in range(r)]
        poly = {}
        for _ in range(draw(st.integers(1, 2))):
            exps = [0] * ring.nvars
            for j, block in enumerate(blocks):
                for _ in range(mdeg[j]):
                    exps[draw(st.sampled_from(block))] += 1
            poly[tuple(exps)] = draw(st.integers(1, 5))
        gens.append(ring.from_dict(poly))
    shift = tuple(draw(st.integers(-2, 2)) for _ in range(r))
    module = presentation(ring, ((shift, sum(shift)),), tuple((g,) for g in gens))
    return module, [draw(st.tuples(*[st.integers(-3, 2)] * r))]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(_quotient_cases())
@example((_p1xp2_quotient(), [(-2, -1)]))
def test_euler_characteristic_on_drawn_quotients(case):
    _check_euler_characteristic(*case)


# ---------------------------------------------------------------------------
# tables and windows


def test_degree_box():
    assert degree_box((-1, 0), (0, 1)) == ((-1, 0), (-1, 1), (0, 0), (0, 1))
    with pytest.raises(InputError):
        degree_box((1,), (0,))


def test_cohomology_table_matches_pointwise():
    S = cyclic_presentation(p1_ring(), ())
    tab = cohomology_table(S, (0, 1), degree_box((-3,), (3,)))
    got = {(i, n): d for (i, n, d) in tab.entries}
    for n in range(-3, 4):
        assert got[(0, (n,))] == sheaf_cohomology_dim(S, 0, (n,))
        assert got[(1, (n,))] == sheaf_cohomology_dim(S, 1, (n,))
    # classical line: h0 = max(n+1, 0), h1 = max(-n-1, 0)
    for n in range(-3, 4):
        assert got[(0, (n,))] == max(n + 1, 0)
        assert got[(1, (n,))] == max(-n - 1, 0)


def test_table_of_zero_module():
    R = p1_ring()
    z = cyclic_presentation(R, (R.one(),))
    tab = cohomology_table(z, (0, 1), degree_box((-1,), (1,)))
    assert all(d == 0 for (_, _, d) in tab.entries)


def test_table_deterministic_order():
    S = cyclic_presentation(p1_ring(), ())
    tab = cohomology_table(S, (1, 0), degree_box((-1,), (1,)))
    keys = [(i, n) for (i, n, _) in tab.entries]
    assert keys == sorted(keys)


def test_default_window_contains_v():
    S = cyclic_presentation(p1_ring(), ())
    win = default_window(S)
    assert (0,) in win
    assert (-3,) in win and (3,) in win
