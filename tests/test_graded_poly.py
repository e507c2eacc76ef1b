"""Fields, degrees, rings, polynomials, parsing and printing."""

import pytest
import sympy
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from mgcm.graded_poly import (
    DEFAULT_PRIME,
    GradedRing,
    InputError,
    Polynomial,
    PrimeField,
    RationalField,
    deg_leq,
    deg_lt,
    field_for_char,
    parse_polynomial,
    poly_str,
    substitute,
)


def std_ring(char=0):
    return GradedRing(field_for_char(char), ("x", "y"), ((1,), (1,)), (1, 1))


def bigraded_ring(char=0):
    return GradedRing(field_for_char(char), ("x", "y"), ((1, 0), (0, 1)), (1, 1))


# ---------------------------------------------------------------------------
# fields


def test_rational_field_exact():
    F = RationalField()
    assert F.of(Fraction(1, 3)) + F.of(Fraction(1, 6)) == Fraction(1, 2)
    assert F.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert F.char == 0


def test_prime_field_inverse():
    F = PrimeField(32003)
    for a in (1, 2, 17, 32002):
        assert a * F.inv(a) % F.p == 1


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((32003, 4294967311)), st.integers(-10**12, 10**12))
def test_prime_field_inverse_of_drawn_residues(p, a):
    # at the default prime and at a prime above 2^32; a negative or
    # unreduced representative inverts as its residue does
    assume(a % p)
    inv = PrimeField(p).inv(a)
    assert a * inv % p == 1 and 0 < inv < p


@pytest.mark.parametrize("p", [32003, 4294967311])
def test_prime_field_inverse_of_zero_raises(p):
    for zero in (0, p, -2 * p):
        with pytest.raises(ZeroDivisionError):
            PrimeField(p).inv(zero)


def test_prime_field_rejects_composites():
    with pytest.raises(InputError):
        PrimeField(32001)


def test_field_for_char_dispatch():
    assert field_for_char(0).char == 0
    assert field_for_char(DEFAULT_PRIME).char == DEFAULT_PRIME
    with pytest.raises(InputError):
        field_for_char(10)


# ---------------------------------------------------------------------------
# degree order


def test_degree_order_is_coordinatewise():
    assert deg_lt((1, 1), (2, 2)) and deg_leq((1, 1), (2, 2))
    # larger in one coordinate, equal in the other: weakly but not strictly above
    assert deg_leq((1, 1), (2, 1)) and not deg_lt((1, 1), (2, 1))
    # incomparable: neither below the other
    assert not deg_leq((1, 2), (2, 1)) and not deg_leq((2, 1), (1, 2))


# ---------------------------------------------------------------------------
# ring validation


def test_ring_rejects_duplicate_names():
    with pytest.raises(InputError):
        GradedRing(field_for_char(0), ("x", "x"), ((1,), (1,)), (1, 1))


def test_ring_rejects_zero_weight():
    with pytest.raises(InputError):
        GradedRing(field_for_char(0), ("x",), ((1,),), (0,))


def test_ring_rejects_negative_multidegree():
    with pytest.raises(InputError):
        GradedRing(field_for_char(0), ("x",), ((-1,),), (1,))


def test_ring_rejects_mixed_rank():
    with pytest.raises(InputError):
        GradedRing(field_for_char(0), ("x", "y"), ((1,), (0, 1)), (1, 1))


def test_equal_ring_arguments_give_the_same_ring():
    a = GradedRing(field_for_char(7), ("x", "y"), ((1,), (2,)), (1, 2))
    b = GradedRing(PrimeField(7), ["x", "y"], [[1], [2]], [1, 2])
    assert a is b


def test_allow_zero_weight_gives_a_distinct_ring():
    args = (field_for_char(0), ("x", "y"), ((1,), (1,)), (1, 1))
    internal = GradedRing(*args, _allow_zero_weight=True)
    assert internal is GradedRing(*args, _allow_zero_weight=1)
    public = GradedRing(*args)
    assert public is not internal and public != internal
    assert public is GradedRing(*args, _allow_zero_weight=False)


# ---------------------------------------------------------------------------
# arithmetic


def test_binomial_square_char0():
    R = std_ring()
    x, y = R.gens()
    assert (x + y) * (x + y) == x * x + (x * y).scale(2) + y * y


def test_binomial_square_char2():
    R = std_ring(char=2)
    x, y = R.gens()
    assert (x + y) * (x + y) == x * x + y * y


def test_power_and_subtraction():
    R = std_ring()
    x, y = R.gens()
    assert (x - y) ** 2 == x * x - (x * y).scale(2) + y * y
    assert (x ** 3) * (x ** 0) == x * x * x


def test_first_power_is_the_polynomial_itself():
    # polynomials are immutable, so x ** 1 returns x without a product
    R = std_ring()
    for text in ("x", "x^2 - 3*x*y", "7"):
        f = parse_polynomial(R, text)
        assert f ** 1 is f
        assert f ** 0 == R.one()


def test_degree_pair_homogeneous():
    R = bigraded_ring()
    x, y = R.gens()
    f = x * x * y
    assert f.degree_pair() == ((2, 1), 3)
    assert f.is_homogeneous()


def test_degree_pair_rejects_inhomogeneous():
    R = bigraded_ring()
    x, y = R.gens()
    with pytest.raises(InputError):
        (x + y * y).degree_pair()


def test_zero_polynomial_degree_undefined():
    R = std_ring()
    with pytest.raises(InputError):
        R.zero().degree_pair()


# ---------------------------------------------------------------------------
# parse and print


def test_parse_simple():
    R = std_ring()
    x, y = R.gens()
    assert parse_polynomial(R, "x^2 - 2*x*y + y^2") == (x - y) ** 2
    assert parse_polynomial(R, "-x + x") == R.zero()


def test_parse_rational_coefficient():
    R = std_ring()
    x, _ = R.gens()
    f = parse_polynomial(R, "x/2 + x/2")
    assert f == x


def test_parse_zero_denominator_is_input_error():
    with pytest.raises(InputError, match="denominator 0 is zero"):
        parse_polynomial(std_ring(0), "x/0")
    with pytest.raises(InputError, match=f"denominator {DEFAULT_PRIME} is zero"):
        parse_polynomial(std_ring(DEFAULT_PRIME), f"x/{DEFAULT_PRIME}")
    # a denominator that is a unit mod p still divides
    R = std_ring(DEFAULT_PRIME)
    x, _ = R.gens()
    assert parse_polynomial(R, f"x/{DEFAULT_PRIME + 2}") * R.const(2) == x


def test_parse_parens_and_unary_minus():
    R = std_ring()
    x, y = R.gens()
    assert parse_polynomial(R, "-(x - y)^2") == (x - y) ** 2 * R.const(-1)


def test_parse_unknown_name():
    R = std_ring()
    with pytest.raises(InputError):
        parse_polynomial(R, "x + z")


def test_print_parse_round_trip():
    R = std_ring()
    x, y = R.gens()
    for f in (x, x + y, (x - y) ** 3, x * y - y * y, R.const(-3)):
        assert parse_polynomial(R, poly_str(f)) == f


def test_print_deterministic_order():
    R = std_ring()
    x, y = R.gens()
    assert poly_str(x + y) == poly_str(y + x)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_monomial_curve():
    T = GradedRing(field_for_char(0), ("t",), ((1,),), (1,))
    (t,) = T.gens()
    R = GradedRing(field_for_char(0), ("x", "y"), ((2,), (3,)), (2, 3))
    x, y = R.gens()
    f = x ** 3 - y ** 2
    assert substitute(f, T, {"x": t ** 2, "y": t ** 3}).is_zero()


def test_substitute_moves_unmapped_names_and_maps_the_rest():
    R = GradedRing(field_for_char(0), ("x", "y", "z"), ((1,),) * 3, (1, 1, 1))
    T = GradedRing(field_for_char(0), ("s", "z", "y"), ((1,),) * 3, (1, 1, 1))
    f = parse_polynomial(R, "x^2*y + 3*x*z - z^2 + 5")
    got = substitute(f, T, {"x": parse_polynomial(T, "s + y")})
    assert got == parse_polynomial(T, "(s + y)^2*y + 3*(s + y)*z - z^2 + 5")
    # a name the target lacks is never looked up when its exponent is zero
    S = GradedRing(field_for_char(0), ("y", "z"), ((1,),) * 2, (1, 1))
    assert substitute(parse_polynomial(R, "y*z - z^2"), S, {}) == parse_polynomial(S, "y*z - z^2")


def test_substitute_char_mismatch():
    R0 = std_ring(0)
    Rp = std_ring(DEFAULT_PRIME)
    x, _ = R0.gens()
    with pytest.raises(InputError):
        substitute(x, Rp, {"x": Rp.gens()[0], "y": Rp.gens()[1]})


# ---------------------------------------------------------------------------
# the arithmetic kernels against sympy

KERNEL_CHARS = (7, 32003, 2 ** 61 - 1, 0)
KERNEL_NAMES = ("x", "y", "z")


def _coefficients(char):
    """Signed ints past 2^64, so every prime here wraps; over Q, fractions
    as well."""
    ints = st.integers(-(2 ** 70), 2 ** 70)
    if char:
        return ints
    return ints | st.fractions(min_value=-(10 ** 9), max_value=10 ** 9, max_denominator=10 ** 4)


@st.composite
def _polynomials(draw, ring, max_terms=4):
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    d = draw(st.dictionaries(exps, _coefficients(ring.field.char), max_size=max_terms))
    return ring.from_dict({e: ring.field.of(c) for e, c in d.items()})


def _domain(char):
    return {"modulus": char} if char else {"domain": sympy.QQ}


def _to_sympy(f, symbols):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms}
    return sympy.Poly.from_dict(terms, *symbols, **_domain(f.ring.field.char))


def _sympy_terms(poly, char):
    """{exps: coefficient} of a sympy Poly, in the engine's residues."""
    if char:
        return {e: int(c) % char for e, c in poly.as_dict().items() if int(c) % char}
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}


def _assert_canonical(f, want):
    """f has exactly the terms of want, sorted descending in the ring order,
    with coefficients in range(p) over F_p."""
    assert dict(f.terms) == want
    keys = [f.ring.term_sort_key(e) for e, _ in f.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    p = f.ring.field.char
    assert all(c and (not p or 0 < c < p) for _, c in f.terms)


@pytest.mark.parametrize("char", KERNEL_CHARS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_add_and_mul_match_sympy(char, data):
    R = GradedRing(field_for_char(char), KERNEL_NAMES, ((1,),) * 3, (1, 1, 1))
    symbols = sympy.symbols(KERNEL_NAMES)
    f, g = data.draw(_polynomials(R)), data.draw(_polynomials(R))
    sf, sg = _to_sympy(f, symbols), _to_sympy(g, symbols)
    _assert_canonical(f + g, _sympy_terms(sf + sg, char))
    _assert_canonical(f - g, _sympy_terms(sf - sg, char))
    _assert_canonical(f * g, _sympy_terms(sf * sg, char))
    _assert_canonical(f + (-f), {})


@pytest.mark.parametrize("char", KERNEL_CHARS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_substitute_matches_sympy(char, data):
    F = field_for_char(char)
    R = GradedRing(F, KERNEL_NAMES, ((1,),) * 3, (1, 1, 1))
    T = GradedRing(F, ("s", "t", "z"), ((1,),) * 3, (1, 1, 1))
    f = data.draw(_polynomials(R))
    images = {nm: data.draw(_polynomials(T, max_terms=3)) for nm in ("x", "y")}
    got = substitute(f, T, images)  # z goes to T's z
    symbols, tsyms = sympy.symbols(KERNEL_NAMES), sympy.symbols(T.names)
    expr = _to_sympy(f, symbols).as_expr().subs(
        {symbols[0]: _to_sympy(images["x"], tsyms).as_expr(),
         symbols[1]: _to_sympy(images["y"], tsyms).as_expr()},
        simultaneous=True)
    _assert_canonical(got, _sympy_terms(sympy.Poly(expr, *tsyms, **_domain(char)), char))


@pytest.mark.parametrize("char", (7, 0))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_degree_pair_is_kept_and_failures_repeat(char, data):
    R = GradedRing(field_for_char(char), KERNEL_NAMES, ((1, 0), (1, 0), (0, 1)), (1, 1, 1))
    a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    x_powers = data.draw(st.lists(st.integers(0, a), min_size=1, unique=True))
    coeffs = _coefficients(char).filter(lambda c: R.field.of(c))
    h = R.from_dict({(i, a - i, b): R.field.of(data.draw(coeffs)) for i in x_powers})
    want = ((a, b), a + b)
    assert h.degree_pair() == want and h.degree_pair() == want
    f = data.draw(_polynomials(R))
    pairs = {(R.monomial_mdeg(e), R.monomial_weight(e)) for e, _ in f.terms}
    if len(pairs) == 1:
        assert f.degree_pair() == f.degree_pair() == pairs.pop()
    else:
        # zero or inhomogeneous: every call raises, not just the first
        for _ in range(2):
            with pytest.raises(InputError):
                f.degree_pair()
