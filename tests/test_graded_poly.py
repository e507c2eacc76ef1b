"""Fields, degrees, rings, polynomials, parsing and printing."""

import pytest
from fractions import Fraction

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
    assert F.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert F.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert F.char == 0


def test_prime_field_inverse():
    F = PrimeField(32003)
    for a in (1, 2, 17, 32002):
        assert F.mul(a, F.inv(a)) == 1


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
