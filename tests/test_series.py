"""Ring arithmetic of the truncated bivariate series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germindex import (
    AboveDegree,
    NonLocalSubstitution,
    NotAUnit,
    NotDivisible,
    Poly2,
    TruncatedSeries2,
)
from germindex.surd import Surd

S = TruncatedSeries2
z1 = S.variable(1)
z2 = S.variable(2)
one = S.constant(1)


def test_add_variables():
    assert z1 + z2 == S.from_terms({(1, 0): 1, (0, 1): 1})


def test_add_zero_identity():
    s = S.from_terms({(2, 1): Fraction(3, 2), (0, 0): -1})
    assert s + S.zero() == s


def test_add_cancels_constant():
    s = one + z1 * z2
    assert s + S.constant(-1) == z1 * z2


def test_mul_difference_of_squares():
    assert (one + z1) * (one - z1) == one - z1 * z1


def test_mul_one_identity():
    s = S.from_terms({(1, 2): 5, (3, 0): Fraction(-1, 3)})
    assert s * one == s


def test_square_of_sum():
    assert (z1 + z2) ** 2 == S.from_terms({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_mul_truncates_to_min_precision():
    a = S.from_terms({(1, 0): 1}, precision=5)
    b = S.from_terms({(0, 1): 1}, precision=9)
    assert (a * b).precision == 5


def test_compose_coordinate_swap():
    s = z1 + z2 ** 2
    assert s.compose((z2, z1)) == z2 + z1 ** 2


def test_compose_shear():
    assert z1.compose((z1 + z1 * z2, z2)) == z1 + z1 * z2


def test_compose_geometric_series():
    # 1/(1-z1) substituted with (z1+z2, 0)
    n = 8
    geo = S.from_terms({(k, 0): 1 for k in range(n + 1)}, precision=n)
    images = (S.variable(1, n) + S.variable(2, n), S.zero(n))
    expected = S.zero(n)
    term = S.constant(1, n)
    for _ in range(n + 1):
        expected = expected + term
        term = term * (S.variable(1, n) + S.variable(2, n))
    assert geo.compose(images) == expected


def test_compose_rejects_nonlocal():
    with pytest.raises(NonLocalSubstitution):
        z1.compose((one, z2))


def test_partial_derivative():
    s = S.from_terms({(2, 1): 1})
    assert s.partial_derivative(1) == S.from_terms({(1, 1): 2}, precision=15)
    assert S.constant(7).partial_derivative(2).is_zero()
    assert S.from_terms({(3, 1): 1}).partial_derivative(2) == S.from_terms({(3, 0): 1}, 15)


def test_partial_derivative_drops_precision():
    assert z1.partial_derivative(1).precision == z1.precision - 1


def test_invert_unit_geometric():
    inv = (one + z1).invert_unit()
    expected = S.from_terms({(k, 0): (-1) ** k for k in range(17)})
    assert inv == expected
    assert inv * (one + z1) == one


def test_invert_constant():
    assert S.constant(2).invert_unit() == S.constant(Fraction(1, 2))


def test_invert_nonunit_raises():
    with pytest.raises(NotAUnit):
        z1.invert_unit()


def test_order():
    assert S.from_terms({(2, 1): 1, (4, 0): 1}).order() == 3
    assert S.constant(7).order() == 0
    assert S.zero(16).order() == AboveDegree(16)


def test_exact_divide_monomial():
    assert (z1 * z1 * z2).exact_divide(z1) == z1 * z2


def test_exact_divide_binomial():
    assert (z1 * z1 + z1 * z2).exact_divide(z1) == z1 + z2


def test_exact_divide_failure():
    with pytest.raises(NotDivisible):
        z1.exact_divide(z2)


def test_exact_divide_series_quotient():
    # z1 / (z1 + z1^2) = 1/(1+z1) as a series
    q = z1.exact_divide(z1 + z1 * z1)
    assert q == S.from_terms({(k, 0): (-1) ** k for k in range(16)}, precision=15)


# -- property tests ----------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)


@st.composite
def small_series(draw, max_deg=3, precision=8, zero_constant=False):
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if zero_constant and i == j == 0:
                continue
            c = draw(coeffs)
            if c:
                terms[(i, j)] = c
    return S.from_terms(terms, precision=precision)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(small_series(zero_constant=True), small_series(zero_constant=True),
       small_series(zero_constant=True), small_series(zero_constant=True),
       small_series())
@settings(max_examples=40)
def test_compose_associates_with_substitution(f1, f2, g1, g2, s):
    fg1 = f1.compose((g1, g2))
    fg2 = f2.compose((g1, g2))
    lhs = s.compose((f1, f2)).compose((g1, g2))
    rhs = s.compose((fg1, fg2))
    assert lhs == rhs


@given(small_series())
@settings(max_examples=40)
def test_unit_inverse_property(u):
    u = u + S.constant(1, u.precision)  # force unit-ish constant term
    if u.constant_term() == 0:
        return
    assert u * u.invert_unit() == S.constant(1, u.precision)


@given(small_series(), small_series(zero_constant=True))
@settings(max_examples=40)
def test_exact_divide_roundtrip(a, b):
    b = b + S.from_terms({(1, 0): 1}, b.precision)
    if b.is_zero():
        return
    prod = a * b
    q = prod.exact_divide(b)
    assert q == a.truncate(q.precision)


def test_ring_operations_coerce_ints_and_hash():
    z = S.variable(1, 6)
    one6 = S.constant(1, 6)
    assert 1 - z == S.from_terms({(0, 0): 1, (1, 0): -1}, 6)
    assert -z == S.from_terms({(1, 0): -1}, 6)
    assert z - 1 == -(1 - z)
    assert one6 + z == z + 1 == 1 + z
    assert (z * 3).coeff == {(1, 0): Fraction(3)}
    assert one6 == 1 and not z == 1 and z != 1
    assert hash(z + z * z) == hash(S.from_terms({(1, 0): 1, (2, 0): 1}, 6))
    assert S({(0, 0): Fraction(0), (7, 0): Fraction(1)}, 6).coeff == {}


@pytest.mark.parametrize("a, b", [
    (Poly2.constant(3), 3),
    (Poly2.zero(), 0),
    (Surd.rational(3), 3),
    (Surd.rational(Fraction(1, 2)), Fraction(1, 2)),
    (S.constant(3), 3),
    # equal up to the weaker precision 5
    (S.variable(1, 5), S.variable(1, 16) + S.variable(2, 16)**9),
], ids=["poly2", "poly2_zero", "surd", "surd_fraction", "series", "series_precision"])
def test_equal_values_hash_equal(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_truncate():
    s = S.from_terms({(0, 0): 1, (1, 1): 5, (0, 4): -1}, 6)
    assert s.truncate(6) is s
    low = s.truncate(3)
    assert (low.precision, low.coeff) == (3, {(0, 0): 1, (1, 1): 5})
    assert low == s  # equal up to the weaker precision
    with pytest.raises(ValueError):
        s.truncate(7)


def test_univariate_zero_has_order_above_its_degree():
    z = S.variable(1, 5)
    assert (z - z).order() == AboveDegree(5)
    assert S.zero(5).order() == AboveDegree(5)


def test_negative_power_needs_a_unit():
    z = S.variable(2, 6)
    with pytest.raises(NotAUnit):
        z ** -1
    u = 1 - z
    assert u ** -2 * u * u == S.constant(1, 6)
