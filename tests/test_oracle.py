"""Elimination oracle: independent multiplicities, counts, torus numbers."""

from fractions import Fraction

import pytest

from germindex import NonIsolated, Poly2
from germindex.oracle import (
    PolynomialMap,
    affine_fixed_count,
    fixed_index_positive,
    fixed_multiplicity,
    torus_lefschetz_oracle,
)
from germindex.surd import Surd

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)


def remark42():
    return PolynomialMap(X * -2 - X**2 - Y, X)


def remark43():
    return PolynomialMap(X + X * (X**2 + Y), Y + X**2)


def test_fixed_multiplicity_remark42():
    m = remark42()
    assert fixed_multiplicity(m, (0, 0), 1) == 1
    assert fixed_multiplicity(m, (0, 0), 2) == 3
    assert fixed_multiplicity(m, (0, 0), 3) == 1
    assert fixed_multiplicity(m, (-4, -4), 1) == 1


def test_fixed_multiplicity_nonfixed_point_is_zero():
    assert fixed_multiplicity(remark42(), (1, 1), 1) == 0


def test_fixed_multiplicity_refuses_points_on_fixed_curves():
    with pytest.raises(NonIsolated):
        fixed_multiplicity(remark43(), (0, 0), 1)


def test_fixed_multiplicity_divides_out_a_common_unit():
    # at n = 2 the fixed-point system shares 3 + z1 + z2, a curve of
    # period-2 points that misses the origin and meets every shear line
    # through it
    from germindex.germs import MapGerm, iterate, local_index

    p1, p2 = X * 3 + Y + X * Y + X**2, X
    assert local_index(iterate(MapGerm.from_polynomials(p1, p2), 2)).nu_A == 1
    assert fixed_multiplicity(PolynomialMap(p1, p2), (0, 0), 2) == 1


def test_affine_fixed_count_remark42():
    assert affine_fixed_count(remark42(), 1) == 2


def test_affine_fixed_count_product_structure():
    assert affine_fixed_count(PolynomialMap(X + X**2, Y + Y**2), 1) == 4


def test_affine_fixed_count_no_solutions():
    assert affine_fixed_count(PolynomialMap(X + ONE, Y), 1) == 0


def test_affine_fixed_count_curve_raises():
    with pytest.raises(NonIsolated):
        affine_fixed_count(remark43(), 1)


def test_positivity_pattern_remark43():
    """Points (0, c) have positive index for f^n exactly when (c+1)^n = 1;
    check the rational candidates c = 0 and c = -2 for n <= 4."""
    m = remark43()
    for n in range(1, 5):
        assert fixed_index_positive(m, (0, 0), n), n
        expected = (n % 2 == 0)  # (-1)^n = 1 iff n even
        assert fixed_index_positive(m, (0, -2), n) == expected, n


def test_positivity_matches_multiplicity_at_isolated_points():
    m = remark42()
    assert fixed_index_positive(m, (0, 0), 1)
    assert not fixed_index_positive(m, (1, 1), 1)


def test_torus_oracle_fixture_values():
    d1 = Surd.sqrt_term(5, a=Fraction(3, 2), b=Fraction(1, 2))
    d2 = Surd.sqrt_term(5, a=Fraction(3, 2), b=Fraction(-1, 2))
    assert torus_lefschetz_oracle(d1, d2, 1) == Surd.rational(1)
    one = Surd.rational(1)
    assert torus_lefschetz_oracle(one, one, 5) == Surd.rational(0)
    minus = Surd.rational(-1)
    assert torus_lefschetz_oracle(minus, minus, 1) == Surd.rational(16)


def test_torus_oracle_requires_unimodular_product():
    with pytest.raises(ValueError):
        torus_lefschetz_oracle(Surd.rational(2), Surd.rational(1), 1)
