"""Exact arithmetic in Q(sqrt(d), i)."""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germindex import FieldMismatch, GermIndexError, surd
from germindex.surd import Surd


def golden_like():
    return Surd.sqrt_term(5, a=Fraction(3, 2), b=Fraction(1, 2))  # (3+sqrt5)/2


def test_inverse_of_quadratic_unit():
    d = golden_like()
    inv = d.inverse()
    assert inv == Surd.sqrt_term(5, a=Fraction(3, 2), b=Fraction(-1, 2))
    assert d * inv == Surd.rational(1)


def test_power_recurrence():
    lam = Surd.sqrt_term(5, a=9, b=4)  # 9 + 4 sqrt 5
    seq = [lam**n + lam**-n for n in range(8)]
    for n in range(1, 7):
        assert seq[n + 1] == Surd.rational(18) * seq[n] - seq[n - 1]
    assert seq[1] == Surd.rational(18)


def test_complex_conjugation_and_norm():
    z = Surd(a=Fraction(3, 5), c=Fraction(4, 5))  # (3+4i)/5, unit modulus
    assert z.norm_squared() == Surd.rational(1)
    assert z.conjugate() * z == Surd.rational(1)
    w = Surd(a=1, b=1, c=2, e=-1, d=2)
    assert (w * w.conjugate()).is_real()


def test_mixed_field_rejected():
    x = Surd.sqrt_term(2)
    y = Surd.sqrt_term(3)
    with pytest.raises(FieldMismatch):
        x + y
    with pytest.raises(FieldMismatch):
        x * y
    assert (x == y) is False


def test_rational_values_coerce_between_fields():
    x = Surd.sqrt_term(2)
    r = Surd.rational(Fraction(1, 3))
    assert (x * r).d == 2
    assert x + r - x == r


def test_sign_analysis():
    assert Surd.sqrt_term(5, a=-2, b=1).sign() == 1   # sqrt5 > 2
    assert Surd.sqrt_term(5, a=-3, b=1).sign() == -1  # sqrt5 < 3
    assert Surd.sqrt_term(2, a=0, b=-1).sign() == -1
    assert Surd.rational(0).sign() == 0
    lam = golden_like()
    assert lam > 1
    assert lam.inverse() < 1
    assert abs(-lam) == lam


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
squarefree = st.integers(2, 300).filter(
    lambda d: all(m == 1 for m in sympy.factorint(d).values()))


@given(rationals, rationals, squarefree)
@settings(max_examples=200)
@example(Fraction(-9), Fraction(4), 5)  # 81 > 80: -9 + 4 sqrt5 = -1/(9 + 4 sqrt5)
@example(Fraction(-3, 2), Fraction(1, 2), 5)
@example(Fraction(0), Fraction(0), 2)
def test_sign_agrees_with_sympy(a, b, d):
    """One comparison of a^2 with b^2 d gives the exact sign of a + b sqrt(d)."""
    value = sympy.Rational(a.numerator, a.denominator) \
        + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d)
    assert Surd(a=a, b=b, d=d if b else None).sign() == sympy.sign(value)


nonzero = rationals.filter(bool)


@given(nonzero, nonzero, nonzero, nonzero, squarefree)
@settings(max_examples=100)
def test_inverse_of_a_full_surd(a, b, c, e, d):
    """Every element with all four components nonzero is inverted exactly:
    its |z|^2 has a nonzero norm, so the one zero test is the only one."""
    z = Surd(a=a, b=b, c=c, e=e, d=d)
    assert z * z.inverse() == 1


def test_division_and_negative_powers():
    z = Surd(a=1, c=1)  # 1 + i
    assert z**2 == Surd(c=2)
    assert (z**-2) * z**2 == Surd.rational(1)
    assert Surd.rational(2) / z == z.conjugate()


def test_json_roundtrip():
    vals = [golden_like(), Surd(a=Fraction(3, 5), c=Fraction(4, 5)),
            Surd.rational(7), Surd(a=0, b=1, c=2, e=Fraction(1, 2), d=3)]
    for v in vals:
        assert Surd(**v.to_json()) == v


def test_non_squarefree_discriminant_rejected():
    # sqrt(4) would be the rational 2 stored as an irrational part, so that
    # sqrt_term(4) == rational(2) came out False
    for d in (4, 8, 12, 18, 50):
        with pytest.raises(ValueError):
            Surd.sqrt_term(d)
    assert Surd.sqrt_term(6) * Surd.sqrt_term(6) == Surd.rational(6)


def test_discriminant_checked_once_per_d(monkeypatch):
    # arithmetic results reuse their operands' d; the O(sqrt(d)) squarefree
    # check must not run again for each of them
    calls = []
    real = surd.square_part

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(surd, "square_part", counting)
    surd._is_squarefree.cache_clear()
    d = 10**12 + 39  # prime
    x = Surd.sqrt_term(d)
    y = x * x + x
    assert y == Surd.sqrt_term(d, a=d)
    assert calls == [d]


def test_large_prime_discriminant_is_accepted_quickly():
    # one factorization decides squarefreeness; trial division to sqrt(d)
    # would take about 10^10 steps here
    start = time.perf_counter()
    d = 100000000000000000039  # prime
    x = Surd(0, 1, 1, 0, d=d)
    assert x * x == Surd(d - 1, 0, 0, 2, d=d)
    assert time.perf_counter() - start < 5


def test_square_of_a_large_prime_is_rejected():
    p = 10**10 + 19  # prime
    assert surd.square_part(3 * p * p) == (p, 3)
    with pytest.raises(ValueError):
        Surd.sqrt_term(3 * p * p)


@pytest.mark.parametrize("p, q", [
    (1000000000000037, 3000000000000037),                # two 16-digit primes
    (100000000000000000039, 300000000000000000053),      # two 21-digit primes
])
def test_product_of_two_large_primes_is_decided_quickly(p, q):
    # a full factorization of p*q took seconds and grows without bound; the
    # square part is decided with bounded effort or refused as a domain error
    start = time.perf_counter()
    try:
        x = Surd.sqrt_term(p * q)
    except GermIndexError:
        pass
    else:
        assert x * x == Surd.rational(p * q)
    assert time.perf_counter() - start < 1
