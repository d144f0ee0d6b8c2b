"""Exact polynomials and the computer-algebra boundary.

The ring-level gcd, factorization and resultant are checked against sympy's
expression-level routines, which serve here only as an independent
reference.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from germindex import NotDivisible, Poly1, Poly2, factor_list2, gcd2, resultant_z1
from germindex.polys import factor_list1

X = Poly2.variable(1)
Y = Poly2.variable(2)
Z1, Z2, T = sp.symbols("z1 z2 t")


def to_expr(p: Poly2):
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * Z1**i * Z2**j
                    for (i, j), c in p.coeff.items()))


def from_expr(expr) -> Poly2:
    poly = sp.Poly(expr, Z1, Z2, domain="QQ")
    return Poly2({m: Fraction(int(c.p), int(c.q))
                  for m, c in zip(poly.monoms(), poly.coeffs())})


def rebuild(const, factors, one):
    out = one * const
    for f, m in factors:
        out = out * f**m
    return out


@contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(
    lambda c: c != 0)


@st.composite
def small_polys(draw, max_degree=2, max_terms=4):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)),
        coefficients, min_size=1, max_size=max_terms))
    return Poly2(terms)


def nonconstant(p: Poly2) -> Poly2:
    return p if not p.is_constant() else p + X


# -- ring-level boundary against the expression-level reference ---------------


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_gcd2_matches_expression_gcd(a, b, c):
    a, b = a * c, b * c
    assert gcd2(a, b) == from_expr(sp.gcd(to_expr(a), to_expr(b))).normalized()


@given(small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_factor_list2_matches_expression_factor_list(a, b):
    p = nonconstant(a) * nonconstant(b) ** 2
    _const, factors = factor_list2(p)
    _ref_const, ref = sp.factor_list(to_expr(p), Z1, Z2)
    assert factors == [(from_expr(f).normalized(), int(m)) for f, m in ref]


@given(small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_resultant_z1_matches_expression_resultant(f, g):
    f, g = nonconstant(f), nonconstant(g)
    ref = sp.resultant(sp.Poly(to_expr(f), Z1, Z2), sp.Poly(to_expr(g), Z1, Z2), Z1)
    coeffs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sp.Poly(ref, Z2).all_coeffs())] if ref != 0 else []
    assert resultant_z1(f, g) == Poly1(coeffs)


# -- factorization constants ------------------------------------------------


def test_factor_list2_constant_absorbs_sign_flips():
    # normalized() makes the graded-lex leading coefficient positive, which
    # flips -z2^2 + z1; the constant must flip with it
    assert factor_list2(X - Y**2) == (Fraction(-1), [((X - Y**2) * -1, 1)])
    const, factors = factor_list2((X - Y**2) * (X + Y) * 3)
    assert const == -3
    assert rebuild(const, factors, Poly2.constant(1)) == (X - Y**2) * (X + Y) * 3


def test_cas_calls_on_zero_and_constants():
    assert factor_list2(Poly2.zero()) == (Fraction(0), [])
    assert factor_list2(Poly2.constant(Fraction(-5, 3))) == (Fraction(-5, 3), [])
    assert gcd2(Poly2.zero(), Poly2.zero()) == Poly2.zero()
    assert gcd2(Poly2.zero(), X * Y * -3) == X * Y
    assert resultant_z1(Poly2.zero(), X) == Poly1([])


@given(st.lists(st.tuples(small_polys(), st.integers(1, 3)), min_size=1, max_size=3),
       coefficients)
@settings(max_examples=40, deadline=None)
def test_factor_list2_rebuilds_the_polynomial(parts, content):
    p = Poly2.constant(content)
    for q, m in parts:
        p = p * nonconstant(q) ** m
    const, factors = factor_list2(p)
    assert rebuild(const, factors, Poly2.constant(1)) == p
    assert all(f == f.normalized() for f, _ in factors)


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_factor_list1_matches_expression_factor_list(coeffs):
    p = Poly1(coeffs)
    if p.degree() < 1:
        return
    const, factors = factor_list1(p)
    assert rebuild(const, factors, Poly1([1])) == p
    expr = sum(sp.Rational(c.numerator, c.denominator) * T**k
               for k, c in enumerate(p.coeff))
    ref_const, ref = sp.factor_list(expr, T)
    assert const == Fraction(int(ref_const.p), int(ref_const.q))
    assert [(f.coeff, m) for f, m in factors] == [
        ([Fraction(int(c.p), int(c.q)) for c in reversed(sp.Poly(f, T).all_coeffs())], m)
        for f, m in ref]


# -- exact division ---------------------------------------------------------


def test_exact_div_terminates_when_not_divisible():
    with time_limit(5):
        assert not (X + X**2).divides(X)
        with pytest.raises(NotDivisible):
            X.exact_div(X + X**2)
        with pytest.raises(NotDivisible):
            (X * Y).exact_div(X * Y + X**3 + Y**3)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_divides_matches_remainder_of_expression_division(a, b, c):
    with time_limit(5):
        assert b.divides(a * b)
        assert (a * b).exact_div(b) == a
        _q, r = sp.div(to_expr(c), to_expr(b), Z1, Z2)
        assert b.divides(c) == (r == 0)
