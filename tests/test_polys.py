"""Exact polynomials and the computer-algebra boundary.

The ring-level composition, gcd, factorization and resultant are checked
against sympy's expression-level routines, which serve here only as an
independent reference.
"""

import ast
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import germindex
from germindex import (MapGerm, NotDivisible, Poly1, Poly2, factor_list2, gcd2, iterate,
                       resultant_z1)
from germindex.oracle import PolynomialMap
from germindex.polys import charpoly, factor_list1, gcd1, real_root_intervals1

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


def to_expr1(p: Poly1):
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * T**k
                    for k, c in enumerate(p.coeff)))


def from_expr1(expr) -> Poly1:
    return Poly1([Fraction(int(c.p), int(c.q))
                  for c in reversed(sp.Poly(expr, T, domain="QQ").all_coeffs())])


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


def compose_reference(p: Poly2, im1: Poly2, im2: Poly2) -> Poly2:
    expr = to_expr(p).subs({Z1: to_expr(im1), Z2: to_expr(im2)}, simultaneous=True)
    return from_expr(sp.expand(expr))


def all_fractions(p: Poly2) -> bool:
    return all(type(c) is Fraction for c in p.coeff.values())


# the zero polynomial and constants as well as general polynomials
any_polys = st.one_of(
    small_polys(max_degree=3, max_terms=5),
    coefficients.map(Poly2.constant),
    st.just(Poly2.zero()),
)


# -- composition against the expression-level reference -----------------------


@given(any_polys, any_polys, any_polys, any_polys)
@settings(max_examples=60, deadline=None)
def test_compose_matches_expression_substitution(p, q, im1, im2):
    out = p.compose(im1, im2)
    assert out == compose_reference(p, im1, im2)
    assert all_fractions(out)
    # the partner form shares one power table and gives the same results
    pair = p.compose(im1, im2, partner=q)
    assert pair == (out, compose_reference(q, im1, im2))
    assert all(all_fractions(r) for r in pair)


@given(any_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_shear_matches_expression_substitution(p, c):
    out = p.shear_z2(c)
    assert out == from_expr(sp.expand(to_expr(p).subs(
        Z2, Z2 + sp.Rational(c.numerator, c.denominator) * Z1)))
    assert all_fractions(out)


@given(any_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_translate_matches_expression_substitution(p, a, b):
    out = p.translate(a, b)
    assert out == compose_reference(p, X + a, Y + b)
    assert all_fractions(out)


def test_compose_keeps_fraction_coefficients_of_integral_results():
    # the ring's rationals must come back as Fraction, also where they are
    # integers or where every coefficient cancels
    p = X * Fraction(1, 2) + Y**2
    out = p.compose(X * 2, Y - X)
    assert out == X + Y**2 - X * Y * 2 + X**2
    assert all_fractions(out)
    assert (X - Y).compose(Y, Y) == Poly2.zero()
    assert Poly2.constant(Fraction(-7, 3)).compose(X, Y) == Poly2.constant(Fraction(-7, 3))


def test_compose_pinned_with_different_denominators():
    # the images are (z1 + 2 z2)/2 and (3 z1 - z2)/3; the two outers differ
    # in their denominators and in their degrees in z1 and z2
    p = X**2 + X * Y + Y**2 + X * Fraction(1, 7)
    q = Y**3 * Fraction(1, 5) - X
    im1, im2 = X * Fraction(1, 2) + Y, X - Y * Fraction(1, 3)
    p_out = Poly2.from_terms({(2, 0): Fraction(7, 4), (1, 1): Fraction(7, 6),
                              (0, 2): Fraction(7, 9), (1, 0): Fraction(1, 14),
                              (0, 1): Fraction(1, 7)})
    q_out = Poly2.from_terms({(3, 0): Fraction(1, 5), (2, 1): Fraction(-1, 5),
                              (1, 2): Fraction(1, 15), (0, 3): Fraction(-1, 135),
                              (1, 0): Fraction(-1, 2), (0, 1): -1})
    assert p.compose(im1, im2) == p_out
    assert p.compose(im1, im2, partner=q) == (p_out, q_out)
    assert q.compose(im1, im2, partner=p) == (q_out, p_out)
    # denominators in the outer only
    assert (X * Y * Fraction(1, 6) + Y**2).compose(X * 2 - Y, X + 3) == Poly2.from_terms(
        {(2, 0): Fraction(4, 3), (1, 1): Fraction(-1, 6), (1, 0): 7,
         (0, 1): Fraction(-1, 2), (0, 0): 9})


@pytest.mark.parametrize("f, g, res", [
    # a denominator in f only
    (X * Fraction(1, 2) + Y, X**2 + Y, [0, Fraction(1, 4), 1]),
    # f of z1-degree 0 against g of z1-degree 2: the resultant is f^2
    (Y * Fraction(1, 3) + 1, X**2 * Fraction(1, 2) + X * Y + 1,
     [1, Fraction(2, 3), Fraction(1, 9)]),
    # different denominators in f and g, z1-degree 2 each
    (X**2 * Fraction(1, 2) + Y, X**2 * Fraction(1, 3) - X + Y * Fraction(1, 5),
     [0, Fraction(1, 2), Fraction(49, 900)]),
    # z1-degrees 3 and 2, the denominator on the side of lower degree
    (X**3 + X * Y - 2, X**2 * Fraction(3, 4) - Y**2,
     [Fraction(27, 16), 0, 0, 0, Fraction(-9, 16), Fraction(-3, 2), -1]),
])
def test_resultant_z1_pinned(f, g, res):
    assert resultant_z1(f, g) == Poly1(res)
    # deg_z1 f * deg_z1 g is even in every case, so the order does not matter
    assert resultant_z1(g, f) == Poly1(res)


@pytest.mark.parametrize("p1, p2", [
    (X * -2 - X**2 - Y, X),                                  # remark42
    (X * Fraction(3, 2) - Y * 2 + X**2 - X * Y * 3, X),      # Henon-like
])
def test_engine_and_oracle_iterates_agree(p1, p2):
    f = (to_expr(p1), to_expr(p2))
    ref = f
    for n in range(1, 5):
        if n > 1:
            ref = tuple(sp.expand(e.subs({Z1: ref[0], Z2: ref[1]}, simultaneous=True))
                        for e in f)
        germ_n = iterate(MapGerm.from_polynomials(p1, p2), n)
        map_n = PolynomialMap(p1, p2).iterate(n)
        assert (germ_n.poly1, germ_n.poly2) == (map_n.p1, map_n.p2)
        assert (map_n.p1, map_n.p2) == tuple(from_expr(e) for e in ref)


def test_only_polys_imports_sympy():
    # polys is the one boundary to the computer-algebra system
    importers = set()
    for path in sorted(Path(germindex.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                importers.add(path.name)
    assert importers == {"polys.py"}


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


univariate_coeffs = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                             min_size=2, max_size=6)


@given(univariate_coeffs)
@settings(max_examples=40, deadline=None)
def test_factor_list1_matches_expression_factor_list(coeffs):
    p = Poly1(coeffs)
    if p.degree() < 1:
        return
    const, factors = factor_list1(p)
    rebuilt = sp.Rational(const.numerator, const.denominator) * sp.Mul(
        *(to_expr1(f)**m for f, m in factors))
    assert from_expr1(sp.expand(rebuilt)) == p
    ref_const, ref = sp.factor_list(to_expr1(p), T)
    assert const == Fraction(int(ref_const.p), int(ref_const.q))
    assert factors == [(from_expr1(f), m) for f, m in ref]


@given(univariate_coeffs, univariate_coeffs, univariate_coeffs)
@settings(max_examples=40, deadline=None)
def test_gcd1_matches_expression_gcd(a, b, c):
    a, b, c = (to_expr1(Poly1(x)) for x in (a, b, c))
    a, b = sp.expand(a * c), sp.expand(b * c)
    ref = sp.Poly(a, T, domain="QQ").gcd(sp.Poly(b, T, domain="QQ"))
    got = gcd1(from_expr1(a), from_expr1(b))
    assert got == (from_expr1(ref.monic().as_expr()) if not ref.is_zero else Poly1([]))


def test_gcd1_is_monic_on_zero_input():
    assert gcd1(Poly1([]), Poly1([0, 3])) == Poly1([0, 1])
    assert gcd1(Poly1([]), Poly1([])) == Poly1([])


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_matrix_charpoly(M):
    assert charpoly(M) == from_expr1(sp.Matrix(M).charpoly(T).as_expr())


@given(univariate_coeffs)
@settings(max_examples=40, deadline=None)
def test_real_root_intervals1_isolate_the_real_roots(coeffs):
    p = Poly1(coeffs)
    if p.degree() < 1:
        return
    sqf = sp.sqf_part(to_expr1(p))
    intervals = real_root_intervals1(from_expr1(sqf))
    roots = sp.real_roots(sp.Poly(sqf, T))
    for (lo, hi), (next_lo, _) in zip(intervals, intervals[1:]):
        assert lo <= hi <= next_lo
    bounds = [(sp.Rational(lo.numerator, lo.denominator),
               sp.Rational(hi.numerator, hi.denominator)) for lo, hi in intervals]

    def holds(lo, hi, r):
        # (r, r) is a rational root found exactly; otherwise the interval is open
        return r == lo if lo == hi else bool(lo < r < hi)

    assert [sum(holds(lo, hi, r) for r in roots) for lo, hi in bounds] == [1] * len(bounds)
    assert [sum(holds(lo, hi, r) for lo, hi in bounds) for r in roots] == [1] * len(roots)


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
