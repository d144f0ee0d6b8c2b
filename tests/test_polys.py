"""Exact polynomials and the computer-algebra boundary.

The ring-level composition, gcd, factorization and resultant are checked
against sympy's expression-level routines, which serve here only as an
independent reference.
"""

import ast
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path
from unittest.mock import patch

import pytest
import sympy as sp
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_resultant
from sympy.polys.galoistools import gf_gcd
from sympy.polys.polyerrors import PolynomialDivisionFailed
from sympy.polys.rings import ring

import germindex
from conftest import count_calls
from germindex import (MapGerm, NotDivisible, Poly2, PrecisionExhausted, factor_list2, gcd2,
                       iterate, local_index, resultant_z1)
from germindex import polys
from germindex.polys import (PolynomialMap, charpoly, origin_alone_on_z2_zero,
                             real_root_intervals, trace_of_power)
from germindex.surd import Surd

X = Poly2.variable(1)
Y = Poly2.variable(2)
Z1, Z2 = sp.symbols("z1 z2")


def to_expr(p: Poly2):
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * Z1**i * Z2**j
                    for (i, j), c in p.coeff.items()))


def from_expr(expr) -> Poly2:
    poly = sp.Poly(expr, Z1, Z2, domain="QQ")
    return Poly2({m: Fraction(int(c.p), int(c.q))
                  for m, c in zip(poly.monoms(), poly.coeffs())})


def in_z1(coeffs) -> Poly2:
    """sum coeffs[k] * z1^k."""
    return Poly2.from_terms({(k, 0): c for k, c in enumerate(coeffs)})


def in_z2(coeffs) -> Poly2:
    """sum coeffs[k] * z2^k."""
    return Poly2.from_terms({(0, k): c for k, c in enumerate(coeffs)})


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
    st.just(Poly2({})),
)


# -- composition against the expression-level reference -----------------------


@given(any_polys, any_polys, any_polys, any_polys)
@settings(max_examples=60)
def test_compose_matches_expression_substitution(p, q, im1, im2):
    out = p.compose(im1, im2)
    assert out == compose_reference(p, im1, im2)
    assert all_fractions(out)
    # the partner form shares one power table and gives the same results
    pair = p.compose(im1, im2, partner=q)
    assert pair == (out, compose_reference(q, im1, im2))
    assert all(all_fractions(r) for r in pair)


@given(any_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40)
def test_shear_matches_expression_substitution(p, c):
    out = p.shear_z2(c)
    assert out == from_expr(sp.expand(to_expr(p).subs(
        Z2, Z2 + sp.Rational(c.numerator, c.denominator) * Z1)))
    assert all_fractions(out)


@given(any_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40)
def test_translate_matches_expression_substitution(p, a, b):
    out = p.translate(a, b)
    assert out == compose_reference(p, X + a, Y + b)
    assert all_fractions(out)


# images with denominators up to 12: general, in z1 alone, in z2 alone,
# constant and zero
wide_coefficients = st.fractions(min_value=-50, max_value=50,
                                 max_denominator=12).filter(bool)


@st.composite
def shaped_polys(draw):
    max_i, max_j = draw(st.sampled_from(((3, 3), (3, 0), (0, 3), (0, 0))))
    return Poly2(draw(st.dictionaries(
        st.tuples(st.integers(0, max_i), st.integers(0, max_j)),
        wide_coefficients, max_size=5)))


def ring_compose(p: Poly2, im1: Poly2, im2: Poly2) -> Poly2:
    """p(im1, im2) by sympy's PolyElement.compose over QQ."""
    R, z1, z2 = ring("z1,z2", QQ)

    def to_ring(q):
        return R({e: QQ(c.numerator, c.denominator) for e, c in q.coeff.items()})

    out = to_ring(p).compose([(z1, to_ring(im1)), (z2, to_ring(im2))])
    return Poly2({e: Fraction(int(c.numerator), int(c.denominator))
                  for e, c in out.items()})


@given(shaped_polys(), shaped_polys(), shaped_polys(), shaped_polys())
@settings(max_examples=80)
def test_compose_matches_the_ring_compose(p, q, im1, im2):
    assert p.compose(im1, im2) == ring_compose(p, im1, im2)
    assert p.compose(im1, im2, partner=q) == (ring_compose(p, im1, im2),
                                              ring_compose(q, im1, im2))


def test_compose_keeps_fraction_coefficients_of_integral_results():
    # the ring's rationals must come back as Fraction, also where they are
    # integers or where every coefficient cancels
    p = X * Fraction(1, 2) + Y**2
    out = p.compose(X * 2, Y - X)
    assert out == X + Y**2 - X * Y * 2 + X**2
    assert all_fractions(out)
    assert (X - Y).compose(Y, Y) == Poly2({})
    assert Poly2.constant(Fraction(-7, 3)).compose(X, Y) == Poly2.constant(Fraction(-7, 3))
    # one canonical form, however the polynomial was built: from a dict of
    # unreduced fractions, a scalar multiple, a sum whose terms cancel and a
    # composition with denominators in the images
    ways = [
        Poly2({(2, 0): Fraction(3, 6), (0, 1): Fraction(-4, 12), (1, 1): 0,
               (0, 0): Fraction(10, 12)}),
        (X**2 * 3 - Y * 2 + 5) * Fraction(1, 6),
        (X**2 * Fraction(1, 2) + X * Y * Fraction(7, 5))
        + (Fraction(5, 6) - Y * Fraction(1, 3) - X * Y * Fraction(7, 5)),
        (X * 2 - Y + Fraction(5, 6)).compose(X**2 * Fraction(1, 4), Y * Fraction(1, 3)),
    ]
    expected = {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(5, 6)}
    for q in ways:
        assert q == ways[0]
        assert hash(q) == hash(ways[0])
        assert dict(q.coeff) == expected
        assert all_fractions(q)


@pytest.mark.parametrize("a, b", [
    (Poly2.constant(3), 3),
    (Poly2({}), 0),
    (Surd.rational(3), 3),
    (Surd.rational(Fraction(1, 2)), Fraction(1, 2)),
], ids=["poly2", "poly2_zero", "surd", "surd_fraction"])
def test_equal_values_hash_equal(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


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
    assert resultant_z1(f, g) == in_z2(res)
    # deg_z1 f * deg_z1 g is even in every case, so the order does not matter
    assert resultant_z1(g, f) == in_z2(res)


def ring_resultant_z1(f: Poly2, g: Poly2) -> Poly2:
    """The reference: sympy's bivariate subresultant resultant of the
    integer numerators F = a*f and G = b*g, in a ring built here, over the
    denominators a**deg_z1 g * b**deg_z1 f."""
    R = ring("z1,z2", ZZ)[0]
    m = max((i for i, _ in f.coeff), default=0)
    n = max((i for i, _ in g.coeff), default=0)
    a, b = (lcm(*(c.denominator for c in p.coeff.values())) for p in (f, g))
    F, G = (R(dict(p.numerator_terms())) for p in (f, g))
    return Poly2({(0, k): Fraction(int(c), a**n * b**m)
                  for (k,), c in F.resultant(G).items()})


def slot_bits(f: Poly2, g: Poly2) -> tuple[int, int]:
    """The two terms of the slot width b of the packed resultant: the
    Goldstein-Graham term bitlen(isqrt(S_F**n * S_G**m) + 1) + 2 and the
    leading-coefficient term bitlen(max |coefficient|) + 2."""
    def rows(p):
        out = {}
        for (i, _), c in p.numerator_terms():
            out[i] = out.get(i, 0) + abs(c)
        return sum(s * s for s in out.values()), max(out, default=0)

    (S_F, m), (S_G, n) = rows(f), rows(g)
    top = max((abs(c) for p in (f, g) for _, c in p.numerator_terms()), default=0)
    return (isqrt(S_F**n * S_G**m) + 1).bit_length() + 2, top.bit_length() + 2


big_coefficients = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 12))


@st.composite
def big_polys(draw):
    """z1-degree 0..6, z2-degree 0..8, numerators up to 10**12 with
    denominators, scaled by 2**s so that the slot width of a pair falls on
    either side of the packing switch."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 8)),
                                 big_coefficients, min_size=1, max_size=10))
    return Poly2(terms) * 2**draw(st.sampled_from([0, 0, 40, 120]))


@given(big_polys(), big_polys())
@settings(max_examples=40)
def test_packed_resultant_matches_the_ring_resultant(f, g):
    event("packed" if max(slot_bits(f, g)) <= polys._PACKED_BITS else "ring route")
    ref = ring_resultant_z1(f, g)
    assert resultant_z1(f, g) == ref
    # packing is exact at every slot width; the switch only picks the faster
    with patch.object(polys, "_PACKED_BITS", float("inf")):
        assert resultant_z1(f, g) == ref


def test_packing_keeps_the_z1_degree():
    # against G = 3 the Goldstein-Graham term alone is b = 5 (a spare bit
    # over the tight 4, at which lead 16 would vanish); so at lead 32 = 2**5
    # the packed z1-leading coefficient z2 - 32 would be 0 without the
    # leading-coefficient term of b, and the univariate resultant fails
    with pytest.raises(PolynomialDivisionFailed):
        dup_resultant([2**5 - 32, 1], [3], ZZ)
    for lead in (16, 32):
        f, g = (Y - lead) * X + 1, Poly2.constant(3)
        assert slot_bits(f, g)[0] == 5
        assert resultant_z1(f, g) == Poly2.constant(3)
        assert resultant_z1(g, f) == Poly2.constant(3)


def test_packed_digits_borrow_across_zero_digits():
    # Res(z1 - z2, g) = g(z2, z2) = -3 z2^2 - 5 z2^4 - z2^6: z2-order 2, and
    # every negative digit borrows from a zero digit above it
    g = Y**2 * -3 - X**4 * 5 - X**3 * Y**3
    want = in_z2([0, 0, -3, 0, -5, 0, -1])
    assert resultant_z1(X - Y, g) == want
    assert resultant_z1(g, X - Y) == want
    assert resultant_z1(X - Y, g).order() == 2


@pytest.mark.parametrize("f, g", [
    # z1-degree 0 against z1-degree 3, with denominators: Res = f^3
    ((Y * 2 - 3) * Fraction(1, 5), X**3 + X * Y * Fraction(1, 2) + 1),
    # z1-degree 0 on both sides: Res = 1
    (Y * 7 - 1, Y**2 + Fraction(2, 3)),
])
def test_packed_resultant_of_z1_degree_zero(f, g):
    deg_g = max(i for i, _ in g.coeff)
    for a, b in ((f, g), (g, f)):
        assert resultant_z1(a, b) == ring_resultant_z1(a, b)
    assert resultant_z1(f, g) == f**deg_g


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
        want = tuple(from_expr(e) for e in ref)
        assert (germ_n.poly1, germ_n.poly2) == want
        assert (map_n.p1, map_n.p2) == want


def test_iterate_refuses_degrees_above_the_bound():
    # f^2 has degree 16 * 16 = 256, the bound; f^3 could reach 16 * 256
    f = PolynomialMap(Y + X**16, X)
    assert f.iterate(2).p1.total_degree() == polys.MAX_ITERATE_DEGREE
    with pytest.raises(PrecisionExhausted, match="f\\^3 .* 4096"):
        f.iterate(3)
    assert len(f._iterates) == 1  # the chain stays as it was
    # a triangular map never grows: f^n = (z1 + n z2^17, z2)
    g = PolynomialMap(X + Y**17, Y).iterate(40)
    assert (g.p1, g.p2) == (X + Y**17 * 40, Y)


def test_iterate_refuses_before_composing_anything():
    # remark42's f^k has degrees (2^k, 2^(k-1)): f^8 reaches the bound 256,
    # and f^9 may reach 512, so iterate(9) composes none of f^2 .. f^8
    pmap = PolynomialMap(X * -2 - X**2 - Y, X)
    with pytest.raises(PrecisionExhausted, match="f\\^9 is out of reach: f\\^9 .* 512"):
        pmap.iterate(9)
    assert pmap._iterates == []
    assert [pmap.iterate(k).p1.total_degree() for k in (2, 3)] == [4, 8]


def test_iterate_refuses_n_above_the_bound():
    # (z1 + z2^2, z2) never grows in degree, so only the bound on n stops a
    # deep iterate, and it does so before composing anything
    f = PolynomialMap(X + Y**2, Y)
    with pytest.raises(PrecisionExhausted, match=f"f\\^{polys.MAX_ITERATE_N + 1} "):
        f.iterate(polys.MAX_ITERATE_N + 1)
    assert f._iterates == []
    assert f.iterate(3).p1 == X + Y**2 * 3


@st.composite
def maps_fixing_the_origin(draw):
    """A map with Fraction coefficients and no constant terms, of degree up
    to 3 in each image."""
    def image():
        return Poly2(draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
                lambda e: 0 < e[0] + e[1] <= 3),
            coefficients, max_size=4)))
    return PolynomialMap(image(), image())


@given(maps_fixing_the_origin(), st.integers(1, 4), st.integers(1, 6))
@example(PolynomialMap(X * -2 - X**2 - Y, X), 4, 4)
@settings(max_examples=80)
def test_fixed_jets_are_the_exact_fixed_system_truncated(f, n, N):
    P, Q = f.fixed_system(n)
    assert f.fixed_jets(n, N) == (P.truncated(N), Q.truncated(N))
    # the chain holds the jets of f .. f^n, and a smaller n reads it
    assert len(f._jets[N]) == n
    assert f.fixed_jets(1, N) == tuple(p.truncated(N) for p in f.fixed_system(1))


def _independent(P: Poly2, Q: Poly2) -> bool:
    """Are the linear parts of P and Q linearly independent?"""
    (a, b), (c, d) = P.linear_part(), Q.linear_part()
    return a * d != b * c


@st.composite
def henon_maps_at_their_second_point(draw):
    """(a z1 + b z2 + q, z1), q a quadratic form, localized at its fixed
    point (t, t), t = (1 - a - b) / q(1, 1) (the origin when q(1, 1) = 0):
    the linear part of the localized map has rational entries."""
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    q = Poly2.from_terms({e: draw(st.integers(-3, 3)) for e in ((2, 0), (1, 1), (0, 2))})
    c = q.evaluate(1, 1)
    t = Fraction(1 - a - b) / c if c else Fraction(0)
    return PolynomialMap(X * a + Y * b + q, X).localized((t, t))


@given(st.one_of(maps_fixing_the_origin(), henon_maps_at_their_second_point()),
       st.integers(1, 8))
@example(PolynomialMap(X * 2 - Y + X**2, X), 5)          # Df has the eigenvalue 1
@example(PolynomialMap(-X - Y + X**2, X), 3)             # (Df)^3 = I
@example(PolynomialMap(X + Y * 3 + X**2 * 2 + Y**2, X).localized(
    (Fraction(-1), Fraction(-1))), 2)                     # Df = [[-3, 1], [1, 0]]
@example(PolynomialMap(-Y + X**2 * 2 + Y**2, X).localized(
    (Fraction(2, 3), Fraction(2, 3))), 8)                 # Df = [[8/3, 1/3], [1, 0]]
@settings(max_examples=80)
def test_simple_at_origin_reads_the_linear_parts_of_the_fixed_system(f, n):
    # the capped chain composes the jets of f^n; (Df)^n is read on integers
    assert f.simple_at_origin(n) == _independent(*f.fixed_jets(n, 2))
    if n <= 3:
        assert f.simple_at_origin(n) == _independent(*f.fixed_system(n))


def test_simple_at_origin_of_a_rotation_of_order_four():
    # Df = [[0, -1], [1, 0]] has (Df)^4 = I, so the origin is a simple fixed
    # point of f^n exactly when 4 does not divide n
    f = PolynomialMap(-Y + X**2, X)
    assert [f.simple_at_origin(n) for n in (1, 2, 3, 4, 8)] == [True] * 3 + [False] * 2
    assert f._iterates == [] and f._jets == {}


def test_simple_at_origin_refuses_as_the_chains_do():
    f = PolynomialMap(-Y + X**2, X)
    with pytest.raises(ValueError, match="n >= 1"):
        f.simple_at_origin(0)
    with pytest.raises(PrecisionExhausted, match=f"f\\^{polys.MAX_ITERATE_N + 1} "):
        f.simple_at_origin(polys.MAX_ITERATE_N + 1)
    assert f.simple_at_origin(polys.MAX_ITERATE_N) is False  # 4 divides 1000
    with pytest.raises(ValueError, match="fixes the origin"):
        PolynomialMap(X + 1, Y).simple_at_origin(1)


def test_fixed_jets_refuse_a_map_that_moves_the_origin():
    with pytest.raises(ValueError, match="fixes the origin"):
        PolynomialMap(X + 1, Y).fixed_jets(2, 4)
    with pytest.raises(ValueError, match="fixes the origin"):
        PolynomialMap(X, Y + Fraction(1, 2) + X**2).fixed_jets(1, 4)


def test_fixed_jets_refuse_n_above_the_bound():
    f = PolynomialMap(X * -2 - X**2 - Y, X)
    with pytest.raises(PrecisionExhausted, match=f"f\\^{polys.MAX_ITERATE_N + 1} "):
        f.fixed_jets(polys.MAX_ITERATE_N + 1, 4)
    assert f._jets == {}
    # every jet has degree below N, so a deep n meets no degree bound
    P, Q = f.fixed_jets(polys.MAX_ITERATE_N, 4)
    assert max(P.total_degree(), Q.total_degree()) <= 3


def test_only_polys_imports_sympy():
    # polys is the one boundary to the computer-algebra system, and the only
    # module that knows Poly2 is an integer numerator over one denominator
    importers, readers = set(), set()
    for path in sorted(Path(germindex.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_num", "_den"):
                readers.add(path.name)
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                importers.add(path.name)
    assert importers == {"polys.py"}
    assert readers == {"polys.py"}


# -- ring-level boundary against the expression-level reference ---------------


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=40)
def test_gcd2_matches_expression_gcd(a, b, c):
    a, b = a * c, b * c
    assert gcd2(a, b) == from_expr(sp.gcd(to_expr(a), to_expr(b))).normalized()


@st.composite
def binary_form_products(draw):
    """Rational content times z1^a z2^b times up to three binary forms of
    degree 1-3 with small integer coefficients, each to the power 1 or 2."""
    p = Poly2.constant(draw(coefficients)) * X**draw(st.integers(0, 2)) * Y**draw(
        st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, 3))
        cs = draw(st.lists(st.integers(-3, 3), min_size=k + 1, max_size=k + 1).filter(any))
        form = Poly2.from_terms({(i, k - i): c for i, c in enumerate(cs)})
        p = p * form ** draw(st.integers(1, 2))
    return nonconstant(p)


@given(st.one_of(
    st.builds(lambda a, b: nonconstant(a) * nonconstant(b) ** 2, small_polys(), small_polys()),
    binary_form_products()))
# a zero coefficient of z1 z2 sorts before a negative one
@example((X**2 - X * Y + Y**2) * (X**2 + Y**2))
@settings(max_examples=80)
def test_factor_list2_matches_expression_factor_list(p):
    const, factors = factor_list2(p)
    ref_const, ref = sp.factor_list(to_expr(p), Z1, Z2)
    ref = [(from_expr(f), int(m)) for f, m in ref]
    assert factors == [(f.normalized(), m) for f, m in ref]
    # each reference factor is a scalar multiple r of its normalized form,
    # and the constant takes r**m over
    want = Fraction(int(ref_const.p), int(ref_const.q))
    for f, m in ref:
        want *= (f.leading_coefficient() / f.normalized().leading_coefficient()) ** m
    assert const == want


def test_binary_forms_skip_the_bivariate_factorizer(monkeypatch):
    # (z1 + 2 z2)^2 z1 z2^3 is a binary form: it is factored as the
    # univariate (t + 2)^2 t, and sympy's bivariate factorizer never runs
    from sympy.polys.rings import PolyElement

    bivariate = count_calls(monkeypatch, PolyElement, "factor_list")
    univariate = count_calls(monkeypatch, polys, "dup_factor_list")
    assert factor_list2((X + Y * 2) ** 2 * X * Y**3) == (
        Fraction(1), [(Y, 3), (X, 1), (X + Y * 2, 2)])
    assert bivariate == [] and len(univariate) == 1


@given(small_polys(), small_polys())
@settings(max_examples=40)
def test_resultant_z1_matches_expression_resultant(f, g):
    f, g = nonconstant(f), nonconstant(g)
    ref = sp.resultant(sp.Poly(to_expr(f), Z1, Z2), sp.Poly(to_expr(g), Z1, Z2), Z1)
    coeffs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sp.Poly(ref, Z2).all_coeffs())] if ref != 0 else []
    assert resultant_z1(f, g) == in_z2(coeffs)


# -- the mod-p coprimality certificate ----------------------------------------


def _vanishing_lead(var: Poly2) -> Poly2:
    """A polynomial in var that vanishes at every evaluation point."""
    out = Poly2.constant(1)
    for c in polys._EVAL_POINTS:
        out = out * (var - c)
    return out


@st.composite
def common_factors(draw):
    """A nonconstant factor in z2 alone, in z1 alone, with a leading
    coefficient that vanishes mod the prime at every evaluation point, or a
    general one."""
    c = draw(st.integers(-5, 5))
    kind = draw(st.sampled_from(("z2", "z1", "lead_z1", "lead_z2", "lead_prime",
                                 "general")))
    if kind == "z2":
        return Y ** draw(st.integers(1, 2)) + c
    if kind == "z1":
        return X ** draw(st.integers(1, 2)) + c
    if kind == "lead_z1":
        return X * _vanishing_lead(Y) + Y + c
    if kind == "lead_z2":
        return Y * _vanishing_lead(X) + X + c
    if kind == "lead_prime":
        return X * polys._PRIME + Y + c
    return nonconstant(draw(small_polys()))


@given(small_polys(), small_polys(), common_factors())
@settings(max_examples=80)
def test_certificate_never_certifies_a_common_factor(a, b, f):
    assert not polys.proved_coprime(a * f, b * f)
    assert not gcd2(a * f, b * f).is_constant()


@given(small_polys(max_degree=3, max_terms=5), small_polys(max_degree=3, max_terms=5))
@settings(max_examples=60)
def test_certified_pairs_are_coprime(a, b):
    certified = polys.proved_coprime(a, b)
    event(f"certified: {certified}")
    if certified:
        assert sp.gcd(to_expr(a), to_expr(b)).is_number


residues = st.integers(0, polys._PRIME - 1)
residue_lists = st.lists(residues, min_size=1, max_size=8).map(
    lambda u: [u[0] or 1] + u[1:])


def _times_mod_p(f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % polys._PRIME
    return out


@given(residue_lists, residue_lists,
       st.one_of(st.none(), residue_lists, st.lists(st.integers(-3, 3), min_size=2,
                                                    max_size=4).filter(lambda u: u[0])))
@example([1, 2], [1, 2], None)
@example([3], [1, 0, 5], None)
@example([1, 0, 0], [1, 0], None)
@settings(max_examples=150)
def test_unit_gcd_mod_p_matches_the_galois_field_gcd(f, g, common):
    """Euclid mod the prime on plain ints against sympy's gf_gcd, on random
    pairs and on pairs made to share a factor (of degree 0 when common has
    one entry)."""
    p = polys._PRIME
    if common is not None:
        common = [c % p for c in common]
        f, g = _times_mod_p(f, common), _times_mod_p(g, common)
    want = len(gf_gcd(f, g, p, ZZ)) == 1
    event(f"coprime: {want}")
    assert polys._unit_gcd_mod_p(f, g) is want
    assert polys._unit_gcd_mod_p(g, f) is want
    if common is not None and len(common) > 1:
        assert not want


def test_certificate_skips_points_where_a_leading_coefficient_vanishes():
    # the z1-leading coefficient of a vanishes at the first evaluation
    # point, so the second one decides
    a = X * (Y - polys._EVAL_POINTS[0]) + 1
    assert polys.proved_coprime(a, X + Y)
    assert polys.proved_coprime(X, Y)
    assert polys.proved_coprime(Poly2.constant(3), X * Y)
    # every point is skipped: no verdict, and gcd2 asks the ring
    b = X * _vanishing_lead(Y) + 1
    assert not polys.proved_coprime(b, X + Y)
    assert gcd2(b, X + Y) == Poly2.constant(1)


# -- factorization constants ------------------------------------------------


def test_factor_list2_constant_absorbs_sign_flips():
    # normalized() makes the graded-lex leading coefficient positive, which
    # flips -z2^2 + z1; the constant must flip with it
    assert factor_list2(X - Y**2) == (Fraction(-1), [((X - Y**2) * -1, 1)])
    const, factors = factor_list2((X - Y**2) * (X + Y) * 3)
    assert const == -3
    assert rebuild(const, factors, Poly2.constant(1)) == (X - Y**2) * (X + Y) * 3


def test_cas_calls_on_zero_and_constants():
    assert factor_list2(Poly2({})) == (Fraction(0), [])
    assert factor_list2(Poly2.constant(Fraction(-5, 3))) == (Fraction(-5, 3), [])
    assert gcd2(Poly2({}), Poly2({})) == Poly2({})
    assert gcd2(Poly2({}), X * Y * -3) == X * Y
    assert resultant_z1(Poly2({}), X) == Poly2({})


@given(st.lists(st.tuples(small_polys(), st.integers(1, 3)), min_size=1, max_size=3),
       coefficients)
@settings(max_examples=40)
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
@settings(max_examples=40)
def test_factor_list2_in_one_variable_matches_expression_factor_list(coeffs):
    p = in_z1(coeffs)
    if p.total_degree() < 1:
        return
    const, factors = factor_list2(p)
    assert rebuild(const, factors, Poly2.constant(1)) == p
    ref_const, ref = sp.factor_list(to_expr(p), Z1, Z2)
    assert const == Fraction(int(ref_const.p), int(ref_const.q))
    assert factors == [(from_expr(f), m) for f, m in ref]


@given(small_polys(), small_polys(), small_polys(max_degree=1, max_terms=2))
@settings(max_examples=60)
def test_origin_alone_on_z2_zero_matches_expression_gcd(p, q, c):
    # a common factor c often puts a common root on the line z2 = 0
    p, q = p * c, q * c
    u1, u2 = (sp.Poly(to_expr(f).subs(Z2, 0), Z1, domain="QQ") for f in (p, q))
    deg_z1 = max(i for i, _ in p.coeff)
    if u1.is_zero or u2.is_zero or u1.degree() < deg_z1:
        assert origin_alone_on_z2_zero(p, q) is None
    else:
        assert origin_alone_on_z2_zero(p, q) == (len(u1.gcd(u2).terms()) == 1)


def test_origin_alone_on_z2_zero_pinned():
    # gcd z1 on the line: the origin is alone
    assert origin_alone_on_z2_zero(Y + X**2, X * (X - 1) + Y) is True
    # both restrictions are z1 (z1 - 1): (1, 0) is a second common zero
    assert origin_alone_on_z2_zero(X * (X - 1), X * (X - 1) + Y) is False
    # z1-leading coefficient z2 vanishes on the line
    assert origin_alone_on_z2_zero(X**2 * Y + X, X) is None
    # a restriction is zero
    assert origin_alone_on_z2_zero(X, Y) is None
    assert origin_alone_on_z2_zero(Y, X) is None


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=40)
def test_charpoly_matches_matrix_charpoly(M):
    assert charpoly(M) == from_expr(sp.Matrix(M).charpoly(Z1).as_expr())


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(0, 8))
@settings(max_examples=60)
def test_trace_of_power_matches_the_plain_product(M, n):
    size = len(M)
    P = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for _ in range(n):
        P = [[sum((P[i][k] * M[k][j] for k in range(size)), Fraction(0))
              for j in range(size)] for i in range(size)]
    got = trace_of_power(M, n)
    assert type(got) is Fraction
    assert got == sum((P[i][i] for i in range(size)), Fraction(0))


@given(univariate_coeffs)
@settings(max_examples=40)
def test_real_root_intervals_isolate_the_real_roots(coeffs):
    p = in_z1(coeffs)
    if p.total_degree() < 1:
        return
    sqf = sp.sqf_part(to_expr(p))
    roots = sp.real_roots(sp.Poly(sqf, Z1))

    def holds(lo, hi, r):
        # (r, r) is a rational root found exactly; otherwise the interval is open
        return r == lo if lo == hi else bool(lo < r < hi)

    # a repeated root is isolated once, as in the squarefree part
    for q in (sqf, sqf * to_expr(p)):
        intervals = real_root_intervals(from_expr(q))
        for (lo, hi), (next_lo, _) in zip(intervals, intervals[1:]):
            assert lo <= hi <= next_lo
        bounds = [(sp.Rational(lo.numerator, lo.denominator),
                   sp.Rational(hi.numerator, hi.denominator)) for lo, hi in intervals]
        assert [sum(holds(lo, hi, r) for r in roots)
                for lo, hi in bounds] == [1] * len(bounds)
        assert [sum(holds(lo, hi, r) for lo, hi in bounds)
                for r in roots] == [1] * len(roots)


# -- exact division ---------------------------------------------------------


def test_exact_div_terminates_when_not_divisible():
    with time_limit(5):
        assert not (X + X**2).divides(X)
        with pytest.raises(NotDivisible):
            X.exact_div(X + X**2)
        with pytest.raises(NotDivisible):
            (X * Y).exact_div(X * Y + X**3 + Y**3)


@st.composite
def divisors(draw):
    """Monomials, binomials and trinomials; the coefficients take either
    sign, and so does the lex-leading one."""
    size = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients,
        min_size=size, max_size=size))
    return Poly2(terms)


@given(small_polys(max_degree=3, max_terms=5), divisors(), small_polys())
@settings(max_examples=80)
def test_exact_div_inverts_multiplication(a, b, c):
    assert (a * b).exact_div(b) == a
    for d in (c, a * b + c):
        _q, r = sp.div(to_expr(d), to_expr(b), Z1, Z2)
        assert b.divides(d) == (r == 0)


@pytest.mark.parametrize("a, b", [
    (X * Y - 1, Y**2 * 2 - Y + 1),  # lex-leading term of b free of z1
    (X**3 - Y, -Y**3),  # a negative monomial divisor
    (X * Fraction(1, 2) + Y, Y * 6 - X * 4),  # b with content 2
    (X, X * Y),  # one-term divisors: the exponents shift
    (Y * 3 + X * 2, X * 2),
])
def test_exact_div_pinned(a, b):
    assert (a * b).exact_div(b) == a
    assert Poly2({}).exact_div(b) == Poly2({})


@pytest.mark.parametrize("a, b", [
    (X + Y, X * Y + 1),  # the quotient term X / (X*Y) needs z2^-1
    (Y**2, X + Y),  # the quotient term Y^2 / X needs z1^-1
    (X, X - Y),  # a quotient term of z2-degree 0 > deg_z2 a - deg_z2 b
    (X * 2 + 1, X * 3 + 1),  # 3 does not divide 2: a coefficient remainder
    (X * Y * 2 + X + Y, X * 2 + 1),  # after Y * b, 2 does not divide the X left
    (X + Y, X),  # one-term divisors: a term of a lacks the divisor's power
    (X**2, X * Y),
    (X + 1, X * 3),
])
def test_exact_div_refuses_pinned(a, b):
    with time_limit(5):
        assert not b.divides(a)
        with pytest.raises(NotDivisible):
            a.exact_div(b)


def test_exact_div_does_not_use_the_ring_division(monkeypatch):
    from sympy.polys.rings import PolyElement

    def refuse(*args, **kwargs):
        raise AssertionError("exact_div reached PolyElement.div")

    monkeypatch.setattr(PolyElement, "div", refuse)
    assert ((X + Y) * (X - Y * 2)).exact_div(X - Y * 2) == X + Y
    assert not (X * Y + 1).divides(X + Y)


@st.composite
def monomials(draw):
    """c * z1^i z2^j for a rational c of either sign."""
    e = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    return Poly2({e: draw(coefficients)})


@given(small_polys(max_degree=3, max_terms=5), monomials(), any_polys)
@settings(max_examples=80)
def test_exact_div_by_a_monomial(a, m, c):
    assert (a * m).exact_div(m) == a
    # over Q a term is a multiple of m when its exponents cover m's
    (i, j), = m.coeff
    assert m.divides(c) == all(k >= i and l >= j for k, l in c.coeff)


def test_exact_div_by_a_monomial_shifts_exponents(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-term divisor reached the heap")

    monkeypatch.setattr(polys, "heapify", refuse)
    assert (X**2 * Y).exact_div(X * Y) == X
    assert (X * Y * 6 + X**2 * 4).exact_div(X * 2) == Y * 3 + X * 2
    assert not X.divides(X + Y)
    assert not (X * Y).divides(X**2)


@pytest.mark.parametrize("p", [
    (X + Y * 2) ** 2 * X * Y**3 * -3,  # a binary form
    (X - Y**2) * (X * 2 + Y + X * Y) ** 2 * Fraction(-1, 2),
])
def test_factor_list2_factors_are_their_own_normalized_form(p):
    factors = factor_list2(p)[1]
    assert factors and all(f.normalized() is f for f, _ in factors)


def test_product_by_a_constant_is_a_scalar_product(monkeypatch):
    from sympy.polys.rings import PolyElement

    c = Fraction(-3, 2)
    want = X * c
    assert Poly2.constant(c) * X == want

    def refuse(*args):
        raise AssertionError("a constant factor reached the ring product")

    monkeypatch.setattr(PolyElement, "__mul__", refuse)
    assert X * Poly2.constant(c) == want
    assert Poly2.constant(c) * X == want
    assert (X * Poly2({})).is_zero() and (Poly2({}) * X).is_zero()


@pytest.mark.parametrize("operation, want", [
    pytest.param(lambda: X * 1.5, TypeError, id="mul_float"),
    pytest.param(lambda: 1.5 * X, TypeError, id="rmul_float"),
    pytest.param(lambda: X + 1.5, TypeError, id="add_float"),
    pytest.param(lambda: X - 1.5, TypeError, id="sub_float"),
    pytest.param(lambda: X * "a", TypeError, id="mul_str"),
    pytest.param(lambda: X * True, TypeError, id="mul_bool"),
    pytest.param(lambda: X.exact_div(1.5), TypeError, id="exact_div_float"),
    pytest.param(lambda: X.divides(1.5), TypeError, id="divides_float"),
    pytest.param(lambda: Poly2({(0, 0): 1.5}), TypeError, id="construct_float"),
    pytest.param(lambda: Poly2({(0, 0): True}), TypeError, id="construct_bool"),
    # an int or Fraction operand is a constant
    pytest.param(lambda: X.exact_div(2), X * Fraction(1, 2), id="exact_div_int"),
    pytest.param(lambda: X.exact_div(Fraction(1, 3)), X * 3, id="exact_div_fraction"),
    pytest.param(lambda: Poly2.constant(3).divides(6), True, id="divides_int"),
    pytest.param(lambda: X.divides(2), False, id="divides_int_refused"),
    # a boolean or float is no constant, so it compares unequal
    pytest.param(lambda: X == True, False, id="eq_bool"),
    pytest.param(lambda: Poly2.constant(1) == True, False, id="constant_eq_bool"),
    pytest.param(lambda: X == 1.5, False, id="eq_float"),
])
def test_operands_are_read_as_exact_constants(operation, want):
    if want is TypeError:
        with pytest.raises(TypeError):
            operation()
    else:
        assert operation() == want


@pytest.mark.parametrize("k, error", [
    (-1, ValueError),
    (Fraction(2), TypeError),
    (2.0, TypeError),
])
def test_power_refuses_a_non_natural_exponent(k, error):
    with pytest.raises(error):
        X**k


class RingReached(Exception):
    pass


def test_arithmetic_builds_no_ring_element(monkeypatch):
    # Poly2 arithmetic runs on plain integer dicts; a sympy ring element is
    # built only where sympy does the mathematics (gcd, factorization)
    from sympy.polys.rings import PolyElement

    def refuse(self, *args, **kwargs):
        raise RingReached

    monkeypatch.setattr(PolyElement, "__init__", refuse)
    p = Poly2({(2, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (1, 1): 3})
    q = Poly2.from_terms({(1, 0): 2, (0, 0): "1/4"}) - Poly2.variable(2) * 2
    assert p + q - q == p and -(p - p) == Poly2({})
    assert (X + Y) ** 2 == X**2 + X * Y * 2 + Y**2
    for k in range(7):
        assert (p * q) ** k == p**k * q**k
    assert (X**3 * Y).derivative(1) == X**2 * Y * 3
    assert (X**3 * Y).derivative(2) == X**3
    # the shift route (a one-term divisor) and the heap route
    assert (X**2 * Y * 6).exact_div(X * Y * 2) == X * 3
    assert ((X + Y) * (X - Y * 2)).exact_div(X - Y * 2) == X + Y
    assert not (X - Y * 2).divides(X + Y)
    assert (p * Fraction(-6, 5)).normalized() == p * 6
    assert p.truncated(2) == Y * Fraction(-2, 3)
    assert p.lowest_form() == Y * Fraction(-2, 3)
    assert p.compose(X, Y) == p and p.compose(Y, X, partner=q)[1] == q.compose(Y, X)
    f = PolynomialMap(X * Fraction(3, 2) - Y * 2 + X**2 - X * Y * 3, X)
    assert f.iterate(3).p2 == f.iterate(2).p1
    assert f.fixed_jets(3, 4)[1] == (f.iterate(2).p1 - Y).truncated(4)
    assert f.simple_at_origin(3)
    assert polys.proved_coprime(X + Y**2, X - Y)
    # a transversal Henon-like germ: index 1 at every iterate
    germ = MapGerm.from_polynomials(f.p1, f.p2)
    assert local_index(iterate(germ, 3)).nu_A == 1
    # the CAS calls still build their ring elements
    with pytest.raises(RingReached):
        gcd2((X + Y) * (X - Y**2), (X + Y) * (X + 1))
    with pytest.raises(RingReached):
        factor_list2((X + Y) * (X - Y**2))


@given(small_polys(), small_polys(), small_polys(), coefficients)
@settings(max_examples=60)
def test_divides_matches_remainder_of_expression_division(a, b, c, scale):
    _q, r = sp.div(to_expr(c), to_expr(b), Z1, Z2)
    # b has rational coefficients; 12 * b is an integer polynomial that is
    # not primitive, since every denominator of b divides 6
    for s in (1, scale, 12):
        with time_limit(5):
            assert (b * s).divides(a * b)
            assert (a * b).exact_div(b * s) == a * (1 / Fraction(s))
            assert (b * s).divides(c) == (r == 0)


# -- arithmetic against the expression-level reference -----------------------


def normalized_reference(expr):
    # the primitive integer multiple with a positive graded-lex leading term
    prim = sp.Poly(expr, Z1, Z2).clear_denoms(convert=True)[1].primitive()[1]
    return from_expr((prim if prim.LC(order="grlex") > 0 else -prim).as_expr())


@given(any_polys, any_polys, st.integers(0, 6), coefficients, coefficients)
@settings(max_examples=60)
def test_arithmetic_matches_expression_arithmetic(p, q, k, a, b):
    P, Q = to_expr(p), to_expr(q)
    point = {Z1: sp.Rational(a.numerator, a.denominator),
             Z2: sp.Rational(b.numerator, b.denominator)}
    results = [
        (p + q, P + Q),
        (p - q, P - Q),
        (p * q, sp.expand(P * Q)),
        (p**k, sp.expand(P**k)),
        (p.derivative(1), sp.diff(P, Z1)),
        (p.derivative(2), sp.diff(P, Z2)),
    ]
    for out, ref in results:
        assert out == from_expr(ref)
        assert all_fractions(out)
    value = sp.Rational(P.subs(point))
    assert p.evaluate(a, b) == Fraction(int(value.p), int(value.q))
    if not p.is_zero():
        assert p.normalized() == normalized_reference(P)
