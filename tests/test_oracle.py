"""Elimination oracle: independent multiplicities, index signs, torus numbers."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import germindex.oracle
from germindex import (
    MapGerm,
    NonIsolated,
    Poly2,
    PrecisionExhausted,
    UnsupportedSingularBranch,
    iterate,
    local_index,
)
from germindex.oracle import (
    PolynomialMap,
    fixed_index_positive,
    fixed_multiplicity,
    local_multiplicity,
    torus_lefschetz_oracle,
)
from germindex.germs import _intersection_number
from germindex.parsing import parse_expression
from germindex.polys import MAX_ITERATE_N, gcd2
from germindex.scenario import load_fixture
from germindex.surd import Surd

from conftest import count_calls

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


def test_fixed_multiplicity_remark42_is_one_elimination(monkeypatch):
    gcds = count_calls(monkeypatch, germindex.oracle, "gcd2")
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    assert fixed_multiplicity(remark42(), (0, 0), 2) == 3
    assert len(gcds) == 0 and len(resultants) == 1


# Henon-like maps (a z1 + b z2 + q, z1), q quadratic.  Linear parts of
# finite order make f^n tangent to the identity at n = 2 (order 2) and
# n = 3 (order 3), where the multiplicity is 4 or more and the elimination
# of the jets below degree 4 certifies nothing (their tangent cone may);
# with a + b = 1 and q a multiple of
# z1 (z1 - z2) the whole diagonal is fixed.
ORDER_2, ORDER_3 = (0, 1), (-1, -1)
quadratics = st.dictionaries(st.sampled_from([(2, 0), (1, 1), (0, 2)]),
                             st.integers(-2, 2).filter(bool), min_size=1)


def _henon(ab, q):
    return PolynomialMap(X * ab[0] + Y * ab[1] + q, X)


@st.composite
def henon_maps(draw):
    kind = draw(st.sampled_from(("generic", "a + b = 1", "finite order", "curve")))
    if kind == "finite order":
        a, b = draw(st.sampled_from((ORDER_2, ORDER_3, (0, -1), (1, -1))))
    else:
        a = draw(st.integers(-2, 2))
        b = 1 - a if kind != "generic" else draw(st.integers(-2, 2).filter(bool))
    if kind == "curve":
        q = (X**2 - X * Y) * draw(st.integers(-2, 2).filter(bool))
    else:
        q = Poly2.from_terms(draw(quadratics))
    return _henon((a, b), q)


@given(henon_maps(), st.integers(1, 3))
@example(_henon((1, 2), X**2), 1)            # transversal: the linear jets
# det(Df^2 - I) = 0, and the jets below degree 4 give the multiplicity 3
@example(_henon((-2, -1), X**2 * 2 + X * Y * 2 + Y**2), 2)
@example(_henon(ORDER_3, X**2), 3)           # multiplicity 4: the tangent cone
@example(_henon(ORDER_2, X**2), 2)           # multiplicity 4
@example(_henon((2, -1), X**2 - X * Y), 2)  # the diagonal is fixed
@settings(max_examples=60)
def test_fixed_multiplicity_is_the_exact_elimination(pmap, n):
    """The jets' certified answer, or the fallback, is the multiplicity of
    the exact localized system, and both refuse a point on a fixed curve."""
    exact = pmap.localized((0, 0)).fixed_system(n)
    try:
        want = local_multiplicity(*exact)
    except NonIsolated:
        with pytest.raises(NonIsolated):
            fixed_multiplicity(pmap, (0, 0), n)
    else:
        assert fixed_multiplicity(pmap, (0, 0), n) == want


def test_jets_without_a_certificate_fall_back_to_the_exact_system(monkeypatch):
    # (2 z1, z2 + z1 + z2^4) - id = (z1, z1 + z2^4): the jets (z1, z1) share
    # a line, which the exact pair does not
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    assert fixed_multiplicity(PolynomialMap(X * 2, Y + X + Y**4), (0, 0), 1) == 4
    assert resultants == [(X, X), (X, X + Y**4)]


def test_fixed_multiplicity_eliminates_only_the_jets(monkeypatch):
    # remark42's f^6 - id has degree 64; at the origin Df^6 - I is singular,
    # and its jets below degree 4 certify the multiplicity 3
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    assert fixed_multiplicity(remark42(), (0, 0), 6) == 3
    assert len(resultants) == 1
    assert max(p.total_degree() for p in resultants[0]) <= 3


def test_a_transversal_point_is_certified_without_elimination(monkeypatch):
    # at (-4, -4) det(Df^6 - I) != 0: (Df)^6 gives the multiplicity 1, with
    # no shear, gcd or resultant and no chain of jets of any order
    calls = (count_calls(monkeypatch, germindex.oracle, "resultant_z1"),
             count_calls(monkeypatch, germindex.oracle, "gcd2"),
             count_calls(monkeypatch, Poly2, "shear_z2"))
    m = remark42()
    assert fixed_multiplicity(m, (-4, -4), 6) == 1
    assert calls == ([], [], [])
    assert m.localized((-4, -4))._jets == {}


def test_only_points_with_dependent_linear_jets_are_eliminated(monkeypatch):
    # Henon-like maps (a z1 + b z2 + q, z1) at the origin and at their second
    # fixed point (t, t), q(t, t) = (1 - a - b) t: an isolated point with
    # independent linear jets costs no resultant; one with dependent jets
    # whose jets below degree 4 have coprime lowest forms (a transverse
    # tangent cone, decided here by gcd2) costs none either; any other one
    # resultant on its jets below degree 4, and one more on the exact
    # system when those certify nothing (a multiplicity of 4 or more).
    # The Henon-like points drawn here reach no fallback (each multiplicity
    # of 4 or more among them has a transverse cone), so (2 z1, z2 + z1 +
    # z2^4), whose jets share the line z1 = 0, stands for it.
    rng = random.Random(5)
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    cases = []
    for _ in range(12):
        a, b = rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))
        q = Poly2.from_terms({e: rng.randint(-2, 2) for e in ((2, 0), (1, 1), (0, 2))})
        c = q.evaluate(1, 1)
        points = [(0, 0)]
        if c and a + b != 1:
            points.append((Fraction(1 - a - b) / c,) * 2)
        cases.append(((X * a + Y * b + q, X), points))
    cases.append(((X * 2, Y + X + Y**4), [(0, 0)]))
    dependent = cones = fallbacks = eliminations = 0
    for images, points in cases:
        for point, n in itertools.product(points, (1, 2, 3)):
            pmap = PolynomialMap(*images)
            local = pmap.localized(point)
            (p, r), (s, t) = (P.linear_part() for P in local.fixed_jets(n, 2))
            before = len(resultants)
            try:
                mu = fixed_multiplicity(pmap, point, n)
            except NonIsolated:
                assert p * t == r * s
                with pytest.raises(NonIsolated):
                    local_multiplicity(*local.fixed_system(n))
                continue
            eliminations += len(resultants) - before
            if p * t == r * s:
                dependent += 1
                J1, J2 = local.fixed_jets(n, 4)
                if not (J1.is_zero() or J2.is_zero()) and gcd2(
                        J1.lowest_form(), J2.lowest_form()).is_constant():
                    cones += 1
                    assert len(resultants) == before, (pmap, point, n)
                    assert mu == J1.order() * J2.order(), (pmap, point, n)
                else:
                    fallbacks += mu >= 4
            else:
                assert len(resultants) == before and mu == 1, (pmap, point, n)
            assert local_multiplicity(*local.fixed_system(n)) == mu, (pmap, point, n)
    assert dependent > fallbacks > 0
    assert cones > 0
    assert eliminations == dependent - cones + fallbacks


def test_line_test_certificate_decides_without_a_ring_gcd(monkeypatch):
    # the restrictions of remark42's f^6 - id to z2 = 0 have degree 64 and
    # share only the origin: the gcd mod p of their cofactors of z1 decides,
    # and no univariate gcd over ZZ runs
    from sympy.polys.rings import PolyElement

    gcds = count_calls(monkeypatch, PolyElement, "gcd")
    assert fixed_multiplicity(remark42(), (0, 0), 6) == 3
    assert gcds == []


# -- the tangent-cone rung ------------------------------------------------------

# f - id = (z1^2 - z2^2 + ..., z1 z2 + ...): lowest forms with no common
# line, so every f^n - id has the multiplicity 2 * 2 = 4 at the origin
# (f^n - id = n (f - id) + higher terms, f being tangent to the identity)
TANGENT_TO_ID = (
    "z1 + z1^2 - z2^2 + 3*z1^5*z2^2 - 2*z1^7*z2^5 + z1^3*z2^9 + z2^12",
    "z2 + z1*z2 - z2^7 + 2*z1^9*z2^2 - z1^4*z2^8 + z1^12",
)
# Henon-like maps of the isolated_deep benchmark whose iterates have a
# transverse tangent cone where det(Df^n - I) = 0
MAP22 = (X**2 * 2 + X * Y - Y**2 - Y, X)
MAP39 = (X * Y - X**2 * 2 + Y, X)


def test_a_multiplicity_of_four_is_certified_by_the_tangent_cone(monkeypatch):
    # 4 is not below the jet order 4, so the jets' elimination certifies
    # nothing here, and the exact f^n (degree 144 at n = 2) is never composed
    m = PolynomialMap(*map(parse_expression, TANGENT_TO_ID))
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    for n in (2, 3, 10):
        assert fixed_multiplicity(m, (0, 0), n) == 4
    assert m._iterates == [] and resultants == []
    assert local_index(MapGerm(m)).nu_A == 4


@pytest.mark.parametrize("images, n, want", [(MAP22, 4, 9), (MAP39, 2, 4), (MAP39, 4, 4)])
def test_the_tangent_cone_certifies_benchmark_points(monkeypatch, images, n, want):
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    m = PolynomialMap(*images)
    assert fixed_multiplicity(m, (0, 0), n) == want
    assert m._iterates == [] and resultants == []
    assert local_multiplicity(*m.fixed_system(n)) == want
    assert local_index(iterate(MapGerm(PolynomialMap(*images)), n)).nu_A == want


def _binary_form(draw, d):
    """A nonzero form of degree d in z1, z2 (a nonzero constant at d = 0)."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
    if not any(coeffs):
        coeffs[0] = 1
    return Poly2.from_terms({(i, d - i): c for i, c in enumerate(coeffs)})


def _above(draw, order):
    """Random terms of total degree order + 1 up to 6."""
    return Poly2.from_terms(draw(st.dictionaries(
        st.sampled_from([(i, d - i) for d in range(order + 1, 7) for i in range(d + 1)]),
        st.integers(-3, 3), max_size=6)))


@st.composite
def cone_pairs(draw):
    """(P, Q, shared): P, Q through the origin with lowest forms of orders
    1 to 3, not both 1, which share a linear factor when shared is True."""
    a, b = draw(st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                                 if a * b > 1]))
    shared = draw(st.booleans())
    if shared:
        line = _binary_form(draw, 1)
        F, G = line * _binary_form(draw, a - 1), line * _binary_form(draw, b - 1)
    else:
        F, G = _binary_form(draw, a), _binary_form(draw, b)
    return F + _above(draw, a), G + _above(draw, b), shared


@given(cone_pairs())
@example((*PolynomialMap(*MAP22).fixed_system(4), False))
@example((*PolynomialMap(*MAP39).fixed_system(2), False))
@example((*PolynomialMap(*MAP39).fixed_system(4), False))
@settings(max_examples=150)
def test_the_tangent_cone_agrees_with_both_eliminations(pair):
    """Whenever the rung certifies, its a*b is the resultant's multiplicity
    and the engine's truncated codimension; a shared line gets no verdict."""
    import germindex.germs

    P, Q, shared = pair
    mu = germindex.oracle._tangent_cone(P, Q)
    event(f"certified: {mu is not None}")
    if shared:
        assert mu is None
    elif mu is not None:
        assert mu == P.order() * Q.order()
        assert mu == local_multiplicity(P, Q) == germindex.germs._intersection_number(P, Q)


def resultant_routes(monkeypatch):
    """Calls of the packed univariate resultant and of sympy's bivariate
    ring resultant, the route above the packing switch."""
    from sympy.polys.rings import PolyElement

    return (count_calls(monkeypatch, germindex.polys, "dup_resultant"),
            count_calls(monkeypatch, PolyElement, "resultant"))


@pytest.mark.parametrize("pmap, n, want", [
    (remark42(), 4, 3),
    # Henon map with linear part of order 4, so f^4 is tangent to the identity
    (PolynomialMap(X**2 - Y, X), 4, 13),
])
def test_oracle_eliminations_pack_below_the_switch(monkeypatch, pmap, n, want):
    packed, ring = resultant_routes(monkeypatch)
    assert local_multiplicity(*pmap.localized((0, 0)).fixed_system(n)) == want
    assert len(packed) == 1 and ring == []


def test_remark42_multiplicities_on_both_sides_of_the_switch(monkeypatch):
    m = remark42()
    assert [fixed_multiplicity(m, (0, 0), n) for n in range(1, 7)] == [1, 3] * 3
    # the second fixed point at n = 6 needs a slot width of 6844 bits, above
    # the switch, where the bivariate route is the faster one
    packed, ring = resultant_routes(monkeypatch)
    assert local_multiplicity(*m.localized((-4, -4)).fixed_system(6)) == 1
    assert packed == [] and len(ring) == 1


def test_fixed_multiplicity_divides_out_a_common_unit(monkeypatch):
    # at n = 2 the fixed-point system shares 3 + z1 + z2, a curve of
    # period-2 points that misses the origin and meets every shear line
    # through it
    p1, p2 = X * 3 + Y + X * Y + X**2, X
    assert local_index(iterate(MapGerm.from_polynomials(p1, p2), 2)).nu_A == 1
    gcds = count_calls(monkeypatch, germindex.oracle, "gcd2")
    assert local_multiplicity(*PolynomialMap(p1, p2).localized((0, 0)).fixed_system(2)) == 1
    assert len(gcds) == 1


def test_local_multiplicity_retests_the_line_after_dividing_out_a_unit(monkeypatch):
    # both share 1 + z1, which misses the origin; once it is divided out,
    # (1, 0) is still a common zero on the line z2 = 0, so c = 0 must be
    # refused again or the resultant's order would count it
    P1, Q1 = Y + X * (X - 1), X * (X - 1) + Y * 2
    unit = ONE + X
    gcds = count_calls(monkeypatch, germindex.oracle, "gcd2")
    assert local_multiplicity(P1 * unit, Q1 * unit) == 1
    assert len(gcds) == 1


# P's z1^d coefficient (d its total degree) is 0, but its z1-leading
# coefficient 1 + z2 is a unit at the origin, so no shear is needed
UNSHEARED_SYSTEMS = [
    # (z1^2 (1 + z2), z2^2) is (z1^2, z2^2) locally
    (X**2 * (ONE + Y) - Y**2, X**2 * (ONE + Y) + Y**2, 4),
    # z2 = z1^3 turns P into z1^2 (1 - z1 + z1^3)
    (X**2 * (ONE + Y) - Y, Y - X**3, 2),
    # as above with the factor z1 - 1, whose root (1, 0) Q misses
    (X**2 * (X - 1) * (ONE + Y) + Y, Y - X**3, 2),
    # z2 = -z1^2 turns P into -z1^4
    (X**2 + X**2 * Y + Y, Y + X**2, 4),
]


@pytest.mark.parametrize("P, Q, want", UNSHEARED_SYSTEMS)
def test_local_multiplicity_takes_no_shear_at_a_unit_leading_coefficient(
        monkeypatch, P, Q, want):
    shears = count_calls(monkeypatch, Poly2, "shear_z2")
    assert P[(P.total_degree(), 0)] == 0
    assert local_multiplicity(P, Q) == want
    # the pair is eliminated as given: shear_z2 is called only for c != 0
    assert shears == []


def test_local_multiplicity_walks_the_shears_until_one_isolates_the_point():
    # a coprime pair with a second common zero, (1, 0), on the line z2 = 0:
    # the unsheared pair is not eliminated, and a shear is
    P, Q = X**2 - X + Y, X**2 - X + Y * 2
    assert local_multiplicity(P, Q) == 1
    # P is the 49 lines z2 = k*z1, |k| <= 24, and Q meets each of them at
    # z1 = k - 100 != 0 as well: P's restriction to z2 = c*z1 vanishes for
    # every |c| <= 24, so the walk eliminates at c = 25
    P = ONE
    for k in range(-24, 25):
        P = P * (Y - X * k)
    Q = Y - X**2 - X * 100
    assert local_multiplicity(P, Q) == 49
    assert _intersection_number(P, Q) == 49


def test_local_multiplicity_of_a_zero_equation_is_not_isolated():
    for P, Q in ((X * Y, Poly2({})), (Poly2({}), Y + X**2)):
        with pytest.raises(NonIsolated):
            local_multiplicity(P, Q)


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


def test_positivity_at_an_isolated_point_iterates_once(monkeypatch):
    composes = count_calls(monkeypatch, Poly2, "compose")
    assert fixed_index_positive(remark42(), (0, 0), 2)
    assert len(composes) == 1


def test_positivity_at_an_isolated_point_eliminates_nothing(monkeypatch):
    resultants = count_calls(monkeypatch, germindex.oracle, "resultant_z1")
    assert fixed_index_positive(remark42(), (-4, -4), 3)
    assert not fixed_index_positive(remark42(), (1, 1), 3)
    assert resultants == []


# each pair fixes the line z1 = 0, so the loop over curve factors decides
CURVE_FACTOR_PAIRS = [
    # z1 is a type I branch tangent to h(0) = (0, 1)
    ((X + X * Y, Y + X), True),
    # z1 is a type II branch, which contributes nothing where h(0) != 0
    ((X + X**2, Y + X), False),
    # the factor 1 + z2 misses the origin and is skipped before z1
    ((X + X * (ONE + Y) * Y, Y + X * (ONE + Y)), True),
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("pair, want", CURVE_FACTOR_PAIRS)
def test_positivity_on_a_fixed_curve_matches_the_engine(pair, want, n):
    engine = local_index(iterate(MapGerm.from_polynomials(*pair), n)).nu_A > 0
    assert fixed_index_positive(PolynomialMap(*pair), (0, 0), n) == engine == want


def test_positivity_refuses_a_singular_curve_factor():
    # the fixed curve z2^2 = z1^3 has a cusp at the origin; the engine
    # refuses it too; both name the factor in text the parser reads back
    pair = (X + Y**2 - X**3, Y)
    with pytest.raises(UnsupportedSingularBranch,
                       match=r"^curve factor z1\^3 - z2\^2, centred at \(0, 0\),"):
        fixed_index_positive(PolynomialMap(*pair), (0, 0), 1)
    with pytest.raises(UnsupportedSingularBranch,
                       match=r"^factor z1\^3 - z2\^2 is singular"):
        local_index(MapGerm.from_polynomials(*pair))
    assert parse_expression("z1^3 - z2^2") == X**3 - Y**2


def test_positivity_refuses_a_map_that_fixes_everything():
    with pytest.raises(NonIsolated):
        fixed_index_positive(PolynomialMap(X, Y), (0, 0), 1)


def test_polynomial_map_iterates_extend_one_chain(monkeypatch):
    m = remark42()  # (p1, z1), so the z2-image of f^n is the z1-image of f^(n-1)
    f3 = m.iterate(3)
    composes = count_calls(monkeypatch, Poly2, "compose")
    assert m.iterate(3).p2 == m.iterate(2).p1
    assert (m.iterate(3).p1, m.iterate(3).p2) == (f3.p1, f3.p2)
    assert composes == []
    assert m.iterate(4).p2 == f3.p1
    assert len(composes) == 1


def test_scenario_germs_and_the_oracle_share_one_chain(monkeypatch):
    # the fixture's germ at a point is built on the map localized there, so
    # the oracle reads that map's chains; at these isolated points its jets
    # certify every answer, and it composes no exact iterate
    scn = load_fixture("remark42")
    for germ in scn.germs.values():
        local_index(iterate(germ, 4))
    lengths = [len(germ.map._iterates) for germ in scn.germs.values()]
    composes = count_calls(monkeypatch, Poly2, "compose")
    for label, origin in scn.germ_origins.items():
        assert scn.maps["f"].localized(origin.base_point) is scn.germs[label].map
        for n in range(1, 7):
            assert fixed_multiplicity(scn.maps["f"], origin.base_point, n) >= 1
    assert composes == []
    assert [len(germ.map._iterates) for germ in scn.germs.values()] == lengths


def test_deep_iterates_of_remark42_from_the_jet_chain():
    # f^20 has degree 2^20, far above the bound on composed iterates; the
    # jets certify every answer: (Df)^n where Df^n - I is invertible, those
    # below degree 4 at the origin at even n
    m = remark42()
    ns = (20, 40, 41, 100)
    assert [fixed_multiplicity(m, (0, 0), n) for n in ns] == [3, 3, 1, 3]
    assert [fixed_multiplicity(m, (-4, -4), n) for n in ns] == [1, 1, 1, 1]
    assert m._iterates == [] and m.localized((-4, -4))._iterates == []
    assert m.localized((-4, -4))._jets == {}


def test_the_linear_rung_keeps_the_bound_on_n():
    # (-4, -4) is transversal at every n, yet past MAX_ITERATE_N the oracle
    # refuses, as the CLI does, before it reads (Df)^n
    with pytest.raises(PrecisionExhausted, match=f"f\\^{MAX_ITERATE_N + 1} "):
        fixed_multiplicity(remark42(), (-4, -4), MAX_ITERATE_N + 1)


def test_a_point_the_map_moves_takes_the_exact_route():
    # (1, 0) lies on the 2-cycle {(1, 0), (0, 0)} of (1 - z1^2, 2 z2); the
    # map localized there moves the origin and builds no chain of jets
    m = PolynomialMap(ONE - X**2, Y * 2)
    assert [fixed_multiplicity(m, (1, 0), n) for n in (1, 2, 3, 4)] == [0, 1, 0, 1]
    assert m.localized((1, 0))._jets == {}


def translated(pmap, point, n):
    """The fixed system of f^n, translated to move point to the origin."""
    return tuple(P.translate(*point) for P in pmap.fixed_system(n))


def test_localizing_commutes_with_iterating():
    # the map conjugated to a point iterates to f^n conjugated there
    m = remark42()
    assert m.localized((0, 0)) is m
    for point in ((0, 0), (-4, -4)):
        local = m.localized(point)
        assert m.localized((Fraction(point[0]), point[1])) is local
        for n in range(1, 7):
            assert local.fixed_system(n) == translated(m, point, n), (point, n)
    rng = random.Random(47)
    for _ in range(10):
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
        pmap = PolynomialMap(
            ONE * c[0] + X * c[1] + Y * c[2] + X**2 * c[3] + X * Y * c[4] + Y**2 * c[5],
            X)
        point = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-3, 3))
        local = pmap.localized(point)
        for n in (1, 2, 3):
            assert local.fixed_system(n) == translated(pmap, point, n), (pmap, point, n)


def test_the_oracle_translates_the_map_not_its_iterates(monkeypatch):
    # remark42's f^6 - id has degree 64; only the quadratic map is moved
    # to (-4, -4), and its iterates are composed there
    translations = count_calls(monkeypatch, Poly2, "translate")
    assert fixed_multiplicity(remark42(), (-4, -4), 6) == 1
    assert translations
    assert max(p.total_degree() for p, *_ in translations) <= 2


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
