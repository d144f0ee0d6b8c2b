"""Adapted expansions, form pullback, preservation and type prediction."""

import pytest

from germindex import MapGerm, NotACurveFixingGerm, Poly2, TruncatedSeries2
from germindex.forms import (
    FORCED_TYPE_II,
    INFINITY,
    NO_PREDICTION,
    AdaptedExpansion,
    FormGerm,
    adapted_expansion,
    curve_type_via_minkl,
    is_preserved,
    predict_type,
    pullback_form,
)

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)


def germ(p1, p2, precision=16):
    return MapGerm.from_polynomials(p1, p2, precision)


def remark43_map():
    return germ(X + X * (X**2 + Y), Y + X**2)


def remark42_map():
    return germ(X * -2 - X**2 - Y, X)


def test_adapted_expansion_remark43():
    exp = adapted_expansion(remark43_map())
    assert exp.k == 1 and exp.l == 2
    assert exp.f1 == (X**2 + Y).to_series(15)
    assert exp.f2 == ONE.to_series(14)


def test_adapted_expansion_monomial_orders():
    exp = adapted_expansion(germ(X + X**3, Y + X))
    assert exp.k == 3 and exp.l == 1


def test_adapted_expansion_fixed_first_coordinate():
    exp = adapted_expansion(germ(X, Y + X**2))
    assert exp.k == INFINITY and exp.l == 2


def test_adapted_expansion_rejects_noncurve_germ():
    with pytest.raises(NotACurveFixingGerm):
        adapted_expansion(remark42_map())


def test_curve_type_rule():
    v = curve_type_via_minkl(AdaptedExpansion(3, 1, None, None))
    assert v.nu_C == 1 and v.is_type_II
    v = curve_type_via_minkl(AdaptedExpansion(1, 2, None, None))
    assert v.nu_C == 1 and not v.is_type_II
    v = curve_type_via_minkl(AdaptedExpansion(INFINITY, 2, None, None))
    assert v.nu_C == 2 and v.is_type_II


def test_pullback_standard_form_under_area_preserving_map():
    w = FormGerm.standard()
    pulled = pullback_form(remark42_map(), w)
    assert pulled.z1_valuation == 0
    assert pulled.unit_part == TruncatedSeries2.constant(1, pulled.unit_part.precision)


def test_pullback_simple_pole_form_remark43():
    w = FormGerm(-1, TruncatedSeries2.constant(1, 16))
    pulled = pullback_form(remark43_map(), w)
    assert pulled.z1_valuation == -1
    assert pulled.unit_part == TruncatedSeries2.constant(1, pulled.unit_part.precision)
    assert is_preserved(remark43_map(), w)


def test_pullback_linear_scaling():
    pulled = pullback_form(germ(X * 2, Y), FormGerm.standard())
    assert pulled.z1_valuation == 0
    assert pulled.unit_part == TruncatedSeries2.constant(2, pulled.unit_part.precision)


def test_is_preserved_verdicts():
    assert is_preserved(remark42_map(), FormGerm.standard())
    # remark43 does not preserve the holomorphic form: Jacobian is 1+z1^2+z2
    res = is_preserved(remark43_map(), FormGerm.standard())
    assert not res


def test_is_preserved_precision_caveat():
    n = 8
    s1 = TruncatedSeries2.from_terms({(1, 0): 1, (n + 1, 0): 1}, n)  # z1 + z1^{n+1}
    s2 = TruncatedSeries2.variable(2, n)
    g = MapGerm.from_series(s1, s2)
    verdict = is_preserved(g, FormGerm.standard(n))
    assert verdict  # the perturbation lies beyond the truncation degree
    assert verdict.precision <= n


def test_predict_type():
    holomorphic = FormGerm.standard()
    pole = FormGerm(-1, TruncatedSeries2.constant(1, 16))
    assert predict_type(holomorphic, 2) == FORCED_TYPE_II
    assert predict_type(pole, 1) == NO_PREDICTION
    assert predict_type(pole, 2) == FORCED_TYPE_II


def test_form_unit_part_must_not_vanish_on_the_curve():
    # z1 + z1*z2 and 0 vanish on z1 = 0: the z1 factor belongs in the
    # valuation
    for unit in ((X + X * Y).to_series(16), TruncatedSeries2.zero(16)):
        with pytest.raises(ValueError):
            FormGerm(0, unit)
    assert FormGerm(-1, (Y + X).to_series(16)).pole_order == 1


def test_pullback_requires_curve_fixing_for_poles():
    w = FormGerm(-1, TruncatedSeries2.constant(1, 16))
    with pytest.raises(NotACurveFixingGerm):
        pullback_form(remark42_map(), w)


def test_pullback_functorial_on_composition():
    f = germ(X + X * Y, Y + X**2)      # fixes z1 = 0
    g = germ(X + X**3, Y + X)           # fixes z1 = 0
    w = FormGerm(-1, (ONE + Y).to_series(16))
    # compose: (f o g)(z) = f(g(z))
    pair = (g.image1, g.image2)
    fg = MapGerm.from_series(f.image1.compose(pair), f.image2.compose(pair))
    lhs = pullback_form(fg, w)
    rhs = pullback_form(g, pullback_form(f, w))
    assert lhs.z1_valuation == rhs.z1_valuation
    n = min(lhs.unit_part.precision, rhs.unit_part.precision)
    assert lhs.unit_part.truncate(n) == rhs.unit_part.truncate(n)
