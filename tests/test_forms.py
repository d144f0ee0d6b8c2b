"""Adapted expansions, form pullback, preservation and type prediction."""

import pytest

from germindex import MapGerm, NotACurveFixingGerm, NotDivisible, Poly2
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
from germindex.scenario import load_fixture

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)


def germ(p1, p2):
    return MapGerm.from_polynomials(p1, p2)


def remark43_map():
    return germ(X + X * (X**2 + Y), Y + X**2)


def remark42_map():
    return germ(X * -2 - X**2 - Y, X)


def test_adapted_expansion_remark43():
    exp = adapted_expansion(remark43_map())
    assert exp.k == 1 and exp.l == 2


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
    v = curve_type_via_minkl(AdaptedExpansion(3, 1))
    assert v.nu_C == 1 and v.is_type_II
    v = curve_type_via_minkl(AdaptedExpansion(1, 2))
    assert v.nu_C == 1 and not v.is_type_II
    v = curve_type_via_minkl(AdaptedExpansion(INFINITY, 2))
    assert v.nu_C == 2 and v.is_type_II


def test_pullback_standard_form_under_area_preserving_map():
    w = FormGerm.standard()
    pulled = pullback_form(remark42_map(), w)
    assert pulled.z1_valuation == 0
    assert pulled.unit_part == ONE


def test_pullback_simple_pole_form_remark43():
    w = FormGerm(-1, ONE)
    pulled = pullback_form(remark43_map(), w)
    assert pulled.z1_valuation == -1
    assert (pulled.unit_part, pulled.denominator) == (ONE, ONE)
    assert is_preserved(remark43_map(), w)


def test_pullback_linear_scaling():
    pulled = pullback_form(germ(X * 2, Y), FormGerm.standard())
    assert pulled.z1_valuation == 0
    assert pulled.unit_part == ONE * 2


def test_is_preserved_verdicts():
    assert is_preserved(remark42_map(), FormGerm.standard())
    # remark43 does not preserve the holomorphic form: Jacobian is 1+z1^2+z2
    res = is_preserved(remark43_map(), FormGerm.standard())
    assert not res


@pytest.mark.parametrize("p1", [X + X**17, X + X**9 * Y**8],
                         ids=["z1^17", "z1^9_z2^8"])
def test_is_preserved_sees_terms_of_any_degree(p1):
    # det Df = 1 + 17 z1^16 and 1 + 9 z1^8 z2^8: the Jacobian differs from
    # 1 only in degree 16 and 17
    assert is_preserved(germ(p1, Y), FormGerm.standard()) is False


def test_predict_type():
    holomorphic = FormGerm.standard()
    pole = FormGerm(-1, ONE)
    assert predict_type(holomorphic, 2) == FORCED_TYPE_II
    assert predict_type(pole, 1) == NO_PREDICTION
    assert predict_type(pole, 2) == FORCED_TYPE_II


def test_form_unit_part_must_not_vanish_on_the_curve():
    # z1 + z1*z2 and 0 vanish on z1 = 0: the z1 factor belongs in the
    # valuation
    for unit in (X + X * Y, Poly2({})):
        with pytest.raises(ValueError):
            FormGerm(0, unit)
    assert FormGerm(-1, Y + X).pole_order == 1


def test_pullback_requires_curve_fixing_for_poles():
    w = FormGerm(-1, ONE)
    with pytest.raises(NotACurveFixingGerm):
        pullback_form(remark42_map(), w)


def test_pullback_refuses_a_coefficient_not_of_unit_shape():
    # (z1^2 + z1 z2, z2) pulls z1^-1 dz1 ^ dz2 back to
    # z1^-1 (2 z1 + z2) / (z1 + z2), a pole along z1 + z2 = 0 too; a
    # constant image2 pulls every form back to zero
    for f in (germ(X**2 + X * Y, Y), germ(X, Poly2({}))):
        with pytest.raises(NotDivisible):
            pullback_form(f, FormGerm(-1, ONE))


def test_pullback_functorial_on_composition():
    f = germ(X + X * Y, Y + X**2)      # fixes z1 = 0
    g = germ(X + X**3, Y + X)           # fixes z1 = 0
    # a rational unit: (1 + z2) / (1 + z1 + z2^2)
    w = FormGerm(-1, ONE + Y, ONE + X + Y**2)
    # compose: (f o g)(z) = f(g(z))
    fg = germ(*f.poly1.compose(g.poly1, g.poly2, partner=f.poly2))
    lhs = pullback_form(fg, w)
    rhs = pullback_form(g, pullback_form(f, w))
    assert lhs.z1_valuation == rhs.z1_valuation
    assert lhs == rhs


@pytest.mark.parametrize("fixture, form, verdicts", [
    ("remark42", "standard", {"origin": True, "second_fixed_point": True}),
    ("remark43", "omega", {"origin": True, "minus_two": True}),
    ("remark43", "standard", {"origin": False, "minus_two": False}),
    # det Df = 1 + 5 z1^2 z2 + 4 z1^4 z2^2 for the corner map
    ("cubic-d4", "holomorphic_near_E", {"u1": False, "u2": False, "u3": False}),
], ids=["remark42-standard", "remark43-omega", "remark43-standard",
        "cubic-d4-holomorphic_near_E"])
def test_bundled_fixture_preservation_verdicts(fixture, form, verdicts):
    scn = load_fixture(fixture)
    assert {label: is_preserved(g, scn.forms[form])
            for label, g in scn.germs.items()} == verdicts
