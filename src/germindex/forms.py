"""Meromorphic 2-form germs in a chart adapted to the curve z1 = 0.

A form is alpha * dz1 ^ dz2 with alpha = z1^s * u, where the unit part
u = a / b is a quotient of polynomials with b(0) != 0 and a not divisible
by z1.  Negative s is a pole of order -s along the curve, positive s a
zero.  The module provides the adapted expansion of a curve-fixing germ,
the min-exponent index/type rule it implies, pullback of forms, and the
area-preservation test together with the type prediction it forces.
Everything is exact polynomial arithmetic: preservation is the identity
of two quotients of polynomials, decided with no truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IdentityGerm, NotACurveFixingGerm, NotDivisible
from .germs import MapGerm
from .polys import Poly2, gcd2

INFINITY = math.inf

FORCED_TYPE_II = "ForcedTypeII"
NO_PREDICTION = "NoPrediction"

_ONE = Poly2.constant(1)
_Z1 = Poly2.variable(1)


@dataclass
class FormGerm:
    """alpha = z1^z1_valuation * unit_part / denominator; pole order is
    -z1_valuation.  The unit part must not vanish identically on z1 = 0
    and the denominator must not vanish at the origin."""

    z1_valuation: int
    unit_part: Poly2
    denominator: Poly2 = _ONE

    def __post_init__(self):
        if self.unit_part.is_zero() or self.unit_part.z1_order() != 0:
            raise ValueError(
                "unit part must not vanish identically on z1 = 0 "
                "(divide the z1 factor into the valuation)"
            )
        if self.denominator.constant_term() == 0:
            raise ValueError("denominator must not vanish at the origin")

    @property
    def pole_order(self) -> int:
        return -self.z1_valuation

    @classmethod
    def standard(cls) -> "FormGerm":
        """dz1 ^ dz2."""
        return cls(0, _ONE)

    def __eq__(self, other):
        """Equal valuations and equal unit quotients a/b == a'/b'."""
        if not isinstance(other, FormGerm):
            return NotImplemented
        return (self.z1_valuation == other.z1_valuation
                and self.unit_part * other.denominator
                == other.unit_part * self.denominator)


@dataclass
class AdaptedExpansion:
    """Exponent data of a germ fixing z1 = 0:
    image1 = z1 + z1^k * f1,  image2 = z2 + z1^l * f2, with fi(0, z2) != 0."""

    k: int | float
    l: int | float


@dataclass
class CurveTypeVerdict:
    nu_C: int
    is_type_II: bool


def adapted_expansion(germ: MapGerm) -> AdaptedExpansion:
    """Read off (k, l) for a germ fixing the curve z1 = 0.

    k (resp. l) is the exact z1-order of image1 - z1 (resp. image2 - z2);
    a vanishing difference gives the exponent infinity.  Raises
    NotACurveFixingGerm when a difference is not divisible by z1.
    """
    d1, d2 = germ.map.fixed_system()
    if d1.is_zero() and d2.is_zero():
        raise IdentityGerm("identity germ has no adapted expansion")

    def order(d: Poly2):
        if d.is_zero():
            return INFINITY
        k = d.z1_order()
        if k == 0:
            raise NotACurveFixingGerm("difference is not divisible by z1")
        return k

    return AdaptedExpansion(k=order(d1), l=order(d2))


def curve_type_via_minkl(exp: AdaptedExpansion) -> CurveTypeVerdict:
    """Index and type of the fixed curve from the adapted exponents:
    nu_C = min(k, l); type II exactly when k > l."""
    nu = min(exp.k, exp.l)
    if nu == INFINITY:
        raise IdentityGerm("both exponents infinite")
    return CurveTypeVerdict(nu_C=int(nu), is_type_II=exp.k > exp.l)


def _jacobian_determinant(germ: MapGerm) -> Poly2:
    p1, p2 = germ.poly1, germ.poly2
    return p1.derivative(1) * p2.derivative(2) - p1.derivative(2) * p2.derivative(1)


def pullback_form(germ: MapGerm, form: FormGerm) -> FormGerm:
    """alpha(sigma(z)) * det(D sigma), re-expressed as z1^s' * a' / b'.

    For s != 0 the germ must fix z1 = 0, so that sigma(z1) = z1 * c and
    the pullback of z1^s is z1^s * c^s; a negative s puts c^(-s) into the
    denominator.  The z1-powers of numerator and denominator go into the
    valuation, and the quotient is brought to lowest terms with the
    denominator's constant term 1.  NotDivisible is raised when the
    pullback vanishes or its denominator vanishes at the origin, where it
    is not of the shape z1^s' * unit.
    """
    s = form.z1_valuation
    p1, p2 = germ.poly1, germ.poly2
    num = form.unit_part.compose(p1, p2) * _jacobian_determinant(germ)
    den = form.denominator.compose(p1, p2)
    if s != 0:
        if not _Z1.divides(p1):
            raise NotACurveFixingGerm(
                "pullback of a form with nonzero valuation needs a germ "
                "fixing z1 = 0"
            )
        c = p1.exact_div(_Z1)
        if s > 0:
            num = num * c**s
        else:
            den = den * c**-s
    if num.is_zero():
        raise NotDivisible("pulled-back coefficient vanishes")
    m, m_den = num.z1_order(), den.z1_order()
    num, den = num.exact_div(_Z1**m), den.exact_div(_Z1**m_den)
    g = gcd2(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    b0 = den.constant_term()
    if b0 == 0:
        raise NotDivisible(
            "pulled-back coefficient is not of the shape z1^s * unit"
        )
    return FormGerm(z1_valuation=s + m - m_den, unit_part=num * (1 / b0),
                    denominator=den * (1 / b0))


def is_preserved(germ: MapGerm, form: FormGerm) -> bool:
    """Does the germ preserve the form?  An exact identity of quotients of
    polynomials."""
    return pullback_form(germ, form) == form


def predict_type(form: FormGerm, nu_C: int):
    """Type forced on a fixed curve of index nu_C by form preservation:
    unless the form has a pole of order exactly nu_C along the curve, the
    curve must be of type II.  When the orders agree either type can occur
    and no prediction is made."""
    if nu_C < 1:
        raise ValueError("curve index must be a positive integer")
    return NO_PREDICTION if form.pole_order == nu_C else FORCED_TYPE_II
