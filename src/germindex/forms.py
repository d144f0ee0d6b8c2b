"""Meromorphic 2-form germs in a chart adapted to the curve z1 = 0.

A form is alpha * dz1 ^ dz2 with alpha = z1^s * u where u is not divisible
by z1.  Negative s is a pole of order -s along the curve, positive s a zero.
The module provides the adapted expansion of a curve-fixing germ, the
min-exponent index/type rule it implies, pullback of forms, and the
area-preservation test together with the type prediction it forces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import (
    IdentityGerm,
    NotACurveFixingGerm,
    NotAUnit,
    NotDivisible,
)
from .germs import MapGerm
from .series import TruncatedSeries2

INFINITY = math.inf

FORCED_TYPE_II = "ForcedTypeII"
NO_PREDICTION = "NoPrediction"


@dataclass
class FormGerm:
    """alpha = z1^z1_valuation * unit_part; pole order is -z1_valuation."""

    z1_valuation: int
    unit_part: TruncatedSeries2

    def __post_init__(self):
        if self.unit_part.z1_order() != 0:
            raise ValueError(
                "unit part must not vanish identically on z1 = 0 "
                "(divide the z1 factor into the valuation)"
            )

    @property
    def pole_order(self) -> int:
        return -self.z1_valuation

    @classmethod
    def standard(cls, precision: int = 16) -> "FormGerm":
        """dz1 ^ dz2."""
        return cls(0, TruncatedSeries2.constant(1, precision))

    def __eq__(self, other):
        if not isinstance(other, FormGerm):
            return NotImplemented
        return self.z1_valuation == other.z1_valuation and self.unit_part == other.unit_part


@dataclass
class AdaptedExpansion:
    """Exponent data of a germ fixing z1 = 0:
    image1 = z1 + z1^k * f1,  image2 = z2 + z1^l * f2, with fi(0, z2) != 0."""

    k: int | float
    l: int | float
    f1: TruncatedSeries2
    f2: TruncatedSeries2


@dataclass
class CurveTypeVerdict:
    nu_C: int
    is_type_II: bool


@dataclass
class PreservationVerdict:
    """Equality of the pulled-back form with the original, certified only
    up to the stated truncation degree."""

    preserved: bool
    precision: int

    def __bool__(self):
        return self.preserved


def _divide_by_z1_power(s: TruncatedSeries2, k: int) -> TruncatedSeries2:
    """s / z1**k, for a series whose terms all have z1-exponent >= k."""
    return TruncatedSeries2({(i - k, j): c for (i, j), c in s.coeff.items()},
                            s.precision - k)


def _differences_series(germ: MapGerm):
    n = germ.precision
    z1 = TruncatedSeries2.variable(1, n)
    z2 = TruncatedSeries2.variable(2, n)
    return germ.image1 - z1, germ.image2 - z2


def adapted_expansion(germ: MapGerm) -> AdaptedExpansion:
    """Read off (k, l, f1, f2) for a germ fixing the curve z1 = 0.

    k (resp. l) is the exact z1-order of image1 - z1 (resp. image2 - z2);
    a vanishing difference gives the exponent infinity.  Raises
    NotACurveFixingGerm when a difference is not divisible by z1.
    """
    d1, d2 = _differences_series(germ)
    if d1.is_zero() and d2.is_zero():
        raise IdentityGerm("identity germ has no adapted expansion")

    def split(d: TruncatedSeries2):
        if d.is_zero():
            return INFINITY, TruncatedSeries2.zero(d.precision)
        k = d.z1_order()
        if isinstance(k, int) and k == 0:
            raise NotACurveFixingGerm("difference is not divisible by z1")
        return k, _divide_by_z1_power(d, k)

    k, f1 = split(d1)
    l, f2 = split(d2)
    return AdaptedExpansion(k=k, l=l, f1=f1, f2=f2)


def curve_type_via_minkl(exp: AdaptedExpansion) -> CurveTypeVerdict:
    """Index and type of the fixed curve from the adapted exponents:
    nu_C = min(k, l); type II exactly when k > l."""
    nu = min(exp.k, exp.l)
    if nu == INFINITY:
        raise IdentityGerm("both exponents infinite")
    return CurveTypeVerdict(nu_C=int(nu), is_type_II=exp.k > exp.l)


def _jacobian_determinant(germ: MapGerm) -> TruncatedSeries2:
    a = germ.image1.partial_derivative(1)
    b = germ.image1.partial_derivative(2)
    c = germ.image2.partial_derivative(1)
    d = germ.image2.partial_derivative(2)
    return a * d - b * c


def pullback_form(germ: MapGerm, form: FormGerm) -> FormGerm:
    """alpha(sigma(z)) * det(D sigma), re-expressed as z1^s' * unit.

    For s != 0 the germ must fix z1 = 0 so that substituting into z1^s
    stays inside the ring after exact division by z1^s.
    """
    s = form.z1_valuation
    n = min(germ.precision, form.unit_part.precision)
    u_pulled = form.unit_part.truncate(n).compose(
        (germ.image1.truncate(n), germ.image2.truncate(n)))
    jac = _jacobian_determinant(germ)
    bracket = u_pulled * jac
    if s != 0:
        d1 = germ.image1 - TruncatedSeries2.variable(1, germ.precision)
        if not d1.is_zero() and d1.z1_order() == 0:
            raise NotACurveFixingGerm(
                "pullback of a form with nonzero valuation needs a germ "
                "fixing z1 = 0"
            )
        # image1 = z1 * c with c the exact cofactor
        c = _divide_by_z1_power(germ.image1, 1)
        try:
            c_pow = c ** s  # handles negative s via unit inversion
        except NotAUnit as exc:
            raise NotDivisible(
                "pulled-back coefficient is not of the shape z1^s * unit"
            ) from exc
        bracket = bracket * c_pow
    if bracket.is_zero():
        raise NotDivisible(
            "pulled-back coefficient vanishes to working precision"
        )
    m = bracket.z1_order()
    return FormGerm(z1_valuation=s + m, unit_part=_divide_by_z1_power(bracket, m))


def is_preserved(germ: MapGerm, form: FormGerm) -> PreservationVerdict:
    """Does the germ preserve the form, up to the working truncation?

    A positive verdict is necessarily precision-limited: it certifies
    equality of all computable coefficients only.
    """
    pulled = pullback_form(germ, form)
    n = min(pulled.unit_part.precision, form.unit_part.precision)
    same = (pulled.z1_valuation == form.z1_valuation
            and pulled.unit_part == form.unit_part)
    return PreservationVerdict(preserved=same, precision=n)


def predict_type(form: FormGerm, nu_C: int):
    """Type forced on a fixed curve of index nu_C by form preservation:
    unless the form has a pole of order exactly nu_C along the curve, the
    curve must be of type II.  When the orders agree either type can occur
    and no prediction is made."""
    if nu_C < 1:
        raise ValueError("curve index must be a positive integer")
    return NO_PREDICTION if form.pole_order == nu_C else FORCED_TYPE_II

