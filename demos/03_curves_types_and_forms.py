#!/usr/bin/env python3
"""Fixed-curve types and meromorphic 2-forms.

A germ fixing the line z1 = 0 expands as (z1 + z1^k f1, z2 + z1^l f2);
the curve index is min(k, l) and the curve is type II exactly when k > l.
Preserving a 2-form without a pole of order exactly nu_C along the curve
forces type II -- a pole of matching order is the one escape hatch.
"""

from germindex import MapGerm, Poly2
from germindex.forms import (
    FormGerm,
    adapted_expansion,
    curve_type_via_minkl,
    is_preserved,
    predict_type,
    pullback_form,
)
from germindex.scenario import load_fixture

X, Y = Poly2.variable(1), Poly2.variable(2)

print("== adapted expansions ==")
for p1, p2, label in [
    (X + X * (X**2 + Y), Y + X**2, "cubic fixture map"),
    (X + X**3, Y + X, "(z1 + z1^3, z2 + z1)"),
    (X, Y + X**2, "(z1, z2 + z1^2)"),
]:
    germ = MapGerm.from_polynomials(p1, p2)
    exp = adapted_expansion(germ)
    verdict = curve_type_via_minkl(exp)
    print(f"  {label}: k = {exp.k}, l = {exp.l} -> nu_C = {verdict.nu_C}, "
          f"type {'II' if verdict.is_type_II else 'I'}")

print()
print("== the cubic fixture preserves z1^-1 dz1 ^ dz2 ==")
scn = load_fixture("remark43")
germ = scn.germs["origin"]
omega = scn.forms["omega"]
pulled = pullback_form(germ, omega)
print(f"  pullback valuation {pulled.z1_valuation}, "
      f"unit ({pulled.unit_part}) / ({pulled.denominator})")
print(f"  preserved: {is_preserved(germ, omega)}")
print(f"  but the holomorphic form is not: "
      f"{is_preserved(germ, FormGerm.standard())}")

print()
print("== type prediction from the pole order ==")
pole = FormGerm(-1, Poly2.constant(1))
holo = FormGerm.standard()
print("  holomorphic form, nu_C = 2:", predict_type(holo, 2))
print("  simple pole,      nu_C = 1:", predict_type(pole, 1),
      " (either type can occur: this fixture is type I)")
print("  simple pole,      nu_C = 2:", predict_type(pole, 2))
