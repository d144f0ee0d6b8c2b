#!/usr/bin/env python3
"""Tour of the exact arithmetic substrate.

Polynomials in z1, z2 over Q are exact: they divide, factor, take gcds
and eliminate variables with no truncation anywhere.
"""

from fractions import Fraction

from germindex import Poly2
from germindex.polys import factor_list2, gcd2, resultant_z1

print("== exact polynomials ==")
X, Y = Poly2.variable(1), Poly2.variable(2)
p = (X + Y) ** 2 * (Y - X**2)
const, factors = factor_list2(p)
print("factors of (z1+z2)^2 (z2 - z1^2):")
for f, m in factors:
    print(f"   ({f})^{m}")

a = X**2 * Y + X * Y**2
b = X * Y
print("gcd(z1^2 z2 + z1 z2^2, z1 z2) =", gcd2(a, b))
print("(z1^2 z2 + z1 z2^2) / (z1 z2) =", a.exact_div(b))

res = resultant_z1(X**2 + Y, X)
print("res_z1(z1^2 + z2, z1)         =",
      [res[(0, k)] for k in range(res.total_degree() + 1)], "(coefficients of z2^k)")

half = Poly2.constant(Fraction(1, 2))
print("evaluation of 1/2 * z1 * z2 at (2, 3):",
      (half * X * Y).evaluate(2, 3))
