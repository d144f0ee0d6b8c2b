#!/usr/bin/env python3
"""Tour of the exact arithmetic substrate.

Truncated bivariate series over Q carry a precision (a total-degree
cutoff) through every operation; the polynomial layer is exact and knows
how to factor, take gcds and eliminate variables.
"""

from fractions import Fraction

from germindex import Poly2, TruncatedSeries2
from germindex.polys import factor_list2, gcd2, resultant_z1

S = TruncatedSeries2
z1, z2 = S.variable(1), S.variable(2)

print("== truncated series ==")
u = S.constant(1) + z1
print("u          =", u)
print("1/u        =", u.invert_unit())
print("u * 1/u    =", u * u.invert_unit())

s = z1 + z2**2
swap = s.compose((z2, z1))
print("swap of z1 + z2^2        =", swap)

quotient = (z1 * z1 * z2).exact_divide(z1)
print("z1^2 z2 / z1             =", quotient, " (precision dropped by 1)")

geom = z1.exact_divide(z1 + z1 * z1)
print("z1 / (z1 + z1^2)         =", geom)

print()
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

res = resultant_z1(X**2 + Y, X)
print("res_z1(z1^2 + z2, z1)         =",
      [res[(0, k)] for k in range(res.total_degree() + 1)], "(coefficients of z2^k)")

half = Poly2.constant(Fraction(1, 2))
print("evaluation of 1/2 * z1 * z2 at (2, 3):",
      (half * X * Y).evaluate(2, 3))
