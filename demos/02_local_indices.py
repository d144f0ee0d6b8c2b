#!/usr/bin/env python3
"""Local fixed-point indices of plane germs, end to end.

The first map has an isolated fixed point whose index jumps from 1 to 3
when the map is squared; the second fixes a whole line, and its (g, h1, h2)
decomposition produces branch data instead.
"""

from germindex import decompose, iterate, local_index
from germindex.scenario import load_fixture

print("== quadratic map (-2 z1 - z1^2 - z2, z1) at the origin ==")
scn = load_fixture("remark42")
origin = scn.germs["origin"]
for n in (1, 2, 3):
    rep = local_index(iterate(origin, n))
    print(f"  nu(f^{n}) = {rep.nu_A}   (delta = {rep.delta}, "
          f"branches: {len(rep.branches)})")
print("  -> the index is NOT stable under iteration: no fixed curve passes")
print("     through the point, so no stability theorem applies.")

print()
print("== cubic map (z1 + z1(z1^2 + z2), z2 + z1^2): a fixed line ==")
scn = load_fixture("remark43")
origin = scn.germs["origin"]
dec = decompose(origin)
print(f"  g  = {dec.g}")
print(f"  h1 = {dec.h1}")
print(f"  h2 = {dec.h2}")
print(f"  form: ({dec.h2}) dz1 + ({-dec.h1}) dz2")
rep = local_index(origin)
for b in rep.branches:
    print(f"  branch {b.defining_polynomial}: nu_p = {b.nu_p}, "
          f"type {b.branch_type}, mu_p = {b.mu_p}")
print(f"  delta = {rep.delta}, local index nu = {rep.nu_A}")

print()
print("  at the point (0, -2) on the fixed line:")
minus_two = scn.germs["minus_two"]
for n in (1, 2, 3, 4):
    rep = local_index(iterate(minus_two, n))
    print(f"    nu(f^{n}) = {rep.nu_A}")
print("  -> positive exactly when (z2+1)^n = 1 at z2 = -2, i.e. for even n:")
print("     a type I curve gives no stability for the points on it.")
