#!/usr/bin/env python3
"""Counting isolated periodic points on the resolved cubic surface.

The bundled cubic-d4 scenario models an area-preserving birational map on
the minimal resolution of a D4-singular cubic: four type II fixed curves
E0..E3 of self-intersection -2, three crossing points u_i of index 4 and
three further points v_i of index 2.  The Lefschetz number splits as

    L(f^n) = #Per_n^i + xi_1,       xi_1 = 18 - 10 = 8,

so the isolated count is L(f^n) - 8 = lambda^n + lambda^-n - 2 with
lambda = 9 + 4 sqrt(5).
"""

from germindex import local_index
from germindex.scenario import load_fixture
from germindex.surd import Surd
from germindex.surface import (
    count_isolated_periodic,
    dynamical_degree,
    saito_residual,
    validate_periodic_inventory,
    xi_k,
)

scn = load_fixture("cubic-d4")
model = scn.require_model()

print("== the local data ==")
for label in ("u1", "u2", "u3"):
    rep = local_index(scn.germs[label])
    print(f"  index at {label}: {rep.nu_A} "
          f"(delta {rep.delta} + 2*1 + 1*1 from the two curve branches)")
print("  declared indices at v1, v2, v3: 2 each")
print(f"  curve indices: E0 -> {model.curve('E0').nu_C}, "
      f"E1..E3 -> {model.curve('E1').nu_C}")
print(f"  xi_1 = {xi_k(model, 1)}")
print(f"  witness validation: {model.validate() or 'consistent'}")
print(f"  inventory: "
      f"{validate_periodic_inventory(model, scn.intersections) or 'no violations'}")

print()
lam = dynamical_degree(model.action)
print(f"== counting (dynamical degree {lam}) ==")
for n in range(1, 7):
    rep = count_isolated_periodic(model, n)
    check = lam**n + lam**-n - Surd.rational(2)
    growth = "ok" if rep.growth else "-"
    print(f"  n = {n}: L = {rep.lefschetz!r:>10}  #Per^i = "
          f"{rep.count_isolated:>10}  (= lambda^n + lambda^-n - 2: "
          f"{rep.count_isolated == check})  growth bound {growth}")

print()
print(f"residual of the fixed point formula at n = 1: "
      f"{saito_residual(model, 1, 16)!r} (16 = declared isolated-point sum)")
