#!/usr/bin/env python3
"""Independent verification, apart from the germ engine.

Fixed-point multiplicities come from resultant elimination on the exact
global polynomials; torus Lefschetz numbers come from the determinant
form.  Both must agree with the germ engine and the trace sums.
"""

from fractions import Fraction

from germindex import iterate, local_index
from germindex.oracle import (
    fixed_index_positive,
    fixed_multiplicity,
    torus_lefschetz_oracle,
)
from germindex.scenario import load_fixture
from germindex.surd import Surd
from germindex.surface import CohomologyAction, TorusMode, lefschetz_number

print("== multiplicities by elimination vs the germ engine ==")
scn = load_fixture("remark42")
pmap = scn.maps["f"]
germ = scn.germs["origin"]
for n in (1, 2, 3):
    eng = local_index(iterate(germ, n)).nu_A
    orc = fixed_multiplicity(pmap, (0, 0), n)
    print(f"  n = {n}: engine {eng}, oracle {orc}, agree: {eng == orc}")

print()
print("== positivity pattern on a fixed line ==")
scn = load_fixture("remark43")
pmap = scn.maps["f"]
print("  index at (0, c) positive iff (c+1)^n = 1:")
for c in (0, -2):
    row = [fixed_index_positive(pmap, (0, c), n) for n in range(1, 5)]
    print(f"  c = {c:>2}: n = 1..4 -> {row}")

print()
print("== torus Lefschetz: trace sum vs determinant ==")
delta = Surd.sqrt_term(5, a=Fraction(3, 2), b=Fraction(1, 2))
eps = Surd.rational(1)
act = CohomologyAction(mode=TorusMode(delta, eps), picard_number=4,
                       algebraically_stable=True)
for n in range(1, 5):
    by_traces = lefschetz_number(act, n)
    by_det = torus_lefschetz_oracle(delta, eps * delta.inverse(), n)
    print(f"  n = {n}: traces {by_traces!r:>8}  determinant {by_det!r:>8}  "
          f"equal: {by_traces == by_det}")
