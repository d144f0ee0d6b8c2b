"""Brute-force verification paths, apart from the germ engine.

Everything here works on exact global polynomial data: fixed-point
multiplicities as the z2-order of one resultant, after deterministic
shears that keep the leading coefficient of the first equation a unit at
the point and leave the point alone on its z2-level (a gcd only when a
common zero elsewhere on that level blocks a shear), a positivity test
for indices at points lying on fixed curves, and the determinant form of
the torus Lefschetz number.  A point is moved to the origin by
conjugating the global map itself (`polys.PolynomialMap.localized`).

A fixed-point multiplicity is first taken from jets of the fixed system,
without composing the exact f^n.  The linear parts come first: two
independent linear forms generate the maximal ideal, so a nonzero 2x2
determinant, det(Df^n - I), certifies a transversal point, of
multiplicity 1, with no elimination.  Since f fixes the point, the chain
rule gives Df^n = (Df)^n there, so `PolynomialMap.simple_at_origin`
decides this on integers and composes nothing.  Otherwise the jets below
degree 4 (the terms of total degree at most 3) are read from the
localized map's capped chain (`PolynomialMap.fixed_jets`).  Their tangent
cone comes next: nonzero jets of orders a, b have the lowest forms of the
exact pair, and when those forms are proved coprime (no shared tangent
line) the multiplicity is a*b with no elimination.  Otherwise the jets
are eliminated, and finite determinacy certifies their answer when it is
below 4; failing that the exact system is composed and eliminated.  No
order above 4 is tried: the jets below degree 4 are cheap and certify
the small multiplicities that most remaining points have, while jets of
higher order lose the structure that lets the exact system's resultant
finish fast, and cost as much as the exact elimination or far more.

A scenario's germ at a point is built on that localized map, so for
scenario germs the oracle reads the chains of the map the engine
iterates.  Its independence lies in elimination: the determinant of
(Df)^n - I, or the z2-order of its own resultant on the jets or on the
exact pair, against the engine's Nakayama codimension (the engine reads
its determinant on the composed f^n, not on (Df)^n).
`test_localizing_commutes_with_iterating` and
`test_fixed_jets_are_the_exact_fixed_system_truncated` keep composition
cross-checked.  The engine imports nothing from here.
"""

from __future__ import annotations

import itertools

from .errors import NonIsolated, UnsupportedSingularBranch
from .polys import (
    Poly2,
    PolynomialMap,
    factor_list2,
    gcd2,
    origin_alone_on_z2_zero,
    proved_coprime,
    resultant_z1,
)
from .surd import Surd


# Finite determinacy (W. Fulton, Algebraic Curves, 1969, ch. 2-3): an ideal
# of colength mu in the local ring at the origin contains m^mu.  Let P_N, Q_N
# be the terms of P, Q of total degree below N, with multiplicity mu' < N.
# Then m^N lies in J = (P_N, Q_N), so J = (P, Q) + m^N; hence m^mu' lies in
# (P, Q) + m * m^mu', and by Nakayama in (P, Q).  So (P, Q) = J and mu = mu'.
# At N = 2 the jets are linear forms, and mu' = 1 exactly when their
# determinant is nonzero.  That is the tangent-cone criterion at orders
# (1, 1): I(P, Q) = ord P * ord Q exactly when the lowest forms of P and Q
# share no tangent line (Fulton, ch. 3, section 3, property (5)), and a
# nonzero jet below N has the lowest form of the exact polynomial.
_JET_ORDER = 4


def _shear(p: Poly2, c: int) -> Poly2:
    """p with z2 -> z2 + c*z1; the unsheared p itself at c = 0."""
    return p.shear_z2(c) if c else p


def local_multiplicity(P: Poly2, Q: Poly2) -> int:
    """Intersection multiplicity of the curves P = 0 and Q = 0 at the origin.

    The shears z2 -> z2 + c*z1, c = 0, 1, -1, 2, -2, ..., are walked until
    P's z1-leading coefficient does not vanish at z2 = 0 and the origin is
    the only common zero of P and Q on that line; the z2-order of the
    resultant is then the local multiplicity.  With the leading
    coefficient a unit at the origin every root z1 = alpha(z2) of P stays
    finite, a root with alpha(0) != 0 adds nothing (Q does not vanish
    there), and the roots through the origin add up to the local
    multiplicity; with the line test passed the resultant is zero exactly
    when a common component passes through the origin (NonIsolated).
    gcd2 is computed only when a line test first fails on a common zero
    elsewhere on the line.  A common factor through the origin raises
    NonIsolated; one that misses it is a unit of the local ring and is
    divided out, and the tests are repeated on the divided pair.

    The walk ends (Bezout; W. Fulton, Algebraic Curves, ch. 3 and 5).  A
    shear c fails only where z2 = c*z1 is a component of P or Q (at most
    deg P + deg Q values), where P's top form vanishes at (1, c) (at most
    deg P), or where the line holds a common zero off the origin.  Before
    the division, a common factor that misses the origin either has
    positive z1-degree, and with P's unit leading coefficient a
    restriction of positive degree and no root at 0, so the first False
    divides it out; or lies in z2 alone, which leaves the order unchanged
    at c = 0 and has positive z1-degree at c != 0.  The divided pair is
    coprime, so at most deg P * deg Q values fail.
    """
    if P.constant_term() != 0 or Q.constant_term() != 0:
        return 0
    if P.is_zero() or Q.is_zero():
        raise NonIsolated("a common component passes through the point")
    divided = False
    for i in itertools.count():
        c = (i + 1) // 2 * (1 if i % 2 else -1)
        Pc, Qc = _shear(P, c), _shear(Q, c)
        alone = origin_alone_on_z2_zero(Pc, Qc)
        if alone is False and not divided:
            divided = True
            common = gcd2(P, Q)
            if common.vanishes_at_origin():
                raise NonIsolated("a common component passes through the point")
            if not common.is_constant():
                P, Q = P.exact_div(common), Q.exact_div(common)
                Pc, Qc = _shear(P, c), _shear(Q, c)
                alone = origin_alone_on_z2_zero(Pc, Qc)
        if not alone:
            continue
        res = resultant_z1(Pc, Qc)
        if res.is_zero():
            raise NonIsolated("system has a common component")
        return res.order()


def _tangent_cone(P: Poly2, Q: Poly2) -> int | None:
    """I(P, Q) = ord P * ord Q at the origin when the lowest forms of P and
    Q are proved coprime (no shared tangent line); None when P or Q is
    zero or the certificate gives no verdict (a shared tangent, or a
    coprime pair that proved_coprime cannot certify)."""
    if P.is_zero() or Q.is_zero() or not proved_coprime(P.lowest_form(), Q.lowest_form()):
        return None
    return P.order() * Q.order()


def fixed_multiplicity(pmap: PolynomialMap, point, n: int = 1) -> int:
    """Multiplicity of `point` as a solution of f^n(z) = z.

    The fixed system of the map localized at the point is eliminated at
    the origin.  When f fixes the point, its jets come first: the linear
    parts, whose nonzero determinant det((Df)^n - I) certifies the
    multiplicity 1 with no elimination and no composition
    (`simple_at_origin`); then the tangent cone of the jets below degree
    _JET_ORDER, from the capped chain (`fixed_jets`), whose lowest forms,
    of orders a and b, give a*b with no elimination when they are proved
    coprime (`proved_coprime`); then the elimination of those jets.  f^n
    itself is composed only when these certify nothing (a shared tangent
    with a multiplicity of at least _JET_ORDER, or jets that are not
    isolated).  A point that f moves (periodic of a period dividing n, or
    not fixed by f^n at all, which reports 0) takes the exact system at
    once.  The point must be isolated: a fixed-curve component through it
    raises NonIsolated, from the exact system alone.
    """
    local = pmap.localized(point)
    if local.fixes_origin():
        if local.simple_at_origin(n):
            return 1
        N = _JET_ORDER
        P, Q = local.fixed_jets(n, N)
        mu = _tangent_cone(P, Q)
        if mu is not None:
            return mu
        try:
            mu = local_multiplicity(P, Q)
        except NonIsolated:
            mu = N
        if mu < N:
            return mu
    return local_multiplicity(*local.fixed_system(n))


def fixed_index_positive(pmap: PolynomialMap, point, n: int = 1) -> bool:
    """Is the local index of f^n at `point` positive?

    Works at points lying on fixed curves, where fixed_multiplicity refuses.
    Writing the fixed-point system of the map localized at the point as
    (G*h1, G*h2) with G the global curve factor, the index is positive iff
    h1 and h2 both vanish at the origin or some type I curve branch through
    it is tangent to (h2, -h1) there, i.e. h1 * dp/dz1 + h2 * dp/dz2
    vanishes at the origin.
    """
    P, Q = pmap.localized(point).fixed_system(n)
    G = gcd2(P, Q)
    if G.is_zero():
        raise NonIsolated("a common component passes through the point")
    h1 = P.exact_div(G)
    h2 = Q.exact_div(G)
    if h1.vanishes_at_origin() and h2.vanishes_at_origin():
        return True
    for factor, _mult in factor_list2(G)[1]:
        if not factor.vanishes_at_origin():
            continue
        if factor.linear_part() == (0, 0):
            raise UnsupportedSingularBranch(
                f"curve factor {factor!r}, centred at {point}, is singular there"
            )
        e = h1 * factor.derivative(1) + h2 * factor.derivative(2)
        if factor.divides(e):
            # the restricted form vanishes identically on this branch
            # (type II); its order contributes only where h1, h2 vanish,
            # which was already tested
            continue
        if e.vanishes_at_origin():
            return True
    return False


def torus_lefschetz_oracle(delta1: Surd, delta2: Surd, n: int = 1) -> Surd:
    """(1 - d1^n)(1 - d2^n)(1 - conj(d1)^n)(1 - conj(d2)^n), exactly.

    This is the determinant form |det(I - A^n)|^2 of the Lefschetz number
    of a torus map with linear-part eigenvalues d1, d2; requires
    |d1 * d2| = 1 exactly.
    """
    prod = delta1 * delta2
    if prod.norm_squared() != Surd.rational(1):
        raise ValueError("eigenvalue product must have modulus one")
    one = Surd.rational(1)
    value = (one - delta1**n) * (one - delta2**n) \
        * (one - delta1.conjugate()**n) * (one - delta2.conjugate()**n)
    return value
