"""Deterministic random families of germs used by the property and
acceptance suites.  Everything is seeded so runs are reproducible."""

import random
from fractions import Fraction

from germindex import (
    MapGerm,
    Poly2,
    UnsupportedSingularBranch,
    branches,
    classify_branch,
    decompose,
    local_index,
)
from germindex.germs import TYPE_II

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)

LINEAR_CONJUGATIONS = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((2, 1), (1, 1)),
    ((1, -1), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (0, 2)),
    ((1, 2), (1, 3)),
]


def _conjugate_linear(p1: Poly2, p2: Poly2, S) -> tuple[Poly2, Poly2]:
    """S^{-1} o sigma o S for an invertible integer matrix S."""
    (a, b), (c, d) = S
    det = Fraction(a * d - b * c)
    sx = X * a + Y * b
    sy = X * c + Y * d
    q1 = p1.compose(sx, sy)
    q2 = p2.compose(sx, sy)
    return (q1 * (d / det) - q2 * (b / det),
            q2 * (a / det) - q1 * (c / det))


def _nonzero(rng, lo=-2, hi=2):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def type_two_germ(rng: random.Random) -> MapGerm:
    """A polynomial germ whose decomposition has at least one type II
    branch, built from a curve-adapted template and a linear conjugation."""
    while True:
        kind = rng.choice(("line", "double_line", "cross", "line_swap"))
        if kind == "line":
            # g = z1, h1 = c*z1, h2 with unit or z2 part
            c = rng.randint(0, 2)
            a, b, d = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
            if c == 0 and a == 0:
                continue
            if c != 0 and a == 0 and d == 0:
                continue
            g, h1, h2 = X, X * c, ONE * a + X * b + Y * d
        elif kind == "double_line":
            g, h1, h2 = X**2, Poly2({}), ONE * _nonzero(rng)
        elif kind == "cross":
            g, h1, h2 = X * Y, Poly2({}), ONE * _nonzero(rng)
        else:  # line_swap
            c = rng.randint(0, 2)
            a, b, d = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
            if c == 0 and a == 0:
                continue
            if c != 0 and a == 0 and b == 0:
                continue
            g, h1, h2 = Y, ONE * a + X * b + Y * d, Y * c
        from germindex.polys import gcd2

        if not gcd2(h1, h2).is_constant():
            continue
        p1 = X + g * h1
        p2 = Y + g * h2
        S = rng.choice(LINEAR_CONJUGATIONS)
        p1, p2 = _conjugate_linear(p1, p2, S)
        germ = MapGerm.from_polynomials(p1, p2)
        try:
            dec = decompose(germ)
            done = [classify_branch(dec, b) for b in branches(dec)]
        except UnsupportedSingularBranch:
            continue
        if any(b.branch_type == TYPE_II for b in done):
            return germ


def parabola_type_two_germ(rng: random.Random) -> MapGerm:
    """Degree-3 germ whose type II branch is the curved factor z2 - z1^2."""
    c = _nonzero(rng)
    g, h1, h2 = Y - X**2, ONE * c, X * (2 * c)
    return MapGerm.from_polynomials(X + g * h1, Y + g * h2)


_SHEAR_KINDS = ("h", "v", "d")


def _random_elementary(rng):
    kind = rng.choice(_SHEAR_KINDS)
    if kind == "h":
        c, j = _nonzero(rng), rng.randint(1, 2)
        fwd = (X + (Y**j) * c, Y)
        bwd = (X - (Y**j) * c, Y)
    elif kind == "v":
        c, j = _nonzero(rng), rng.randint(1, 2)
        fwd = (X, Y + (X**j) * c)
        bwd = (X, Y - (X**j) * c)
    else:
        a = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3)])
        b = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(1)])
        fwd = (X * a, Y * b)
        bwd = (X * (1 / a), Y * (1 / b))
    return fwd, bwd


def automorphism_pair(rng: random.Random) -> tuple[MapGerm, MapGerm]:
    """A shear-composition automorphism germ and its exact inverse."""
    while True:
        k = rng.randint(2, 3)
        factors = [_random_elementary(rng) for _ in range(k)]
        f1, f2 = X, Y
        for fwd, _ in factors:
            f1, f2 = fwd[0].compose(f1, f2), fwd[1].compose(f1, f2)
        # inverse of T_k o ... o T_1 is T_1^{-1} o ... o T_k^{-1}
        g1, g2 = X, Y
        for _, bwd in factors:
            g1, g2 = g1.compose(bwd[0], bwd[1]), g2.compose(bwd[0], bwd[1])
        # sanity: the two compositions really are inverse
        assert f1.compose(g1, g2) == X and f2.compose(g1, g2) == Y
        if f1 == X and f2 == Y:
            continue
        return (MapGerm.from_polynomials(f1, f2),
                MapGerm.from_polynomials(g1, g2))


def index_data(germ: MapGerm):
    """Comparable snapshot of the full local index data."""
    rep = local_index(germ)
    return {
        "delta": rep.delta,
        "nu_A": rep.nu_A,
        "branches": sorted(
            (b.key(), b.nu_p, b.branch_type, b.mu_p) for b in rep.branches
        ),
    }


def adapted_germ(rng: random.Random):
    """Germ fixing z1 = 0 with prescribed exponents: returns (germ, k, l).
    k may be the infinity sentinel (first coordinate fixed)."""
    import math

    while True:
        k = rng.choice([1, 2, 3, math.inf])
        l = rng.randint(1, 3)
        coeffs = lambda: (rng.randint(-2, 2), rng.randint(-2, 2),
                          rng.randint(-2, 2), rng.randint(-2, 2))

        def unit_in_z2(c):
            a, b, d, e = c
            if a == 0 and d == 0 and e == 0:
                return None
            return ONE * a + X * b + Y * d + Y**2 * e

        f2 = unit_in_z2(coeffs())
        if f2 is None:
            continue
        if k is math.inf:
            p1 = X
        else:
            f1 = unit_in_z2(coeffs())
            if f1 is None:
                continue
            p1 = X + X**k * f1
        p2 = Y + X**l * f2
        germ = MapGerm.from_polynomials(p1, p2)
        return germ, k, l


def coprime_cofactor_pair(rng: random.Random):
    """Random coprime (h1, h2) both vanishing at the origin (mostly)."""
    from germindex.polys import gcd2

    while True:
        def small_poly():
            terms = {}
            for e in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)]:
                if rng.random() < 0.45:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[e] = c
            if rng.random() < 0.12:
                terms[(0, 0)] = rng.randint(1, 2)
            return Poly2.from_terms(terms)

        h1, h2 = small_poly(), small_poly()
        if h1.is_zero() or h2.is_zero():
            continue
        g = gcd2(h1, h2)
        if not g.is_constant() and g.vanishes_at_origin():
            continue
        return h1, h2
