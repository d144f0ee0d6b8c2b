"""Local fixed-point analysis of planar map germs.

A germ sigma fixing the origin of Q^2 is stored through its coordinate
images (sigma(z1), sigma(z2)).  Writing sigma(z_i) = z_i + g*h_i with h1, h2
relatively prime yields the two ideals (g) and (h1, h2) that control the
local picture:

* delta      -- the codimension of (h1, h2), the point contribution;
* branches   -- the height-1 primes through the origin dividing (g), i.e.
                the fixed-curve germs, each with its multiplicity nu_p;
* each branch is of type I or type II according to whether the 1-form
  h2*dz1 - h1*dz2 survives restriction to the branch, and carries an
  order mu_p;
* the local index is delta + sum nu_p * mu_p.

delta and the mu_p of a smooth branch p are both local intersection
numbers I(a, b) = dim Q[[z1,z2]] / (a, b), computed by one incremental
truncated-codimension search that stops in one of two ways: the
codimension stabilizes (Nakayama), or one gcd at GUARD_DEGREE finds a
common factor through the origin.  mu_p = I(p, q) is the order of q along
the branch, for the cofactor or combination q that classify_branch picks.
No truncation parameter enters either number.
At a transversal point, det(Df(0) - I) != 0, delta = 1 needs no search.

Every germ is polynomial, and two polynomials whose gcd is trivial have a
finite common zero set, so the local gcd is the polynomial gcd with the
factors not vanishing at the origin stripped off.  Iterates are read from
the chain of the germ's `PolynomialMap`, and a germ keeps the iterate
germs built on it.  f^n keeps as its base f^d, d the largest proper
divisor of n (f itself for a prime n), and is first decomposed by that
base's curve factor g: f^n fixes the curves f^d fixes, and type II
stability says g is the curve factor of every iterate.  When g divides
both differences and the quotients have a finite intersection number, no
further factor through the origin divides both, so g is certified with
no factorization, and a curve of period d is found by one gcd, at f^d.

Nothing here is taken from the elimination oracle (`oracle`), which
cross-checks these numbers by resultants on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count
from math import gcd, isqrt

from .errors import (
    IdentityGerm,
    NotCoprime,
    NotDivisible,
    UnsupportedSingularBranch,
)
from .polys import Poly2, PolynomialMap, factor_list2, gcd2

TYPE_I = "I"
TYPE_II = "II"


class MapGerm:
    """A map germ fixing the origin, held as its exact polynomial map.

    The map is a `PolynomialMap` (`map`, read through poly1/poly2), so that
    gcd extraction, iteration, the intersection numbers and the pullback
    of forms stay exact.  Its iterates come from the map's chain, which the
    oracle reads too when it is handed the same map (a scenario germ's).
    The germ keeps the iterate germs built on it in `_iterates` (n -> f^n),
    as the map keeps its chain; f^n keeps f^d, d the largest proper
    divisor of n, as `base` (f^p for a prime p refers back to the germ: a
    cycle, freed by the garbage collector).  `decompose` stores the germ's
    decomposition in `_dec`, so that each germ object computes it at most
    once.
    """

    __slots__ = ("map", "base", "_dec", "_iterates")

    def __init__(self, pmap: PolynomialMap):
        self.map = pmap
        self.base: MapGerm | None = None
        self._dec: GermDecomposition | None = None
        self._iterates: dict[int, MapGerm] = {}

    @classmethod
    def from_polynomials(cls, p1: Poly2, p2: Poly2) -> "MapGerm":
        pmap = PolynomialMap(p1, p2)
        if not pmap.fixes_origin():
            raise ValueError("germ must fix the origin")
        return cls(pmap)

    @property
    def poly1(self) -> Poly2:
        return self.map.p1

    @property
    def poly2(self) -> Poly2:
        return self.map.p2

    def __eq__(self, other):
        if not isinstance(other, MapGerm):
            return NotImplemented
        return self.poly1 == other.poly1 and self.poly2 == other.poly2

    def __repr__(self):
        return f"MapGerm({self.poly1!r}, {self.poly2!r})"


@dataclass
class GermDecomposition:
    """The data sigma(z_i) = z_i + g*h_i with h1, h2 relatively prime.

    g, h1 and h2 are exact polynomials; g is the product of the
    origin-vanishing irreducible factors of the image-difference gcd.
    factors lists those factors of g with their multiplicities.  _delta
    is I(h1, h2) when the route that built it proved that (see _split),
    else None until delta searches for it.
    """

    g: Poly2
    h1: Poly2
    h2: Poly2
    factors: list[tuple[Poly2, int]] = field(repr=False, compare=False)
    _delta: int | None = field(default=None, repr=False, compare=False)


@dataclass
class BranchRecord:
    """One fixed-curve branch through the origin: a height-1 prime dividing (g)."""

    defining_polynomial: Poly2
    nu_p: int
    branch_type: str | None = None
    mu_p: int | None = None

    def key(self):
        """Canonical identity of the branch: the ((i, j), integer
        coefficient) terms of the normalized defining factor, sorted."""
        return tuple(sorted(self.defining_polynomial.normalized().numerator_terms()))


@dataclass
class IndexReport:
    """delta, the classified branch list and the local index nu_A."""

    delta: int
    branches: list[BranchRecord]
    nu_A: int


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(germ: MapGerm) -> GermDecomposition:
    """Split the image differences as (g*h1, g*h2) with h1, h2 coprime.

    The factors of the polynomial gcd that do not vanish at the origin are
    local units and are left inside the h_i.  At a degenerate point an
    iterate is first divided by its base germ's curve factor, with the gcd
    route as the fallback.
    The germ keeps its decomposition, so a second call returns it with no
    CAS call.
    """
    if germ._dec is None:
        germ._dec = _split(germ)
    return germ._dec


def _split(germ: MapGerm) -> GermDecomposition:
    """The decomposition of germ, with the delta its route proved: 1 at a
    transversal point, the I(h1, h2) that certified an iterate's g, none
    on the gcd route.  An iterate reads its base's curve data from
    base._dec, filled here rather than through decompose, so the base's
    is not a decomposition call of its own."""
    d1, d2 = germ.map.fixed_system()
    if d1.is_zero() and d2.is_zero():
        raise IdentityGerm("the identity germ admits no (g, h1, h2) data")
    # transversal, det(Df(0) - I) != 0: d1, d2 have independent linear parts,
    # so (d1, d2) is the maximal ideal, no curve divides both, I(d1, d2) = 1
    if germ.map.simple_at_origin(1):
        return GermDecomposition(Poly2.constant(1), d1, d2, [], 1)
    base = germ.base
    if base is not None:
        if base._dec is None:
            base._dec = _split(base)
        g, factors = base._dec.g, base._dec.factors
        if factors:
            # an origin prime dividing both differences more often than it
            # divides g would divide both h_i: a finite I(h1, h2) rules it
            # out, so g is the curve factor (a unit h_i is the case I = 0)
            try:
                h1, h2 = d1.exact_div(g), d2.exact_div(g)
                d = _intersection_number(h1, h2)
                if d is not None:
                    return GermDecomposition(g, h1, h2, factors, d)
            except NotDivisible:
                pass
    factors = _origin_factors(gcd2(d1, d2))
    if not factors:
        return GermDecomposition(Poly2.constant(1), d1, d2, [])
    g = Poly2.constant(1)
    for factor, mult in factors:
        g = g * factor**mult
    return GermDecomposition(g, d1.exact_div(g), d2.exact_div(g), factors)


def _origin_factors(p: Poly2) -> list[tuple[Poly2, int]]:
    """The irreducible factors of p through the origin, with multiplicity.
    A p that is a unit at the origin has none, and is not factored."""
    if not p.vanishes_at_origin():
        return []
    return [(f, m) for f, m in factor_list2(p)[1] if f.vanishes_at_origin()]


# ---------------------------------------------------------------------------
# delta: codimension of (h1, h2)
# ---------------------------------------------------------------------------


# the truncation degree at which _intersection_number, still unstabilized,
# looks for a common factor through the origin with one gcd
GUARD_DEGREE = 16


def _intersection_number(a: Poly2, b: Poly2) -> int | None:
    """I(a, b) = dim_Q Q[[z1,z2]] / (a, b) by truncated linear algebra.

    c(D), the codimension of (a, b) + m^D, grows strictly until it equals
    I(a, b) and stays there (Nakayama), so two consecutive equal values
    certify it.  A common factor through the origin makes I(a, b) infinite:
    None.  When D = GUARD_DEGREE has not stabilized, one gcd of a and b
    looks for such a factor; when it finds none the pair is locally
    coprime, so I(a, b) is finite and the search goes on until c(D)
    stabilizes.

    The rows m*a and m*b enter in order of their lowest degree, each reduced
    once into an echelon form keyed by its lowest term; terms at or above a
    degree cap never enter a row (a generator's terms are read by rising
    degree, up to the cap), and the cap doubles, rebuilding the form, when
    D passes it.  A row never drops below its lowest degree, so after the
    rows of lowest degree D - 1 the pivots below D are final and c(D) is
    D(D+1)/2 minus their number.

    The elimination is fraction-free, on the integer multiples of a and b
    that numerator_terms gives (they generate the same ideal): a pivot row
    is stored primitive, and a row with lowest coefficient c is reduced by
    a pivot with lowest coefficient p as row*(p/g) - pivot*(c/g), g =
    gcd(c, p).
    """
    if not (a.vanishes_at_origin() and b.vanishes_at_origin()):
        return 0
    gens = [(h.order(), sorted((i + j, i, c) for (i, j), c in h.numerator_terms()))
            for h in (a, b) if not h.is_zero()]
    pivots: dict = {}  # lowest term (graded index) -> primitive row
    cap = 4
    rank = [0] * cap  # rank[d]: the pivots of degree d

    def add_rows(d):
        """Reduce in the rows m*gen of lowest degree d, cut at the cap."""
        for order, terms in gens:
            e = d - order  # the multiplier's degree
            for p in range(e + 1):  # m = z1^p z2^(e-p)
                row = {}
                for n, i, c in terms:
                    n += e
                    if n >= cap:
                        break
                    row[n * (n + 1) // 2 + i + p] = c
                while row:
                    lead = min(row)
                    piv = pivots.get(lead)
                    if piv is None:
                        g = gcd(*row.values())
                        pivots[lead] = {k: v // g for k, v in row.items()}
                        rank[(isqrt(8 * lead + 1) - 1) // 2] += 1
                        break
                    c, top = row[lead], piv[lead]
                    g = gcd(c, top)
                    s, c = top // g, c // g
                    if s != 1:
                        row = {k: v * s for k, v in row.items()}
                    for k, v in piv.items():
                        w = row.get(k, 0) - c * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]

    prev = None
    # two exits suffice: a pair the gcd below finds locally coprime
    # stabilizes by D = I(a, b) + 1 <= deg a * deg b + 1 (Nakayama)
    for D in count(1):
        if D > cap:
            cap *= 2
            pivots.clear()
            rank[:] = [0] * cap
            for d in range(D - 1):
                add_rows(d)
        add_rows(D - 1)
        cur = D * (D + 1) // 2 - sum(rank[:D])
        if cur == prev:
            return cur
        prev = cur
        if D == GUARD_DEGREE and gcd2(a, b).vanishes_at_origin():
            return None


def delta(dec: GermDecomposition) -> int:
    """dim_Q of Q[[z1,z2]] / (h1, h2), the intersection number I(h1, h2).

    The value decompose proved is returned as is; else (the gcd route, a
    decomposition built by hand) it is searched for once and kept on dec.
    A pair with a common factor through the origin raises NotCoprime,
    found by the one gcd at D = GUARD_DEGREE.
    """
    if dec._delta is None:
        d = _intersection_number(dec.h1, dec.h2)
        if d is None:
            raise NotCoprime("cofactors share a factor through the origin")
        dec._delta = d
    return dec._delta


# ---------------------------------------------------------------------------
# branches and their classification
# ---------------------------------------------------------------------------


def branches(dec: GermDecomposition) -> list[BranchRecord]:
    """Enumerate the height-1 primes through the origin dividing (g).

    Each irreducible factor of g vanishing at the origin contributes one
    branch with nu_p its exact multiplicity in g.  No branch needs a
    parametrization, so a singular factor is listed too; classify_branch
    refuses it.
    """
    out = [BranchRecord(factor, mult) for factor, mult in dec.factors]
    out.sort(key=lambda b: b.key())
    return out


def classify_branch(dec: GermDecomposition, branch: BranchRecord) -> BranchRecord:
    """Fill in branch_type and mu_p, the order of the restricted form.

    The type verdict is exact: tau_p = h2*x' - h1*y' vanishes identically
    on the branch iff the defining factor p divides e = h1*dp/dz1 +
    h2*dp/dz2 (the gradient of p restricted to the branch is a nonzero
    multiple of the normal direction, for reduced p).  On a smooth branch
    the order of a q along it is the intersection number I(p, q).  Type I:
    e is a unit multiple of tau_p there, so mu_p = I(p, e).  Type II: in
    coordinates adapted to the branch (w = defining direction, parameter
    along the curve) the order is that of the dw-coefficient of the form,
    -h1 on a graph (t, phi(t)), where dp/dz2 (0,0) != 0, and +h2 on a graph
    (psi(t), t), so mu_p = I(p, h1) or I(p, h2).  The type verdict (with h1,
    h2 coprime) says p does not divide q, so the search ends with the exact
    mu_p; a decomposition whose cofactors share p raises NotCoprime.  A singular
    branch has no such coordinates and raises UnsupportedSingularBranch.
    """
    p = branch.defining_polynomial
    c10, c01 = p.linear_part()
    if c10 == c01 == 0:
        raise UnsupportedSingularBranch(f"factor {p!r} is singular at the origin")
    e = dec.h1 * p.derivative(1) + dec.h2 * p.derivative(2)
    is_two = p.divides(e)
    q = e if not is_two else dec.h1 if c01 != 0 else dec.h2
    mu = _intersection_number(p, q)
    if mu is None:
        raise NotCoprime(f"the cofactors share the branch factor {p!r}")
    return replace(branch, branch_type=TYPE_II if is_two else TYPE_I, mu_p=mu)


# ---------------------------------------------------------------------------
# the local index
# ---------------------------------------------------------------------------


def local_index(germ: MapGerm) -> IndexReport:
    """Full local report: delta, classified branches and nu_A.

    One pass is exact: the cofactors are exact polynomials, the type
    verdict is an exact divisibility test, the branches and their nu_p are
    the factors of g, and delta and each mu_p are intersection numbers
    certified by the stabilization (Nakayama) of one truncated codimension.
    """
    dec = decompose(germ)
    d = delta(dec)
    brs = [classify_branch(dec, b) for b in branches(dec)]
    return IndexReport(delta=d, branches=brs,
                       nu_A=d + sum(b.nu_p * b.mu_p for b in brs))


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def iterate(germ: MapGerm, n: int) -> MapGerm:
    """n-fold self-composition, built on `germ.map.iterate(n)`: one
    composition per n beyond the map's chain, and one germ per n, kept on
    germ.  For n >= 2 the result keeps as its base the iterate f^d, d the
    largest proper divisor of n (germ itself for a prime n), for
    decompose.  The map's chain refuses n < 1 before composing."""
    return _iterate(germ, n)


def _iterate(germ: MapGerm, n: int) -> MapGerm:
    """iterate's body, which recurses on the base under its own name, so
    that one call of iterate is one traced span with none nested in it."""
    if n == 1:
        return germ
    out = germ._iterates.get(n)
    if out is None:
        out = MapGerm(germ.map.iterate(n))
        p = next((p for p in range(2, isqrt(n) + 1) if n % p == 0), n)
        out.base = _iterate(germ, n // p)
        germ._iterates[n] = out
    return out
