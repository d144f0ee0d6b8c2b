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
numbers I(a, b) = dim Q[[z1,z2]] / (a, b), computed by one stabilized
truncated-codimension routine: mu_p = I(p, q) is the order of q along the
branch, for the cofactor or combination q that classify_branch picks.

Decomposition requires exact polynomial images: two polynomials whose gcd
is trivial have a finite common zero set, so the local gcd is the
polynomial gcd with the factors not vanishing at the origin stripped off.
Iterates of polynomial germs stay polynomial.  An iterate remembers the
germ it iterates, and is first decomposed by that base's curve factor g
(type II stability says g is the curve factor of every iterate): when g
divides both differences and a cofactor is a unit, no further factor
through the origin can divide both, so g is certified with no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    IdentityGerm,
    NonIsolated,
    NonPolynomialGerm,
    NotCoprime,
    NotDivisible,
    NotInvertible,
    PrecisionExhausted,
    UnsupportedSingularBranch,
)
from .oracle import local_multiplicity
from .polys import Poly2, factor_list2, gcd2, iterate_pair
from .series import (
    DEFAULT_PRECISION,
    AboveDegree,
    SeriesPair,
    TruncatedSeries1,
    TruncatedSeries2,
)

TYPE_I = "I"
TYPE_II = "II"


class MapGerm:
    """A map germ fixing the origin, with optional exact polynomial images.

    image1/image2 are the truncated-series images of z1 and z2 at the
    germ's precision.  When the germ is polynomial the exact polynomials
    are retained so that gcd extraction, iteration and the elimination
    oracle stay exact, and the series images are built from them on first
    use.  An iterate keeps the germ it iterates as `base`; `decompose`
    stores the germ's curve data (g and its origin factors) so that each
    germ object computes it at most once.  A polynomial germ holds the
    chain of its exact iterates [f, f^2, ...] that `iterate` has composed
    so far.
    """

    __slots__ = ("precision", "poly1", "poly2", "source_point_label",
                 "base", "_images", "_curve", "_iterates")

    def __init__(self, precision: int, poly1: Poly2 | None = None,
                 poly2: Poly2 | None = None,
                 images: tuple[TruncatedSeries2, TruncatedSeries2] | None = None,
                 source_point_label: str | None = None):
        self.precision = precision
        self.poly1 = poly1
        self.poly2 = poly2
        self.source_point_label = source_point_label
        self.base: MapGerm | None = None
        self._images = images
        self._curve: tuple[Poly2, list[tuple[Poly2, int]]] | None = None
        self._iterates = [(poly1, poly2)] if poly1 is not None else None

    @classmethod
    def from_polynomials(cls, p1: Poly2, p2: Poly2,
                         precision: int = DEFAULT_PRECISION,
                         label: str | None = None) -> "MapGerm":
        if p1.constant_term() != 0 or p2.constant_term() != 0:
            raise ValueError("germ must fix the origin")
        return cls(precision, p1, p2, source_point_label=label)

    @classmethod
    def from_series(cls, s1: TruncatedSeries2, s2: TruncatedSeries2,
                    label: str | None = None) -> "MapGerm":
        if s1.precision != s2.precision:
            raise ValueError("germ images must share a precision")
        if s1.constant_term() != 0 or s2.constant_term() != 0:
            raise ValueError("germ must fix the origin")
        return cls(s1.precision, images=(s1, s2), source_point_label=label)

    @property
    def image1(self) -> TruncatedSeries2:
        return self._series_images()[0]

    @property
    def image2(self) -> TruncatedSeries2:
        return self._series_images()[1]

    def _series_images(self) -> tuple[TruncatedSeries2, TruncatedSeries2]:
        if self._images is None:
            n = self.precision
            self._images = (self.poly1.to_series(n), self.poly2.to_series(n))
        return self._images

    @property
    def is_polynomial(self) -> bool:
        return self.poly1 is not None

    def differences(self):
        """(sigma(z1) - z1, sigma(z2) - z2) in the strongest available form."""
        if self.is_polynomial:
            return (self.poly1 - Poly2.variable(1), self.poly2 - Poly2.variable(2))
        z1 = TruncatedSeries2.variable(1, self.precision)
        z2 = TruncatedSeries2.variable(2, self.precision)
        return (self.image1 - z1, self.image2 - z2)

    def linear_matrix(self):
        """The 2x2 Jacobian at the origin, as rows of Fractions."""
        a, b = (self.image1[(1, 0)], self.image1[(0, 1)])
        c, d = (self.image2[(1, 0)], self.image2[(0, 1)])
        return ((a, b), (c, d))

    def __eq__(self, other):
        if not isinstance(other, MapGerm):
            return NotImplemented
        return self.image1 == other.image1 and self.image2 == other.image2

    def __repr__(self):
        tag = f" at {self.source_point_label}" if self.source_point_label else ""
        return f"MapGerm({self.image1!r}, {self.image2!r}){tag}"


@dataclass
class GermDecomposition:
    """The data sigma(z_i) = z_i + g*h_i with h1, h2 relatively prime.

    g, h1 and h2 are exact polynomials; g is the product of the
    origin-vanishing irreducible factors of the image-difference gcd.
    factors lists those factors of g with their multiplicities; decompose
    passes on the ones it has already computed, otherwise g is factored
    once on construction.  precision caps the truncation degrees of the
    codimension searches at 4 * precision.
    """

    g: Poly2
    h1: Poly2
    h2: Poly2
    precision: int = DEFAULT_PRECISION
    factors: list[tuple[Poly2, int]] | None = field(default=None, repr=False,
                                                    compare=False)

    def __post_init__(self):
        if self.factors is None:
            self.factors = _origin_factors(self.g)


@dataclass
class DifferentialPair:
    """Coefficients of a 1-form a*dz1 + b*dz2."""

    coeff_dz1: TruncatedSeries2
    coeff_dz2: TruncatedSeries2


@dataclass
class BranchRecord:
    """One fixed-curve branch through the origin: a height-1 prime dividing (g)."""

    defining_polynomial: Poly2
    # a user-supplied parametrization; None on a smooth branch, whose data
    # need none (branch_parametrization gives its series on request)
    parametrization: tuple[TruncatedSeries1, TruncatedSeries1] | None
    nu_p: int
    param_form: str = "over_z1"  # "over_z1": (t, phi(t)); "over_z2": (psi(t), t); "user"
    branch_type: str | None = None
    mu_p: int | None = None

    def key(self):
        """Canonical identity of the branch (normalized defining factor)."""
        return tuple(sorted(self.defining_polynomial.normalized().coeff.items()))


@dataclass
class IndexReport:
    """delta, the classified branch list and the local index nu_A."""

    delta: int
    branches: list[BranchRecord]
    nu_A: int

    def summary(self) -> dict:
        return {
            "delta": self.delta,
            "nu_A": self.nu_A,
            "branches": [
                {
                    "factor": repr(b.defining_polynomial),
                    "nu_p": b.nu_p,
                    "type": b.branch_type,
                    "mu_p": b.mu_p,
                }
                for b in self.branches
            ],
        }


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(germ: MapGerm) -> GermDecomposition:
    """Split the image differences as (g*h1, g*h2) with h1, h2 coprime.

    The germ must carry exact polynomial images; the factors of the
    polynomial gcd that do not vanish at the origin are local units and are
    left inside the h_i.  At a degenerate point an iterate is first divided
    by its base germ's curve factor, with the gcd route as the fallback.
    The germ keeps (g, factors), so a second decomposition of it needs no
    CAS call.
    """
    if not germ.is_polynomial:
        raise NonPolynomialGerm("decomposition needs exact polynomial images")
    d1, d2 = germ.differences()
    if d1.is_zero() and d2.is_zero():
        raise IdentityGerm("the identity germ admits no (g, h1, h2) data")
    if germ._curve is None:
        g, factors, h1, h2 = _split(germ, d1, d2)
        germ._curve = (g, factors)
    else:
        g, factors = germ._curve
        h1, h2 = (d1.exact_div(g), d2.exact_div(g)) if factors else (d1, d2)
    return GermDecomposition(g=g, h1=h1, h2=h2, precision=germ.precision,
                             factors=factors)


def _curve(germ: MapGerm) -> tuple[Poly2, list[tuple[Poly2, int]]]:
    """(g, factors) of a polynomial germ, computed at most once per object.

    The decomposition of an iterate reaches its base through here rather
    than through decompose, so the base's data is not a decomposition of
    its own."""
    if germ._curve is None:
        germ._curve = _split(germ, *germ.differences())[:2]
    return germ._curve


def _split(germ: MapGerm, d1: Poly2, d2: Poly2):
    """(g, factors, h1, h2) for the differences d1, d2 of germ."""
    (a, b), (c, d) = d1.linear_part(), d2.linear_part()
    # at a simple fixed point, det(Df(0) - I) != 0, no curve through the
    # origin divides both differences: it would make both rows of their
    # Jacobian multiples of its gradient at 0
    if a * d != b * c:
        return Poly2.constant(1), [], d1, d2
    if germ.base is not None:
        g, factors = _curve(germ.base)
        if factors:
            try:
                h1, h2 = d1.exact_div(g), d2.exact_div(g)
            except NotDivisible:
                pass
            else:
                # an origin prime dividing both differences more often than
                # it divides g would divide both h_i and so vanish at 0:
                # with a unit h_i, g is the curve factor and delta is 0
                if h1.constant_term() != 0 or h2.constant_term() != 0:
                    return g, factors, h1, h2
    factors = _origin_factors(gcd2(d1, d2))
    if not factors:
        return Poly2.constant(1), [], d1, d2
    g = Poly2.constant(1)
    for factor, mult in factors:
        g = g * factor**mult
    return g, factors, d1.exact_div(g), d2.exact_div(g)


def _origin_factors(p: Poly2) -> list[tuple[Poly2, int]]:
    """The irreducible factors of p through the origin, with multiplicity."""
    return [(f, m) for f, m in factor_list2(p)[1] if f.vanishes_at_origin()]


def omega_sigma(dec: GermDecomposition) -> DifferentialPair:
    """The 1-form h2*dz1 - h1*dz2 attached to a decomposition."""
    n = dec.precision
    return DifferentialPair(coeff_dz1=dec.h2.to_series(n),
                            coeff_dz2=-dec.h1.to_series(n))


# ---------------------------------------------------------------------------
# delta: codimension of (h1, h2)
# ---------------------------------------------------------------------------


class _RowSpace:
    """Incremental row echelon form over Q with sparse dict rows."""

    def __init__(self):
        self.pivots: dict = {}  # pivot monomial -> reduced row

    def reduce(self, row: dict) -> dict:
        row = dict(row)
        while row:
            lead = min(row, key=lambda e: (e[0] + e[1], e))
            piv = self.pivots.get(lead)
            if piv is None:
                return {e: c for e, c in row.items() if c != 0}
            f = row[lead] / piv[lead]
            for e, c in piv.items():
                row[e] = row.get(e, Fraction(0)) - f * c
                if row[e] == 0:
                    del row[e]
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red, key=lambda e: (e[0] + e[1], e))
        self.pivots[lead] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _monomials_below(D: int):
    return [(i, j) for d in range(D) for i in range(d + 1) for j in [d - i]]


def _truncated_row(h, mono, D: int) -> dict:
    """Coefficients of monomial * h, keeping total degree < D."""
    mi, mj = mono
    out = {}
    items = h.coeff.items()
    for (i, j), c in items:
        if mi + i + mj + j < D:
            out[(mi + i, mj + j)] = c
    return out


def _ideal_rows(generators, D: int) -> _RowSpace:
    """The span of {monomial * gen : monomial of degree < D}, truncated
    below total degree D."""
    space = _RowSpace()
    for mono in _monomials_below(D):
        for h in generators:
            row = _truncated_row(h, mono, D)
            if row:
                space.add(row)
    return space


def membership_to_degree(element, generators, D: int) -> bool:
    """Truncated ideal membership: does element lie in the span of
    {monomial * gen} modulo terms of total degree >= D?"""
    target = {e: c for e, c in element.coeff.items() if e[0] + e[1] < D}
    return not _ideal_rows(generators, D).reduce(target)


def _intersection_number(a: Poly2, b: Poly2, precision: int,
                         check=None) -> int | None:
    """I(a, b) = dim_Q Q[[z1,z2]] / (a, b) by truncated linear algebra.

    The codimension in degrees < D equals the true dimension once it
    agrees for two consecutive D (a Nakayama argument shows stabilization
    certifies m^D inside the ideal, so a, b then share no factor through
    the origin).  check, if given, runs once when D = precision has not
    stabilized; None means no D below 4 * precision did.
    """
    if a.constant_term() != 0 or b.constant_term() != 0:
        return 0
    prev = None
    for D in range(1, 4 * precision + 1):
        cur = len(_monomials_below(D)) - _ideal_rows((a, b), D).rank
        if cur == prev:
            return cur
        prev = cur
        if D == precision and check is not None:
            check()
    return None


def delta(dec: GermDecomposition) -> int:
    """dim_Q of Q[[z1,z2]] / (h1, h2), the intersection number I(h1, h2).

    When the codimension has not stabilized by D = precision, a gcd rules
    out a common factor through the origin (NotCoprime) before the search
    goes on; failure to stabilize below D = 4 * precision also raises
    NotCoprime.
    """
    h1, h2 = dec.h1, dec.h2
    if h1.is_zero() and h2.is_zero():
        raise NotCoprime("both cofactors vanish identically")

    def no_common_factor():
        common = gcd2(h1, h2)
        if not common.is_constant() and common.vanishes_at_origin():
            raise NotCoprime(f"cofactors share the factor {common!r}")

    d = _intersection_number(h1, h2, dec.precision, no_common_factor)
    if d is None:
        raise NotCoprime("codimension did not stabilize below the degree cap")
    return d


def delta_resultant(dec: GermDecomposition) -> int:
    """Independent route to delta: the intersection multiplicity of h1 and
    h2 at the origin by elimination (oracle.local_multiplicity)."""
    try:
        return local_multiplicity(dec.h1, dec.h2)
    except NonIsolated as exc:
        raise NotCoprime("cofactors share a factor through the origin") from exc


# ---------------------------------------------------------------------------
# branches and their classification
# ---------------------------------------------------------------------------


def _implicit_series_over_z1(p: Poly2, precision: int) -> TruncatedSeries1:
    """phi with p(t, phi(t)) = 0 to the given order; needs d(p)/dz2 (0,0) != 0."""
    c01 = p.linear_part()[1]
    t = TruncatedSeries1.variable(precision)
    phi = TruncatedSeries1.zero(precision)
    for k in range(1, precision + 1):
        defect = p.eval_on_parametrization(t, phi)
        if defect.is_zero():
            # exact to the working order: every later coefficient of the
            # defect is 0 as well, so phi cannot change
            break
        ck = defect[k]
        if ck != 0:
            phi = phi + TruncatedSeries1({k: -ck / c01}, precision)
    return phi


def _smooth_form(p: Poly2) -> str:
    """The coordinate the branch of p is a graph over: "over_z1" when
    dp/dz2 (0,0) != 0, else "over_z2"; a singular factor is refused."""
    c10, c01 = p.linear_part()
    if c01 != 0:
        return "over_z1"
    if c10 != 0:
        return "over_z2"
    raise UnsupportedSingularBranch(
        f"factor {p!r} is singular at the origin; supply a parametrization"
    )


def branch_parametrization(p: Poly2, precision: int):
    """Smooth parametrization of an origin branch: (t, phi) or (psi, t)."""
    form = _smooth_form(p)
    t = TruncatedSeries1.variable(precision)
    if form == "over_z1":
        return (t, _implicit_series_over_z1(p, precision)), form
    swapped = Poly2({(j, i): c for (i, j), c in p.coeff.items()})
    return (_implicit_series_over_z1(swapped, precision), t), form


def branches(dec: GermDecomposition,
             user_parametrizations: dict | None = None) -> list[BranchRecord]:
    """Enumerate the height-1 primes through the origin dividing (g).

    Each irreducible factor of g vanishing at the origin contributes one
    branch with nu_p its exact multiplicity in g.  A smooth factor needs no
    parametrization: its record notes only the coordinate its branch is a
    graph over.  Singular factors need an entry in user_parametrizations
    keyed by the normalized factor.
    """
    out = []
    for factor, mult in dec.factors:
        key = tuple(sorted(factor.normalized().coeff.items()))
        supplied = (user_parametrizations or {}).get(key)
        if supplied is not None:
            x, y = supplied
            check = factor.eval_on_parametrization(x, y)
            if not check.is_zero():
                raise UnsupportedSingularBranch(
                    f"supplied parametrization does not satisfy {factor!r}"
                )
            record = BranchRecord(factor, (x, y), mult, param_form="user")
        else:
            record = BranchRecord(factor, None, mult,
                                  param_form=_smooth_form(factor))
        out.append(record)
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
    -h1 on (t, phi)-branches and +h2 on (psi, t)-branches, so mu_p =
    I(p, h1) or I(p, h2).  On a user-parametrized branch mu_p is the order
    of tau_p itself; its type II order is refused.
    """
    p = branch.defining_polynomial
    e = dec.h1 * p.derivative(1) + dec.h2 * p.derivative(2)
    is_two = p.divides(e)
    if branch.param_form == "user":
        if is_two:
            raise UnsupportedSingularBranch(
                "mu extraction for a user-parametrized type II branch needs the "
                "normalization map; this is out of supported scope"
            )
        x, y = branch.parametrization
        tau = (dec.h2.eval_on_parametrization(x, y) * x.derivative()
               - dec.h1.eval_on_parametrization(x, y) * y.derivative())
        mu = tau.order()
        if isinstance(mu, AboveDegree):
            raise PrecisionExhausted(
                "supplied parametrization is too short for the order of the "
                "restricted form"
            )
    else:
        q = e if not is_two else dec.h1 if branch.param_form == "over_z1" else dec.h2
        # p and q share no factor (the type verdict), so only the cap stops
        # the search
        mu = _intersection_number(p, q, dec.precision)
        if mu is None:
            raise PrecisionExhausted(
                f"order of the restricted form along {p!r} exceeds truncation "
                f"degree {4 * dec.precision}"
            )
    return replace(branch, branch_type=TYPE_II if is_two else TYPE_I, mu_p=mu)


# ---------------------------------------------------------------------------
# the local index
# ---------------------------------------------------------------------------


def _index_report(dec: GermDecomposition) -> IndexReport:
    d = delta(dec)
    brs = [classify_branch(dec, b) for b in branches(dec)]
    nu = d + sum(b.nu_p * b.mu_p for b in brs)
    return IndexReport(delta=d, branches=brs, nu_A=nu)


def local_index(germ: MapGerm) -> IndexReport:
    """Full local report: delta, classified branches and nu_A.

    One pass is exact for a polynomial germ, the only kind decompose
    accepts: the cofactors are exact polynomials, the type verdict is an
    exact divisibility test, the branches and their nu_p are the factors of
    g, and delta and each mu_p are intersection numbers certified by the
    stabilization (Nakayama) of one truncated codimension, searched up to
    degree 4 * precision.
    """
    return _index_report(decompose(germ))


# ---------------------------------------------------------------------------
# iteration and inversion
# ---------------------------------------------------------------------------


def iterate(germ: MapGerm, n: int) -> MapGerm:
    """n-fold self-composition.  Polynomial germs compose exactly, each new
    n by one composition onto the germ's chain of iterates.  For n >= 2 the
    result keeps germ as its base, for decompose."""
    if n < 1:
        raise ValueError("iterate needs n >= 1")
    if n == 1:
        return germ
    if germ.is_polynomial:
        p1, p2 = iterate_pair(germ.poly1, germ.poly2, n, germ._iterates)
        out = MapGerm.from_polynomials(p1, p2, germ.precision,
                                       germ.source_point_label)
    else:
        s1, s2 = germ.image1, germ.image2
        for _ in range(n - 1):
            pair = SeriesPair(s1, s2)
            s1, s2 = germ.image1.compose(pair), germ.image2.compose(pair)
        out = MapGerm.from_series(s1, s2, germ.source_point_label)
    out.base = germ
    return out


def invert(germ: MapGerm) -> MapGerm:
    """Local inverse as a series germ; the linear part must be invertible."""
    (a, b), (c, d) = germ.linear_matrix()
    det = a * d - b * c
    if det == 0:
        raise NotInvertible("linear part of the germ is singular")
    n = germ.precision

    def linv(w1: TruncatedSeries2, w2: TruncatedSeries2):
        return ((w1 * d - w2 * b) * (Fraction(1) / det),
                (w2 * a - w1 * c) * (Fraction(1) / det))

    z1 = TruncatedSeries2.variable(1, n)
    z2 = TruncatedSeries2.variable(2, n)
    t1, t2 = linv(z1, z2)
    for _ in range(n + 1):
        pair = SeriesPair(t1, t2)
        e1 = germ.image1.compose(pair) - z1
        e2 = germ.image2.compose(pair) - z2
        if e1.is_zero() and e2.is_zero():
            break
        c1, c2 = linv(e1, e2)
        t1, t2 = t1 - c1, t2 - c2
    return MapGerm.from_series(t1, t2, germ.source_point_label)
