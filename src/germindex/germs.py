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

Decomposition requires exact polynomial images: two polynomials whose gcd
is trivial have a finite common zero set, so the local gcd is the
polynomial gcd with the factors not vanishing at the origin stripped off.
Iterates of polynomial germs stay polynomial and are decomposed the same
way; a guided extraction for truncated-series iterates is provided for the
case where a type II branch pins the curve factor of every iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    IdentityGerm,
    NonIsolated,
    NonPolynomialGerm,
    NotCoprime,
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
    substitute,
)

TYPE_I = "I"
TYPE_II = "II"

# extra truncation orders for classify_branch's retry and for the type
# verdict on series cofactors
CERTIFY_MARGIN = 4


class MapGerm:
    """A map germ fixing the origin, with optional exact polynomial images.

    image1/image2 are the truncated-series images of z1 and z2.  When the
    germ is polynomial the exact polynomials are retained so that gcd
    extraction, iteration and the elimination oracle stay exact.
    """

    __slots__ = ("image1", "image2", "poly1", "poly2", "source_point_label")

    def __init__(self, image1: TruncatedSeries2, image2: TruncatedSeries2,
                 poly1: Poly2 | None = None, poly2: Poly2 | None = None,
                 source_point_label: str | None = None):
        if image1.precision != image2.precision:
            raise ValueError("germ images must share a precision")
        if image1.constant_term() != 0 or image2.constant_term() != 0:
            raise ValueError("germ must fix the origin")
        self.image1 = image1
        self.image2 = image2
        self.poly1 = poly1
        self.poly2 = poly2
        self.source_point_label = source_point_label

    @classmethod
    def from_polynomials(cls, p1: Poly2, p2: Poly2,
                         precision: int = DEFAULT_PRECISION,
                         label: str | None = None) -> "MapGerm":
        if p1.constant_term() != 0 or p2.constant_term() != 0:
            raise ValueError("germ must fix the origin")
        return cls(p1.to_series(precision), p2.to_series(precision),
                   poly1=p1, poly2=p2, source_point_label=label)

    @classmethod
    def from_series(cls, s1: TruncatedSeries2, s2: TruncatedSeries2,
                    label: str | None = None) -> "MapGerm":
        return cls(s1, s2, source_point_label=label)

    @property
    def precision(self) -> int:
        return self.image1.precision

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

    g is always an exact polynomial (product of the origin-vanishing
    irreducible factors of the image-difference gcd); h1, h2 are exact
    polynomials on the primary path and truncated series on the guided
    iterate path.  factors lists the origin-vanishing irreducible factors
    of g with their multiplicities; decompose passes on the ones it has
    already computed, otherwise g is factored once on construction.
    """

    g: Poly2
    h1: Poly2 | TruncatedSeries2
    h2: Poly2 | TruncatedSeries2
    precision: int = DEFAULT_PRECISION
    factors: list[tuple[Poly2, int]] | None = field(default=None, repr=False,
                                                    compare=False)

    def __post_init__(self):
        if self.factors is None:
            self.factors = _origin_factors(self.g)

    @property
    def polynomial_cofactors(self) -> bool:
        return isinstance(self.h1, Poly2)

    def h_series(self, precision=None):
        n = precision if precision is not None else self.precision
        if self.polynomial_cofactors:
            return self.h1.to_series(n), self.h2.to_series(n)
        return self.h1.truncate(min(n, self.h1.precision)), \
            self.h2.truncate(min(n, self.h2.precision))


@dataclass
class DifferentialPair:
    """Coefficients of a 1-form a*dz1 + b*dz2."""

    coeff_dz1: TruncatedSeries2
    coeff_dz2: TruncatedSeries2


@dataclass
class BranchRecord:
    """One fixed-curve branch through the origin: a height-1 prime dividing (g)."""

    defining_polynomial: Poly2
    parametrization: tuple[TruncatedSeries1, TruncatedSeries1]
    nu_p: int
    param_form: str = "over_z1"  # "over_z1": (t, phi(t)); "over_z2": (psi(t), t); "user"
    branch_type: str | None = None
    mu_p: int | None = None
    a_series: TruncatedSeries1 | None = None

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
    left inside the h_i.
    """
    if not germ.is_polynomial:
        raise NonPolynomialGerm(
            "decomposition needs exact polynomial images; "
            "use the guided iterate path for series germs"
        )
    d1, d2 = germ.differences()
    if d1.is_zero() and d2.is_zero():
        raise IdentityGerm("the identity germ admits no (g, h1, h2) data")
    (a, b), (c, d) = d1.linear_part(), d2.linear_part()
    # at a simple fixed point, det(Df(0) - I) != 0, no curve through the
    # origin divides both differences: it would make both rows of their
    # Jacobian multiples of its gradient at 0
    factors = _origin_factors(gcd2(d1, d2)) if a * d == b * c else []
    if not factors:
        return GermDecomposition(g=Poly2.constant(1), h1=d1, h2=d2,
                                 precision=germ.precision, factors=[])
    g = Poly2.constant(1)
    for factor, mult in factors:
        g = g * factor**mult
    return GermDecomposition(g=g, h1=d1.exact_div(g), h2=d2.exact_div(g),
                             precision=germ.precision, factors=factors)


def _origin_factors(p: Poly2) -> list[tuple[Poly2, int]]:
    """The irreducible factors of p through the origin, with multiplicity."""
    return [(f, m) for f, m in factor_list2(p)[1] if f.vanishes_at_origin()]


def decompose_iterate_guided(base: GermDecomposition, iterated: MapGerm) -> GermDecomposition:
    """Decomposition of an iterate of a germ with a type II branch.

    When some branch of the base germ is of type II, the curve ideal (g) of
    every iterate equals that of the base germ, so the iterate cofactors can
    be recovered from truncated series by exact division.  This is the only
    decomposition path available for non-polynomial iterates.
    """
    n = iterated.precision
    z1 = TruncatedSeries2.variable(1, n)
    z2 = TruncatedSeries2.variable(2, n)
    g_series = base.g.to_series(n)
    h1 = (iterated.image1 - z1).exact_divide(g_series)
    h2 = (iterated.image2 - z2).exact_divide(g_series)
    return GermDecomposition(g=base.g, h1=h1, h2=h2,
                             precision=min(h1.precision, h2.precision),
                             factors=base.factors)


def omega_sigma(dec: GermDecomposition) -> DifferentialPair:
    """The 1-form h2*dz1 - h1*dz2 attached to a decomposition."""
    h1, h2 = dec.h_series()
    return DifferentialPair(coeff_dz1=h2, coeff_dz2=-h1)


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


def _local_codimension(h1, h2, D: int) -> int:
    """dim of (polynomials of degree < D) modulo the truncated ideal rows."""
    return len(_monomials_below(D)) - _ideal_rows((h1, h2), D).rank


def membership_to_degree(element, generators, D: int) -> bool:
    """Truncated ideal membership: does element lie in the span of
    {monomial * gen} modulo terms of total degree >= D?"""
    target = {e: c for e, c in element.coeff.items() if e[0] + e[1] < D}
    return not _ideal_rows(generators, D).reduce(target)


def delta(dec: GermDecomposition) -> int:
    """dim_Q of Q[[z1,z2]] / (h1, h2) by truncated linear algebra.

    The codimension in degrees < D equals the true dimension once it
    agrees for two consecutive D (a Nakayama argument shows stabilization
    certifies m^D inside the ideal, so h1, h2 then share no factor through
    the origin).  With polynomial cofactors that have not stabilized by
    D = precision, a gcd rules out a common factor through the origin
    (NotCoprime) before the search goes on; failure to stabilize below
    D = 4 * precision also raises NotCoprime.  Series cofactors stop at the
    working precision with PrecisionExhausted.
    """
    h1, h2 = dec.h1, dec.h2
    if h1.constant_term() != 0 or h2.constant_term() != 0:
        return 0
    if h1.is_zero() and h2.is_zero():
        raise NotCoprime("both cofactors vanish identically")
    if dec.polynomial_cofactors:
        cap = 4 * dec.precision
        exhausted = NotCoprime("codimension did not stabilize below the degree cap")
    else:
        cap = dec.precision
        exhausted = PrecisionExhausted(
            "codimension did not stabilize below the working precision"
        )
    prev = None
    for D in range(1, cap + 1):
        cur = _local_codimension(h1, h2, D)
        if cur == prev:
            return cur
        prev = cur
        if D == dec.precision and dec.polynomial_cofactors:
            common = gcd2(h1, h2)
            if not common.is_constant() and common.vanishes_at_origin():
                raise NotCoprime(f"cofactors share the factor {common!r}")
    raise exhausted


def delta_resultant(dec: GermDecomposition) -> int:
    """Independent route to delta: the intersection multiplicity of h1 and
    h2 at the origin by elimination (oracle.local_multiplicity)."""
    if not dec.polynomial_cofactors:
        raise NonPolynomialGerm("resultant route needs polynomial cofactors")
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


def branch_parametrization(p: Poly2, precision: int):
    """Smooth parametrization of an origin branch: (t, phi) or (psi, t)."""
    c10, c01 = p.linear_part()
    t = TruncatedSeries1.variable(precision)
    if c01 != 0:
        phi = _implicit_series_over_z1(p, precision)
        return (t, phi), "over_z1"
    if c10 != 0:
        swapped = Poly2({(j, i): c for (i, j), c in p.coeff.items()})
        psi = _implicit_series_over_z1(swapped, precision)
        return (psi, t), "over_z2"
    raise UnsupportedSingularBranch(
        f"factor {p!r} is singular at the origin; supply a parametrization"
    )


def branches(dec: GermDecomposition,
             user_parametrizations: dict | None = None) -> list[BranchRecord]:
    """Enumerate the height-1 primes through the origin dividing (g).

    Each irreducible factor of g vanishing at the origin contributes one
    branch with nu_p its exact multiplicity in g.  Smooth factors are
    parametrized by series recursion; singular factors need an entry in
    user_parametrizations keyed by the normalized factor.
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
            param, form = branch_parametrization(factor, dec.precision)
            record = BranchRecord(factor, param, mult, param_form=form)
        out.append(record)
    out.sort(key=lambda b: b.key())
    return out


def _tau_restriction(dec: GermDecomposition, param, precision: int) -> TruncatedSeries1:
    """tau_p of the decomposition form on the branch param = (x, y):
    h2(x,y)*x' - h1(x,y)*y'."""
    x, y = param
    if x.precision > precision:
        x, y = x.truncate(precision), y.truncate(precision)
    h1s, h2s = dec.h_series(precision)
    n = min(h1s.precision, h2s.precision, x.precision, y.precision)
    one = TruncatedSeries1.constant(1, n)
    h1_on = TruncatedSeries1(substitute(h1s.coeff, x, y, one), n)
    h2_on = TruncatedSeries1(substitute(h2s.coeff, x, y, one), n)
    return h2_on * x.derivative() - h1_on * y.derivative()


def _branch_is_type_two(dec: GermDecomposition, branch: BranchRecord,
                        precision: int) -> bool:
    """Type verdict.  With polynomial cofactors this is an exact
    divisibility test: tau_p vanishes identically on the branch iff the
    defining factor divides h1 * dp/dz1 + h2 * dp/dz2.  On the series path
    the verdict is certified by agreement at two truncation orders."""
    p = branch.defining_polynomial
    if dec.polynomial_cofactors:
        # exact: tau_p vanishes on the branch iff p divides this combination
        # (the gradient of p restricted to the branch is a nonzero multiple
        # of the normal direction, for reduced p)
        e = dec.h1 * p.derivative(1) + dec.h2 * p.derivative(2)
        return p.divides(e)
    tau_lo = _tau_restriction(dec, branch.parametrization, precision)
    hi = min(precision + CERTIFY_MARGIN, dec.precision)
    tau_hi = _tau_restriction(dec, branch.parametrization, hi)
    if tau_lo.is_zero() != tau_hi.is_zero():
        raise PrecisionExhausted(
            f"type verdict for {p!r} changed between truncation orders"
        )
    return tau_lo.is_zero()


def classify_branch(dec: GermDecomposition, branch: BranchRecord) -> BranchRecord:
    """Fill in branch_type, the restricted series a, and mu_p = ord(a).

    Type I: a is tau_p itself.  Type II: in coordinates adapted to the
    branch (w = defining direction, parameter along the curve) a is the
    dw-coefficient of the form restricted to the branch; concretely
    -h1 on (t, phi)-branches and +h2 on (psi, t)-branches.  Orders are
    unit-invariant so the adapted-coordinate unit factor is irrelevant.
    """
    n = dec.precision
    is_two = _branch_is_type_two(dec, branch, n)

    def params_at(prec: int):
        x0, y0 = branch.parametrization
        if x0.precision >= prec:
            return x0.truncate(prec), y0.truncate(prec)
        if branch.param_form == "user":
            raise PrecisionExhausted(
                "supplied parametrization is too short for the requested order"
            )
        return branch_parametrization(branch.defining_polynomial, prec)[0]

    def a_at(prec: int) -> TruncatedSeries1:
        x, y = params_at(prec)
        if not is_two:
            return _tau_restriction(dec, (x, y), prec)
        if branch.param_form == "over_z2":
            h, sign = dec.h_series(prec)[1], 1
        elif branch.param_form == "over_z1":
            h, sign = dec.h_series(prec)[0], -1
        else:
            raise UnsupportedSingularBranch(
                "mu extraction for a user-parametrized type II branch needs the "
                "normalization map; this is out of supported scope"
            )
        one = TruncatedSeries1.constant(1, min(h.precision, x.precision, y.precision))
        return TruncatedSeries1(substitute(h.coeff, x, y, one), one.precision) * sign

    a = a_at(n)
    mu = a.order()
    if isinstance(mu, AboveDegree):
        limit = n + CERTIFY_MARGIN
        if dec.polynomial_cofactors:
            a = a_at(limit)
            mu = a.order()
        if isinstance(mu, AboveDegree):
            raise PrecisionExhausted(
                f"order of the restricted form along {branch.defining_polynomial!r} "
                f"exceeds truncation degree {limit}"
            )
    return replace(branch, branch_type=TYPE_II if is_two else TYPE_I,
                   mu_p=mu, a_series=a)


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
    accepts: the cofactors are exact polynomials, delta is certified by its
    stabilization (Nakayama), the type verdict is an exact divisibility
    test, the branches and their nu_p are the factors of g, and mu_p is the
    order of a series whose coefficients are exact up to the truncation
    degree (classify_branch retries at the degree raised by CERTIFY_MARGIN
    before it raises PrecisionExhausted).
    """
    return _index_report(decompose(germ))


# ---------------------------------------------------------------------------
# iteration and inversion
# ---------------------------------------------------------------------------


def iterate(germ: MapGerm, n: int) -> MapGerm:
    """n-fold self-composition.  Polynomial germs compose exactly."""
    if n < 1:
        raise ValueError("iterate needs n >= 1")
    if n == 1:
        return germ
    if germ.is_polynomial:
        p1, p2 = iterate_pair(germ.poly1, germ.poly2, n)
        return MapGerm.from_polynomials(p1, p2, germ.precision,
                                        germ.source_point_label)
    s1, s2 = germ.image1, germ.image2
    for _ in range(n - 1):
        pair = SeriesPair(s1, s2)
        s1, s2 = germ.image1.compose(pair), germ.image2.compose(pair)
    return MapGerm.from_series(s1, s2, germ.source_point_label)


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
