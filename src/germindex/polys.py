"""Exact bivariate and univariate polynomials with rational coefficients.

Poly2 is the workhorse for germ decomposition and the elimination oracle:
a sparse dict of exponent pairs with Fraction coefficients.  The light
arithmetic (sums, products, derivatives, evaluation and exact division)
is done directly on the dicts.  Poly1 is a dense univariate value type for
resultants and characteristic polynomials.

This module is the one boundary to the computer-algebra system.  The heavy
steps (composition, and with it iterates, shears and translations;
multivariate and univariate gcd, irreducible factorization over Q,
resultants, real-root isolation, characteristic polynomials and the
factorization of integers) are
delegated to sympy at the ring level: a coefficient dict or matrix is
converted straight into sympy's sparse ring or domain matrix and back,
without building symbolic expression trees.  Every bivariate call runs
over ZZ: the denominators are cleared once on the way in, so the ring does
native integer arithmetic, and each output coefficient is divided by the
known common denominator once on the way out.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from sympy import factorint
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from .errors import NotDivisible
from .series import TruncatedSeries1, TruncatedSeries2, rat, substitute


class Poly2:
    """Exact polynomial in z1, z2 with rational coefficients."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        self.coeff = {e: c for e, c in coeff.items() if c != 0}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls({})

    @classmethod
    def constant(cls, value) -> "Poly2":
        return cls({(0, 0): rat(value)})

    @classmethod
    def variable(cls, index: int) -> "Poly2":
        if index not in (1, 2):
            raise ValueError("variable index must be 1 or 2")
        return cls({(1, 0) if index == 1 else (0, 1): Fraction(1)})

    @classmethod
    def from_terms(cls, terms) -> "Poly2":
        return cls({tuple(e): rat(c) for e, c in terms.items()})

    def to_series(self, precision: int) -> TruncatedSeries2:
        return TruncatedSeries2(dict(self.coeff), precision)

    # -- queries ----------------------------------------------------------

    def __getitem__(self, exps) -> Fraction:
        return self.coeff.get(tuple(exps), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeff

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.coeff)

    def constant_term(self) -> Fraction:
        return self.coeff.get((0, 0), Fraction(0))

    def vanishes_at_origin(self) -> bool:
        return self.constant_term() == 0

    def total_degree(self) -> int:
        if not self.coeff:
            return -1
        return max(i + j for i, j in self.coeff)

    def order(self) -> int:
        """Least total degree of a term; raises on the zero polynomial."""
        if not self.coeff:
            raise ValueError("zero polynomial has no order")
        return min(i + j for i, j in self.coeff)

    def z1_order(self) -> int:
        if not self.coeff:
            raise ValueError("zero polynomial has no order")
        return min(i for i, _ in self.coeff)

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex largest term; raises on zero."""
        if not self.coeff:
            raise ValueError("zero polynomial has no leading term")
        return self.coeff[max(self.coeff, key=lambda e: (e[0] + e[1], e))]

    def linear_part(self) -> tuple[Fraction, Fraction]:
        """Coefficients of (z1, z2) in the degree-1 part."""
        return (self.coeff.get((1, 0), Fraction(0)), self.coeff.get((0, 1), Fraction(0)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self):
        return hash(frozenset(self.coeff.items()))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other)
        out = dict(self.coeff)
        for e, c in other.coeff.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2({e: -c for e, c in self.coeff.items()})

    def __sub__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return (-self) + other

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return Poly2({e: c * v for e, v in self.coeff.items()})
        out: dict = {}
        for (i1, j1), c1 in self.coeff.items():
            for (i2, j2), c2 in other.coeff.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly2":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly2.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- substitution -----------------------------------------------------

    def evaluate(self, a, b) -> Fraction:
        a, b = rat(a), rat(b)
        return sum((c * a**i * b**j for (i, j), c in self.coeff.items()), Fraction(0))

    def compose(self, im1: "Poly2", im2: "Poly2",
                partner: "Poly2 | None" = None) -> "Poly2 | tuple[Poly2, Poly2]":
        """Exact substitution z1 -> im1, z2 -> im2, done in sympy's sparse
        ring over ZZ.

        With im1 = X/dx and im2 = Y/dy for integer X, Y, the outer p is
        turned into P = D * p(z1/dx, z2/dy), whose coefficients are integers,
        so that p(im1, im2) = P(X, Y) / D.

        With a partner polynomial the pair (self(im1, im2), partner(im1,
        im2)) is returned: the two share one table of the powers of im1 and
        im2 and their products, which is how a map is composed with another.
        """
        x, dx = _to_zz2(im1)
        y, dy = _to_zz2(im2)
        polys = [self] if partner is None else [self, partner]
        outers = [_to_zz2(p, dx, dy) for p in polys]
        out = [_from_zz2(r, D) for r, (_, D) in
               zip(_compose_ring([P for P, _ in outers], x, y), outers)]
        return out[0] if partner is None else tuple(out)

    def derivative(self, index: int) -> "Poly2":
        out = {}
        for (i, j), c in self.coeff.items():
            if index == 1 and i > 0:
                out[(i - 1, j)] = c * i
            elif index == 2 and j > 0:
                out[(i, j - 1)] = c * j
        return Poly2(out)

    def shear_z2(self, c) -> "Poly2":
        """Substitute z2 -> z2 + c*z1 (moves points between z2-levels)."""
        c = rat(c)
        if c == 0:
            return self
        return self.compose(Poly2.variable(1), Poly2.variable(2) + Poly2.variable(1) * c)

    def translate(self, a, b) -> "Poly2":
        """Substitute z -> z + (a, b), i.e. recenter the point (a,b) at 0."""
        a, b = rat(a), rat(b)
        if a == 0 and b == 0:
            return self
        return self.compose(Poly2.variable(1) + a, Poly2.variable(2) + b)

    def restrict_z2_zero(self) -> "Poly1":
        return Poly1.from_coeff_map({i: c for (i, j), c in self.coeff.items() if j == 0})

    def eval_on_parametrization(self, x: TruncatedSeries1, y: TruncatedSeries1) -> TruncatedSeries1:
        """Substitute a univariate parametrization (x(t), y(t))."""
        n = min(x.precision, y.precision)
        one = TruncatedSeries1.constant(1, n)
        return TruncatedSeries1(substitute(self.coeff, x, y, one), n)

    # -- division and normalization ----------------------------------------

    def exact_div(self, b: "Poly2") -> "Poly2":
        """Exact quotient self / b; raises NotDivisible if it does not divide."""
        if b.is_zero():
            raise NotDivisible("division by the zero polynomial")
        if self.is_zero():
            return Poly2.zero()
        # division by the minimal graded-lex term; sound because that term
        # of a product is the product of minimal terms.  Every quotient term
        # produced is then a term of the true quotient, whose total degree
        # is deg(self) - deg(b); a term beyond that proves non-divisibility
        # (without the bound the remainder can grow forever).
        pe = min(b.coeff, key=lambda e: (e[0] + e[1], e))
        pc = b.coeff[pe]
        max_degree = self.total_degree() - b.total_degree()
        quot: dict = {}
        rem = dict(self.coeff)
        while rem:
            e = min(rem, key=lambda x: (x[0] + x[1], x))
            c = rem.pop(e)
            qe = (e[0] - pe[0], e[1] - pe[1])
            if qe[0] < 0 or qe[1] < 0 or qe[0] + qe[1] > max_degree:
                raise NotDivisible("polynomial does not divide exactly")
            qc = c / pc
            quot[qe] = qc
            for be, bc in b.coeff.items():
                if be == pe:
                    continue
                te = (qe[0] + be[0], qe[1] + be[1])
                rem[te] = rem.get(te, Fraction(0)) - qc * bc
                if rem[te] == 0:
                    del rem[te]
        return Poly2(quot)

    def divides(self, other: "Poly2") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    def normalized(self) -> "Poly2":
        """Canonical scalar multiple: integer, content 1, graded-lex
        leading coefficient positive.  Used to compare branch factors."""
        if self.is_zero():
            return self
        from math import gcd, lcm

        den = lcm(*(c.denominator for c in self.coeff.values()))
        num = gcd(*(abs(c.numerator) for c in self.coeff.values()))
        scale = Fraction(den, num)
        if self.leading_coefficient() < 0:
            scale = -scale
        return self * scale

    def __repr__(self):
        if not self.coeff:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeff.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
            mono = "".join(
                f"*{v}^{e}" if e > 1 else (f"*{v}" if e == 1 else "")
                for v, e in (("z1", i), ("z2", j))
            )
            parts.append(f"{c}{mono}")
        return " + ".join(parts)


# -- the computer-algebra boundary (sympy, ring level) ------------------------

_RING2 = ring("z1,z2", ZZ)[0]
_RING1 = ring("t", QQ)[0]


def _fraction(c) -> Fraction:
    return Fraction(c.numerator, c.denominator)


def _qq(c):
    return QQ(c.numerator, c.denominator)


def _to_zz2(p: Poly2, dx: int = 1, dy: int = 1):
    """(P, D): the ring element P = D * p(z1/dx, z2/dy) over ZZ and D > 0.

    D = L * dx**I * dy**J, with L the lcm of the denominators of p and I,
    J its degrees in z1 and z2, so the coefficient c of z1^i z2^j becomes
    the integer c * L * dx**(I-i) * dy**(J-j).  With dx = dy = 1 this is
    (L * p, L).
    """
    L = lcm(*(c.denominator for c in p.coeff.values()))
    I = max((i for i, _ in p.coeff), default=0)
    J = max((j for _, j in p.coeff), default=0)
    P = _RING2.dtype({(i, j): c.numerator * (L // c.denominator)
                      * dx**(I - i) * dy**(J - j) for (i, j), c in p.coeff.items()})
    return P, L * dx**I * dy**J


def _from_zz2(r, den: int = 1) -> Poly2:
    """The Poly2 r / den, one rational per term."""
    return Poly2({e: Fraction(c, den) for e, c in r.items()})


def _from_ring1(r) -> "Poly1":
    return Poly1.from_coeff_map({k: _fraction(c) for (k,), c in r.items()})


def _power(powers: list, k: int):
    """powers[k], extending the table [1, base, base**2, ...] as needed."""
    while len(powers) <= k:
        n = len(powers)
        powers.append(powers[n // 2].square() if n % 2 == 0 else powers[n - 1] * powers[1])
    return powers[k]


def _compose_ring(outers: list, x, y) -> list:
    """Each outer ring element with z1 -> x, z2 -> y, all in the ring.

    The powers of x and y are built once, and so is each product
    x**i * y**j, which is then added, scaled by its coefficient, straight
    into every outer that has the monomial; PolyElement.compose would
    recompute g**k for every monomial.  A product is dropped once used, so
    the peak memory stays that of the powers and the results.
    """
    pow_x, pow_y = [_RING2.one, x], [_RING2.one, y]
    zero = ZZ.zero
    out = [_RING2.zero for _ in outers]
    for i, j in sorted(set().union(*outers)):
        if j == 0:
            term = _power(pow_x, i)
        elif i == 0:
            term = _power(pow_y, j)
        else:
            term = _power(pow_x, i) * _power(pow_y, j)
        for outer, acc in zip(outers, out):
            c = outer.get((i, j))
            if c is None:
                continue
            get = acc.get
            for m, v in term.items():
                acc[m] = get(m, zero) + c * v
    for acc in out:
        acc.strip_zero()
    return out


def iterate_pair(p1: Poly2, p2: Poly2, n: int) -> tuple[Poly2, Poly2]:
    """Components of the n-fold iterate of the map (p1, p2), n >= 1: each
    step substitutes the previous iterate into both components at once."""
    if n < 1:
        raise ValueError("iterate needs n >= 1")
    q1, q2 = p1, p2
    for _ in range(n - 1):
        q1, q2 = p1.compose(q1, q2, partner=p2)
    return q1, q2


def gcd2(a: Poly2, b: Poly2) -> Poly2:
    """Polynomial gcd over Q, normalized (zero when both inputs are zero).

    The gcd of the integer forms L_a * a and L_b * b is a scalar multiple
    of the gcd over Q, and normalized() picks the same multiple of both."""
    return _from_zz2(_to_zz2(a)[0].gcd(_to_zz2(b)[0])).normalized()


def factor_list2(p: Poly2) -> tuple[Fraction, list[tuple[Poly2, int]]]:
    """Irreducible factorization over Q: (constant, [(factor, multiplicity)])
    with normalized factors and constant * prod(factor**multiplicity) == p."""
    if p.is_constant():
        return p.constant_term(), []
    # over ZZ the factors are primitive (Gauss), so normalized() only fixes
    # their sign; the constant is rebuilt from p below, not from the content
    out = [(_from_zz2(f).normalized(), int(m))
           for f, m in _to_zz2(p)[0].factor_list()[1]]
    # graded-lex is a monomial order, so leading coefficients multiply
    lead = Fraction(1)
    for f, m in out:
        lead *= f.leading_coefficient() ** m
    return p.leading_coefficient() / lead, out


def _z1_degree(p: Poly2) -> int:
    return max((i for i, _ in p.coeff), default=0)


def resultant_z1(f: Poly2, g: Poly2) -> "Poly1":
    """Resultant eliminating z1; a univariate polynomial in z2.

    With f = F/a and g = G/b for integer F, G, the resultant is homogeneous
    of degree deg_z1 g in f and deg_z1 f in g, so Res(f, g) =
    Res(F, G) / (a**deg_z1 g * b**deg_z1 f)."""
    F, a = _to_zz2(f)
    G, b = _to_zz2(g)
    den = a**_z1_degree(g) * b**_z1_degree(f)
    return Poly1.from_coeff_map({k: Fraction(c, den) for (k,), c in F.resultant(G).items()})


def _to_ring1(p: "Poly1"):
    return _RING1.from_dict({(k,): _qq(c) for k, c in enumerate(p.coeff) if c != 0})


def gcd1(a: "Poly1", b: "Poly1") -> "Poly1":
    """Monic gcd over Q (zero when both inputs are zero)."""
    return _from_ring1(_to_ring1(a).gcd(_to_ring1(b)).monic())


def factor_list1(p: "Poly1") -> tuple[Fraction, list[tuple["Poly1", int]]]:
    """Irreducible factorization over Q: (constant, [(factor, multiplicity)])
    with primitive integer factors of positive leading coefficient and
    constant * prod(factor**multiplicity) == p."""
    const, factors = _to_ring1(p).factor_list()
    return _fraction(const), [(_from_ring1(f), int(m)) for f, m in factors]


def real_root_intervals1(p: "Poly1") -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi) of the distinct real roots of p, in
    increasing order: (r, r) for a rational root r found exactly, otherwise
    exactly one root with lo < root < hi (an end may be another, rational,
    root).  Negative and positive roots are isolated apart, so no interval
    has lo < 0 < hi."""
    return [(_fraction(lo), _fraction(hi))
            for (lo, hi), _ in _RING1.dup_isolate_real_roots(_to_ring1(p))]


def charpoly(M) -> "Poly1":
    """det(t I - M) of a square matrix with rational entries, exactly."""
    n = len(M)
    entries = [[_qq(rat(x)) for x in row] for row in M]
    coeffs = DomainMatrix(entries, (n, n), QQ).charpoly()
    return Poly1([_fraction(c) for c in reversed(coeffs)])


def factor_integer(m: int) -> dict[int, int]:
    """The prime factorization {prime: exponent} of an integer m >= 1."""
    return {int(q): int(k) for q, k in factorint(m).items()}


class Poly1:
    """Dense univariate polynomial over Q; coeff[k] multiplies t^k.

    A value type: the arithmetic on univariate polynomials goes through
    the ring-level functions above."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        coeff = [rat(c) for c in coeff]
        while coeff and coeff[-1] == 0:
            coeff.pop()
        self.coeff = coeff

    @classmethod
    def from_coeff_map(cls, m) -> "Poly1":
        if not m:
            return cls([])
        out = [Fraction(0)] * (max(m) + 1)
        for e, c in m.items():
            out[e] = rat(c)
        return cls(out)

    def degree(self) -> int:
        return len(self.coeff) - 1

    def is_zero(self) -> bool:
        return not self.coeff

    def order(self) -> int:
        """Multiplicity of the root 0; raises on the zero polynomial."""
        if not self.coeff:
            raise ValueError("zero polynomial has no order")
        return next(i for i, c in enumerate(self.coeff) if c != 0)

    def evaluate(self, x) -> Fraction:
        x = rat(x)
        total = Fraction(0)
        for c in reversed(self.coeff):
            total = total * x + c
        return total

    def __eq__(self, other):
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.coeff == other.coeff
