"""Truncated formal power series over exact rationals.

TruncatedSeries2 models an element of Q[[z1, z2]] known modulo all terms of
total degree > N; the integer N is carried along as ``precision``.  All
arithmetic is exact on the stored coefficients and every binary operation
truncates to the weaker of the two precisions.  Series carry the images
of germs given without exact polynomials (jet data) and the expansions
and 2-forms of the forms module; exact polynomials are composed in
sympy's ring by ``Poly2.compose``.

Values are immutable after construction and all operations are pure, so
instances can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonLocalSubstitution, NotAUnit, NotDivisible

DEFAULT_PRECISION = 16


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions to an exact rational; a boolean
    is not a number."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class AboveDegree:
    """Returned by order() when every stored coefficient vanishes: the
    order exceeds the truncation degree n (or is infinite)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, AboveDegree) and other.n == self.n

    def __hash__(self):
        return hash(("AboveDegree", self.n))

    def __repr__(self):
        return f"AboveDegree({self.n})"


class TruncatedSeries2:
    """Bivariate series sum c[(i,j)] * z1^i z2^j over i+j <= precision."""

    __slots__ = ("coeff", "precision")

    def __init__(self, coeff, precision: int):
        if precision < 0:
            raise ValueError("precision must be nonnegative")
        self.precision = precision
        self.coeff = {e: c for e, c in coeff.items()
                      if c != 0 and e[0] + e[1] <= precision}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries2":
        return cls({}, precision)

    @classmethod
    def constant(cls, value, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries2":
        return cls({(0, 0): rat(value)}, precision)

    @classmethod
    def variable(cls, index: int, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries2":
        """The coordinate z1 (index 1) or z2 (index 2)."""
        if index not in (1, 2):
            raise ValueError("variable index must be 1 or 2")
        e = (1, 0) if index == 1 else (0, 1)
        return cls({e: Fraction(1)}, precision)

    @classmethod
    def from_terms(cls, terms, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries2":
        return cls({e: rat(c) for e, c in terms.items()}, precision)

    # -- basic queries -------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.coeff.get((0, 0), Fraction(0))

    def is_zero(self) -> bool:
        """Zero up to the stored precision (no claim beyond it)."""
        return not self.coeff

    def order(self):
        """Least total degree with a nonzero coefficient, or AboveDegree."""
        if not self.coeff:
            return AboveDegree(self.precision)
        return min(i + j for i, j in self.coeff)

    def z1_order(self):
        """Least z1-exponent present (divisibility by powers of z1)."""
        if not self.coeff:
            return AboveDegree(self.precision)
        return min(i for i, _ in self.coeff)

    def truncate(self, precision: int) -> "TruncatedSeries2":
        if precision >= self.precision:
            if precision == self.precision:
                return self
            raise ValueError("cannot raise precision of a truncated series")
        return TruncatedSeries2(self.coeff, precision)

    def __eq__(self, other):
        """Coefficient-wise equality up to the weaker precision."""
        if isinstance(other, (int, Fraction)):
            other = self.constant(other, self.precision)
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        n = min(self.precision, other.precision)
        return self.truncate(n).coeff == other.truncate(n).coeff

    def __hash__(self):
        # equal series agree at least in degree 0, which every precision
        # keeps, and a constant series equals its value
        return hash(self.constant_term())

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "TruncatedSeries2":
        if isinstance(other, (int, Fraction)):
            other = self.constant(other, self.precision)
        n = min(self.precision, other.precision)
        out = dict(self.coeff)
        for e, c in other.coeff.items():
            out[e] = out.get(e, Fraction(0)) + c
        return TruncatedSeries2(out, n)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries2":
        return TruncatedSeries2({e: -c for e, c in self.coeff.items()}, self.precision)

    def __sub__(self, other) -> "TruncatedSeries2":
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries2":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries2":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return TruncatedSeries2({e: c * v for e, v in self.coeff.items()},
                                    self.precision)
        n = min(self.precision, other.precision)
        out: dict = {}
        for (i1, j1), c1 in self.coeff.items():
            if i1 + j1 > n:
                continue
            for (i2, j2), c2 in other.coeff.items():
                i, j = i1 + i2, j1 + j2
                if i + j > n:
                    continue
                e = (i, j)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return TruncatedSeries2(out, n)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries2":
        if k < 0:
            return self.invert_unit() ** (-k)
        result = self.constant(1, self.precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def invert_unit(self) -> "TruncatedSeries2":
        """Multiplicative inverse of a unit (nonzero constant term)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise NotAUnit("series has zero constant term")
        n = self.precision
        # self = c0 (1 - r) with ord(r) >= 1: a geometric series in r
        r = TruncatedSeries2({e: -c / c0 for e, c in self.coeff.items() if e != (0, 0)}, n)
        acc = self.constant(1, n)
        rp = acc
        for _ in range(n):
            rp = rp * r
            if rp.is_zero():
                break
            acc = acc + rp
        return acc * (Fraction(1) / c0)

    # -- local-ring operations ----------------------------------------

    def compose(self, images) -> "TruncatedSeries2":
        """Substitute (z1, z2) -> images, a pair of series.
        Both images need zero constant term; otherwise the substitution is
        not continuous and NonLocalSubstitution is raised.

        Each power of the two images is built once, and the terms are
        summed into one dict."""
        g1, g2 = images
        if g1.constant_term() != 0 or g2.constant_term() != 0:
            raise NonLocalSubstitution(
                "substitution images must vanish at the origin"
            )
        n = min(self.precision, g1.precision, g2.precision)
        pow_1 = [TruncatedSeries2.constant(1, n)]
        pow_2 = pow_1[:]
        out: dict = {}
        for (i, j), c in sorted(self.truncate(n).coeff.items()):
            while len(pow_1) <= i:
                pow_1.append(pow_1[-1] * g1)
            while len(pow_2) <= j:
                pow_2.append(pow_2[-1] * g2)
            for e, v in (pow_1[i] * pow_2[j]).coeff.items():
                out[e] = out.get(e, 0) + c * v
        return TruncatedSeries2(out, n)

    def partial_derivative(self, variable: int) -> "TruncatedSeries2":
        """Term-wise d/dz1 or d/dz2; precision drops by one."""
        if variable not in (1, 2):
            raise ValueError("variable index must be 1 or 2")
        out = {}
        for (i, j), c in self.coeff.items():
            if variable == 1 and i > 0:
                out[(i - 1, j)] = c * i
            elif variable == 2 and j > 0:
                out[(i, j - 1)] = c * j
        return TruncatedSeries2(out, max(self.precision - 1, 0))

    def exact_divide(self, b: "TruncatedSeries2") -> "TruncatedSeries2":
        """Quotient q with b*q == self up to precision, if one exists.

        The result precision is N - order(b): dividing eats that much
        certainty.  Raises NotDivisible when no such q exists at the
        working precision.
        """
        if b.is_zero():
            raise NotDivisible("division by a series that is zero to precision")
        m = b.order()
        n = min(self.precision, b.precision)
        if self.is_zero():
            return TruncatedSeries2.zero(max(n - m, 0))
        if self.order() < m:
            raise NotDivisible("dividend has smaller order than divisor")
        # solve coefficientwise in graded order against a pivot, a
        # minimal-degree term of b
        q_prec = n - m
        pe = min(b.coeff, key=lambda e: (e[0] + e[1], e))
        pc = b.coeff[pe]
        quot: dict = {}
        rem = dict(self.truncate(n).coeff)
        # repeatedly cancel the least term of the remainder
        while rem:
            e = min(rem, key=lambda x: (x[0] + x[1], x))
            c = rem.pop(e)
            qe = (e[0] - pe[0], e[1] - pe[1])
            if qe[0] < 0 or qe[1] < 0:
                raise NotDivisible("no quotient exists at working precision")
            if qe[0] + qe[1] > q_prec:
                # cancellation beyond quotient precision: unknowable terms
                continue
            qc = c / pc
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            for be, bc in b.coeff.items():
                if be == pe:
                    continue
                te = (qe[0] + be[0], qe[1] + be[1])
                if te[0] + te[1] > n:
                    continue
                rem[te] = rem.get(te, Fraction(0)) - qc * bc
                if rem[te] == 0:
                    del rem[te]
        q = TruncatedSeries2(quot, q_prec)
        if not (q * b == self.truncate(min(n, q_prec + m))):
            raise NotDivisible("no quotient exists at working precision")
        return q

    # -- display -------------------------------------------------------

    def __repr__(self):
        if not self.coeff:
            return f"O(deg>{self.precision})"
        parts = []
        for (i, j), c in sorted(self.coeff.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
            mono = "".join(
                f"*{v}^{e}" if e > 1 else (f"*{v}" if e == 1 else "")
                for v, e in (("z1", i), ("z2", j))
            )
            parts.append(f"{c}{mono}")
        return " + ".join(parts) + f" + O(deg>{self.precision})"
