"""Exact polynomials in z1, z2 with rational coefficients.

Poly2 is the one exact polynomial type, for germ decomposition, the
elimination oracle and the spectral data of the surface layer (a
resultant or characteristic polynomial is a Poly2 in one variable): an
integer numerator, a plain dict {(i, j): int} of the nonzero coefficients
of z1^i z2^j, over one positive integer denominator, in lowest terms.
Its arithmetic (sums, products, powers, derivatives, exact quotients and
normalization) runs on that dict with no CAS object built.  Its repr is
the one writer of polynomial text, in the scenario syntax that
parsing.parse_expression reads back (polys writes, parsing reads);
reports and error messages print it.  The products, exact division and
composition pack monomials z1^i z2^j into one int key i*S + j: exact
division is one lex-ordered pass or, by a one-term divisor, one exponent
shift (`_exquo_zz`), and composition, and with it iterates, shears and
translations (`_compose_ring`), with a degree cap N keeps only the terms
below degree N.  PolynomialMap
owns iteration: the germ engine and the oracle read its one chain of exact
iterates, up to the degree bound MAX_ITERATE_DEGREE and up to
n = MAX_ITERATE_N.  A map that fixes the origin keeps beside it one
capped chain of jets per order N, whose jets of f^n cost one small
composition per step whatever deg f^n is (`fixed_jets`, the oracle's
order-4 rung), and answers whether the origin is a simple fixed point of
f^n from Df(0)^n on integers, composing nothing (`simple_at_origin`, the
one test of det(Df^n(0) - I) != 0, read by the engine and the oracle).

This module is the one boundary to the computer-algebra system.  Besides
that arithmetic, the heavy steps (bivariate gcd, irreducible
factorization over Q, resultants, the z2 = 0 level test of the
elimination oracle (a univariate gcd), real-root isolation,
characteristic polynomials, traces of matrix powers and the square part
of an integer) are delegated to sympy at the ring level: a coefficient
dict, dense list or matrix goes straight into sympy's sparse ring, dense
routines or domain matrix and back, without building symbolic expression
trees.  An element of the bivariate ring Z[z1, z2] is built by one
converter (`_ring2`), only at the calls where sympy does the mathematics
(the gcd after the certificate below, the bivariate factorization, the
wide-slot resultant and the z2 = 0 gcd), and each coefficient that comes
back is read with int() (`_from_ring`).  A binary form (a curve factor
made of lines through the origin, such as z1^2 z2) is factored as the
polynomial p(t, 1) in one variable (`_binary_form_factors`), whose
factors, made homogeneous again, are sorted by the bivariate
factorizer's own key, so both routes give the same list in the same
order.  A resultant in z1 is, up to a measured size, one univariate
resultant over ZZ on Kronecker-packed integers (`_resultant_zz`).  Both
gcd questions first try a certificate mod the prime 2**61 - 1
(`proved_coprime`, `_unit_gcd_mod_p`, Euclid on plain ints): a gcd 1 mod
a prime that divides neither leading coefficient proves a pair coprime,
and sympy's gcd runs only when the certificate gives no verdict; the
oracle's tangent-cone rung reads the certificate alone
(`proved_coprime`), on two lowest forms (`Poly2.lowest_form`).  Every
call on bivariate data runs over ZZ on the integer numerator; the one
denominator is divided out only where a coefficient is read as a
Fraction.  Callers outside this module read the numerator's terms
through `Poly2.numerator_terms` (the fraction-free intersection number
does).
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from types import MappingProxyType

from sympy import factorint, integer_nthroot, isprime
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_resultant
from sympy.polys.factortools import dup_factor_list
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from .errors import NotDivisible, PrecisionExhausted

_RING2 = ring("z1,z2", ZZ)[0]
_RING1Z = ring("t", ZZ)[0]

# The largest total degree an iterate f^n may be composed to.  remark42's
# f^8 has degree 256, and each doubling of the degree costs about 16 times
# the composition before it.
MAX_ITERATE_DEGREE = 256
# The largest n an iterate f^n may be composed for.  A map whose degree
# does not grow, such as (z1 + z2^2, z2), never meets the degree bound, and
# its chain keeps every iterate; this is ten times the deepest n = 100 the
# jet route aims at.
MAX_ITERATE_N = 1000


# the one rational literal of a document: a signed ASCII integer or p/q;
# Fraction alone also reads decimals, underscores and exponents (1e100000000)
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions to an exact rational; a boolean
    is not a number, and a string is an integer or p/q literal."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Poly2:
    """Exact polynomial in z1, z2 with rational coefficients: _num / _den,
    with _num a plain dict {(i, j): int} of the nonzero integer coefficients
    (never mutated once wrapped) and _den > 0 coprime to the content of
    _num, so each polynomial has one representation."""

    __slots__ = ("_num", "_den", "_coeff")

    def __init__(self, coeff):
        coeff = {e: rat(c) for e, c in coeff.items()}
        # reduced fractions over their lcm are already in lowest terms
        den = lcm(*(c.denominator for c in coeff.values()))
        self._num = {e: c.numerator * (den // c.denominator)
                     for e, c in coeff.items() if c}
        self._den = den
        self._coeff = None

    @classmethod
    def _new(cls, num: dict, den: int = 1) -> "Poly2":
        """num / den for a dict num of nonzero integer coefficients, which
        the result keeps, and an integer den > 0."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num, den = {e: c // g for e, c in num.items()}, den // g
        p = object.__new__(cls)
        p._num, p._den, p._coeff = num, den, None
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value) -> "Poly2":
        return cls({(0, 0): value})

    @classmethod
    def variable(cls, index: int) -> "Poly2":
        if index not in (1, 2):
            raise ValueError("variable index must be 1 or 2")
        return cls({(1, 0) if index == 1 else (0, 1): Fraction(1)})

    @classmethod
    def from_terms(cls, terms) -> "Poly2":
        return cls({tuple(e): c for e, c in terms.items()})

    # -- queries ----------------------------------------------------------

    @property
    def coeff(self):
        """Read-only map {(i, j): Fraction} of the nonzero coefficients,
        built on first use."""
        if self._coeff is None:
            den = self._den
            self._coeff = MappingProxyType(
                {e: Fraction(c, den) for e, c in self._num.items()})
        return self._coeff

    def numerator_terms(self):
        """((i, j), integer coefficient) pairs of den * self: the smallest
        positive integer multiple of self with integer coefficients."""
        return self._num.items()

    def __getitem__(self, exps) -> Fraction:
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return _is_ground(self._num)

    def constant_term(self) -> Fraction:
        return self[(0, 0)]

    def vanishes_at_origin(self) -> bool:
        return (0, 0) not in self._num

    def total_degree(self) -> int:
        return max((i + j for i, j in self._num), default=-1)

    def order(self) -> int:
        """Least total degree of a term; raises on the zero polynomial."""
        if not self._num:
            raise ValueError("zero polynomial has no order")
        return min(i + j for i, j in self._num)

    def z1_order(self) -> int:
        if not self._num:
            raise ValueError("zero polynomial has no order")
        return min(i for i, _ in self._num)

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex largest term; raises on zero."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        return self[max(self._num, key=lambda e: (e[0] + e[1], e))]

    def linear_part(self) -> tuple[Fraction, Fraction]:
        """Coefficients of (z1, z2) in the degree-1 part."""
        return (self[(1, 0)], self[(0, 1)])

    def truncated(self, N: int) -> "Poly2":
        """The jet below degree N: the terms of total degree below N."""
        return Poly2._new({e: c for e, c in self._num.items() if e[0] + e[1] < N},
                          self._den)

    def lowest_form(self) -> "Poly2":
        """The terms of least total degree, a form of degree order();
        raises on the zero polynomial."""
        d = self.order()
        return Poly2._new({e: c for e, c in self._num.items() if e[0] + e[1] == d},
                          self._den)

    def __eq__(self, other):
        try:
            other = _operand(other)
        except TypeError:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        if _is_ground(self._num):
            return hash(self.constant_term())
        return hash((self._den, frozenset(self._num.items())))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Poly2":
        other = _operand(other)
        a, b = self._den, other._den
        if a == b:
            return Poly2._new(_sum(self._num, other._num), a)
        m = lcm(a, b)
        return Poly2._new(_sum(_scaled(self._num, m // a), _scaled(other._num, m // b)), m)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2._new({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "Poly2":
        return self + (-_operand(other))

    def __rsub__(self, other) -> "Poly2":
        return (-self) + other

    def __mul__(self, other) -> "Poly2":
        other = _operand(other)
        # a constant factor (a linear factor's derivative) is a scalar
        if _is_ground(other._num):
            return Poly2._new(_scaled(self._num, other._num.get((0, 0), 0)),
                              self._den * other._den)
        if _is_ground(self._num):
            return other * self
        a, b = self._num, other._num
        S = 1 + _z2_degree(a) + _z2_degree(b)
        return Poly2._new(_unpacked(_mul_packed(_packed(a, S), _packed(b, S)), S),
                          self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly2":
        if not isinstance(k, int):
            raise TypeError(f"exponent must be an integer, got {k}")
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return Poly2.constant(1)
        # content(p**k) = content(p)**k, so lowest terms carry over
        S = 1 + k * _z2_degree(self._num)
        powers = [{0: 1}, _packed(self._num, S)]
        return Poly2._new(_unpacked(_power(powers, k, _uncut), S), self._den**k)

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
        out = _compose([self] if partner is None else [self, partner], im1, im2)
        return out[0] if partner is None else tuple(out)

    def derivative(self, index: int) -> "Poly2":
        if index == 1:
            num = {(i - 1, j): c * i for (i, j), c in self._num.items() if i}
        elif index == 2:
            num = {(i, j - 1): c * j for (i, j), c in self._num.items() if j}
        else:
            raise ValueError("variable index must be 1 or 2")
        return Poly2._new(num, self._den)

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

    # -- division and normalization ----------------------------------------

    def exact_div(self, b: "Poly2") -> "Poly2":
        """Exact quotient self / b; raises NotDivisible if it does not divide.
        With b = content * B / den for a primitive B, B divides the numerator
        of self over ZZ exactly when b divides self over Q (Gauss).  An int
        or Fraction b is a constant."""
        b = _operand(b)
        if b.is_zero():
            raise NotDivisible("division by the zero polynomial")
        B, content = b._num, gcd(*b._num.values())
        if content != 1:
            B = {e: c // content for e, c in B.items()}
        return Poly2._new(_scaled(_exquo_zz(self._num, B), b._den), self._den * content)

    def divides(self, other: "Poly2") -> bool:
        try:
            _operand(other).exact_div(self)
            return True
        except NotDivisible:
            return False

    def normalized(self) -> "Poly2":
        """Canonical scalar multiple: integer, content 1, graded-lex
        leading coefficient positive.  Used to compare branch factors.  An
        integer polynomial of content 1 (a factor of factor_list2) is
        normalized up to its sign: it is returned itself, or negated."""
        if self.is_zero():
            return self
        p = self
        content = gcd(*self._num.values())
        if self._den != 1 or content != 1:
            p = Poly2._new({e: c // content for e, c in self._num.items()})
        return -p if p.leading_coefficient() < 0 else p

    def __repr__(self):
        """The scenario syntax, which parsing.parse_expression reads back:
        terms by falling total degree, then by rising power of z1, each with
        its sign, and a unit coefficient left out of a nonconstant term."""
        if not self._num:
            return "0"
        text = ""
        for (i, j), c in sorted(self.coeff.items(),
                                key=lambda t: (-sum(t[0]), t[0])):
            factors = [] if abs(c) == 1 and (i or j) else [str(abs(c))]
            factors += [v if e == 1 else f"{v}^{e}"
                        for v, e in (("z1", i), ("z2", j)) if e]
            if text:
                text += " - " if c < 0 else " + "
            elif c < 0:
                text = "-"
            text += "*".join(factors)
        return text


# -- integer numerators: dicts {(i, j): int} of the nonzero coefficients ------


def _operand(x) -> Poly2:
    """An arithmetic operand as a Poly2: an int or Fraction is a constant;
    anything else that is not a Poly2 (a float, a string, a boolean) raises
    TypeError, as rat does."""
    if isinstance(x, Poly2):
        return x
    if type(x) is int or isinstance(x, Fraction):
        return Poly2._new({(0, 0): x.numerator} if x else {}, x.denominator)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _is_ground(num: dict) -> bool:
    return not num or (len(num) == 1 and (0, 0) in num)


def _sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        c += out.get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _scaled(num: dict, s: int) -> dict:
    """s * num for an integer s."""
    if s == 1:
        return num
    return {e: c * s for e, c in num.items()} if s else {}


def _z2_degree(num: dict) -> int:
    return max((j for _, j in num), default=0)


def _packed(num: dict, S: int) -> dict:
    """num on packed monomial keys i*S + j (see _compose_ring), for S above
    every z2-degree that num or a product built from it reaches."""
    return {i * S + j: c for (i, j), c in num.items()}


def _unpacked(d: dict, S: int) -> dict:
    """The nonzero terms of d, a dict on packed keys, back on (i, j) keys."""
    return {divmod(k, S): c for k, c in d.items() if c}


def _uncut(d: dict) -> dict:
    return d


# -- the computer-algebra boundary (sympy, ring level) ------------------------


def _ring2(num: dict):
    """num as an element of sympy's ring Z[z1, z2]: the one way into the
    bivariate routines of the CAS, built only for a call that needs them."""
    return _RING2(num)


def _from_ring(r) -> dict:
    """The terms of a ring element over ZZ, each coefficient read with int()."""
    return {e: int(c) for e, c in r.items()}


def _fraction(c) -> Fraction:
    return Fraction(c.numerator, c.denominator)


def _qq(c):
    return QQ(c.numerator, c.denominator)


def _to_zz2(p: Poly2, dx: int, dy: int):
    """(P, D): the integer numerator dict P = D * p(z1/dx, z2/dy) and D > 0.
    D = den * dx**I * dy**J, with I, J the degrees of p in z1 and z2, so the
    numerator coefficient c of z1^i z2^j becomes c * dx**(I-i) * dy**(J-j)."""
    if dx == dy == 1:
        return p._num, p._den
    I = max((i for i, _ in p._num), default=0)
    J = max((j for _, j in p._num), default=0)
    P = {(i, j): c * dx**(I - i) * dy**(J - j) for (i, j), c in p._num.items()}
    return P, p._den * dx**I * dy**J


def _compose(polys: list, im1: Poly2, im2: Poly2, cap: int | None = None) -> list:
    """Each of polys with z1 -> im1, z2 -> im2, as Poly2.compose does; with a
    cap N, each result's jet below degree N, for im1 and im2 that vanish at
    the origin (see _compose_ring)."""
    dx, dy = im1._den, im2._den
    outers = [_to_zz2(p, dx, dy) for p in polys]
    return [Poly2._new(r, D) for r, (_, D) in
            zip(_compose_ring([P for P, _ in outers], im1._num, im2._num, cap), outers)]


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of two polynomials on packed monomial keys (see
    _compose_ring), term by term, the zero terms dropped."""
    out = {}
    get = out.get
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _square_packed(a: dict) -> dict:
    """a * a on packed monomial keys, each cross product taken once and
    doubled, the zero terms dropped."""
    items = list(a.items())
    out = {}
    get = out.get
    for n, (k1, v1) in enumerate(items):
        for k2, v2 in items[:n]:
            k = k1 + k2
            out[k] = get(k, 0) + v1 * v2
    out = {k: 2 * v for k, v in out.items()}
    get = out.get
    for k, v in items:
        out[2 * k] = get(2 * k, 0) + v * v
    return {k: v for k, v in out.items() if v}


def _power(powers: list, k: int, cut) -> dict:
    """powers[k], extending the table [1, base, base**2, ...] as needed;
    each new power passes through cut."""
    while len(powers) <= k:
        n = len(powers)
        powers.append(cut(_square_packed(powers[n // 2]) if n % 2 == 0
                          else _mul_packed(powers[n - 1], powers[1])))
    return powers[k]


def _compose_ring(outers: list, x, y, cap: int | None = None) -> list:
    """Each outer with z1 -> x, z2 -> y, all integer numerator dicts; with
    a cap N, only the terms of total degree below N of each result.

    The powers of x and y are built once, and so is each product
    x**i * y**j, which is then added, scaled by its coefficient, straight
    into every outer that has the monomial, instead of recomputing g**k for
    every monomial.  A product is dropped once used, so the peak memory
    stays that of the powers and the results.

    The work runs on plain int coefficients keyed by packed monomials
    z1^a z2^b -> a*S + b, as in _exquo_zz: a product of monomials is a sum
    of keys, with no exponent tuple built.  S is one more than the largest
    z2-degree any power, product or result can reach (i*deg_z2 x +
    j*deg_z2 y over the outers' monomials z1^i z2^j), so no key carries
    into the next z1-degree.  Each coefficient stays a separate integer.

    The cap needs x and y without constant terms.  Then x**i * y**j lies
    in m**(i + j), m the maximal ideal at the origin, so an outer monomial
    with i + j >= N is skipped, and each power and product is cut below
    degree N as it is built: a term cut from a factor only feeds terms of
    degree N or more.  With no cap nothing is cut, and no term is tested.
    """
    if cap is None:
        cut = _uncut
    else:
        outers = [{e: c for e, c in outer.items() if e[0] + e[1] < cap}
                  for outer in outers]

        def cut(d):
            return {k: v for k, v in d.items() if k // S + k % S < cap}
    dx = max((j for _, j in x), default=0)
    dy = max((j for _, j in y), default=0)
    S = 1 + max([dx, dy] + [i * dx + j * dy for outer in outers for i, j in outer])
    pow_x = [{0: 1}, cut({i * S + j: c for (i, j), c in x.items()})]
    pow_y = [{0: 1}, cut({i * S + j: c for (i, j), c in y.items()})]
    out = [{} for _ in outers]
    for i, j in sorted(set().union(*outers)):
        if j == 0:
            term = _power(pow_x, i, cut)
        elif i == 0:
            term = _power(pow_y, j, cut)
        else:
            term = cut(_mul_packed(_power(pow_x, i, cut), _power(pow_y, j, cut)))
        for outer, acc in zip(outers, out):
            c = outer.get((i, j))
            if c is None:
                continue
            get = acc.get
            for m, v in term.items():
                acc[m] = get(m, 0) + c * v
    return [_unpacked(acc, S) for acc in out]


def _exquo_zz(r, b) -> dict:
    """{monomial: coefficient} of r / b for integer numerator dicts, with b
    primitive and nonzero, in one pass in lex order (z1 before z2).

    A one-term b = c z1^k z2^l is one exponent shift: each term of r must
    have exponents at least (k, l) and a coefficient divisible by c.
    Otherwise a max-heap holds the monomials of the remainder r - q*b, and
    each step cancels its largest term with the leading term of b.  If
    r = q*b, that term's monomial is a multiple of b's leading monomial, its
    coefficient a multiple of b's leading coefficient (the quotient of a
    primitive b is integral, by Gauss's lemma), and the quotient term has
    z2-degree at most deg_z2 r - deg_z2 b; the first step that breaks one
    of these raises NotDivisible.  A monomial (i, j) is packed as i*S + j with S > deg_z2 r,
    which keeps lex order and turns a product of monomials into a sum."""
    if not r:
        return {}
    if len(b) == 1:
        ((k, l), c), = b.items()
        q = {}
        for (i, j), v in r.items():
            d, m = divmod(v, c)
            if m or i < k or j < l:
                raise NotDivisible("polynomial does not divide exactly")
            q[i - k, j - l] = d
        return q
    S = max(j for _, j in r) + 1
    (li, lj), lc = max(b.items())
    top = lj + S - 1 - max(j for _, j in b)  # largest j of a leading monomial
    lead = li * S + lj
    tail = [(i * S + j, c) for (i, j), c in b.items() if (i, j) != (li, lj)]
    rem = {i * S + j: c for (i, j), c in r.items()}
    heap = [-k for k in rem]
    heapify(heap)
    q = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        i, j = divmod(k, S)
        d, m = divmod(c, lc)
        if m or i < li or not lj <= j <= top:
            raise NotDivisible("polynomial does not divide exactly")
        k -= lead
        q[divmod(k, S)] = d
        for e, bc in tail:
            e += k
            old = rem.get(e)
            if old is None:
                rem[e] = -d * bc
                heappush(heap, -e)
            else:
                rem[e] = old - d * bc
    return q


class PolynomialMap:
    """A polynomial self-map f = (p1, p2) of the affine plane.  It holds
    the chain of its iterates composed so far, so each new n costs one
    composition, beside one chain of jets per order N for a map that fixes
    the origin, and its localizations at the points asked for so far.
    A polynomial germ is built on one (`MapGerm.map`)."""

    __slots__ = ("p1", "p2", "_iterates", "_jets", "_localized")

    def __init__(self, p1: Poly2, p2: Poly2):
        self.p1 = p1
        self.p2 = p2
        self._iterates = []  # f^2, f^3, ...; f itself is left out: no cycle
        self._jets: dict = {}  # N -> [J(f), J(f^2), ...], J the jet below N
        self._localized: dict = {}

    def localized(self, point) -> "PolynomialMap":
        """The map conjugated to `point`: z -> f(z + point) - point, built
        once per point.  Its iterates are f's conjugated the same way, so
        its fixed system is f's translated by `point`, composed from a map
        of f's own degree instead of translating f^n.  At the origin it is
        the map itself, with its chain."""
        a, b = rat(point[0]), rat(point[1])
        if a == 0 and b == 0:
            return self
        local = self._localized.get((a, b))
        if local is None:
            local = PolynomialMap(self.p1.translate(a, b) - Poly2.constant(a),
                                  self.p2.translate(a, b) - Poly2.constant(b))
            self._localized[(a, b)] = local
        return local

    def fixes_origin(self) -> bool:
        """Do both images vanish at the origin?"""
        return self.p1.vanishes_at_origin() and self.p2.vanishes_at_origin()

    def iterate(self, n: int) -> "PolynomialMap":
        """f^n for n >= 1, f^k = f o f^(k-1), from the chain.

        An n above MAX_ITERATE_N raises PrecisionExhausted before anything
        is composed, and so does an iterate that may pass MAX_ITERATE_DEGREE.
        From the last iterate composed, the degrees (d1, d2) of each f^k
        still to compose are bounded by the recurrence that takes an image's
        degree to its largest i * d1 + j * d2 over its monomials z1^i z2^j."""
        _check_iterate_n(n)
        chain = self._iterates
        if len(chain) < n - 1:
            last = chain[-1] if chain else self
            d1, d2 = last.p1.total_degree(), last.p2.total_degree()
            for k in range(len(chain) + 2, n + 1):
                d1, d2 = [max((i * d1 + j * d2 for i, j in p._num), default=0)
                          for p in (self.p1, self.p2)]
                if max(d1, d2) > MAX_ITERATE_DEGREE:
                    raise PrecisionExhausted(
                        f"f^{n} is out of reach: f^{k} may reach degree "
                        f"{max(d1, d2)}, above the bound {MAX_ITERATE_DEGREE}")
        while len(chain) < n - 1:
            last = chain[-1] if chain else self
            chain.append(PolynomialMap(
                *self.p1.compose(last.p1, last.p2, partner=self.p2)))
        return chain[n - 2] if n > 1 else self

    def fixed_system(self, n: int = 1) -> tuple[Poly2, Poly2]:
        """The differences f^n(z) - z of f^n's images and coordinates."""
        fn = self.iterate(n)
        return _minus_monomial(fn.p1, (1, 0)), _minus_monomial(fn.p2, (0, 1))

    def fixed_jets(self, n: int, N: int) -> tuple[Poly2, Poly2]:
        """The jets below degree N (the terms of total degree below N) of
        fixed_system(n), for a map that fixes the origin.

        They come from the chain J(f^k) = J(J(f) o J(f^(k-1))), J the jet
        below N, one capped composition per step: f^(k-1) vanishes at the
        origin, so terms of degree N or more, in f or in f^(k-1), only feed
        terms of degree N or more of f^k.  Every jet has degree below N, so
        no degree bound applies; an n above MAX_ITERATE_N raises
        PrecisionExhausted, and a map that moves the origin ValueError."""
        _check_iterate_n(n)
        if not self.fixes_origin():
            raise ValueError("jets of iterates need a map that fixes the origin")
        chain = self._jets.get(N)
        if chain is None:
            chain = self._jets[N] = [(self.p1.truncated(N), self.p2.truncated(N))]
        while len(chain) < n:
            chain.append(tuple(_compose(list(chain[0]), *chain[-1], cap=N)))
        j1, j2 = chain[n - 1]
        return (_minus_monomial(j1, (1, 0)).truncated(N),
                _minus_monomial(j2, (0, 1)).truncated(N))

    def simple_at_origin(self, n: int) -> bool:
        """Is the origin a simple fixed point of f^n, det(Df^n(0) - I) != 0,
        for a map that fixes the origin?

        By the chain rule Df^n(0) = A^n, A = Df(0), so nothing is composed.
        With A = M / den, den the lcm of the images' denominators and M an
        integer matrix, the test is det(M^n - den^n I) != 0, on plain
        integers.  n is bounded as for iterate, and a map that moves the
        origin raises ValueError."""
        _check_iterate_n(n)
        if not self.fixes_origin():
            raise ValueError("Df^n(0) needs a map that fixes the origin")
        den = lcm(self.p1._den, self.p2._den)
        (a, b), (c, d) = ((im._num.get((1, 0), 0) * (den // im._den),
                           im._num.get((0, 1), 0) * (den // im._den))
                          for im in (self.p1, self.p2))
        p, q, r, s = a, b, c, d
        for _ in range(n - 1):
            p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        e = den**n
        return (p - e) * (s - e) != q * r

    def __repr__(self):
        return f"PolynomialMap({self.p1!r}, {self.p2!r})"


def _check_iterate_n(n: int) -> None:
    if n < 1:
        raise ValueError("iterate needs n >= 1")
    if n > MAX_ITERATE_N:
        raise PrecisionExhausted(
            f"f^{n} is out of reach: n is above the bound {MAX_ITERATE_N}")


def _minus_monomial(p: Poly2, e: tuple) -> Poly2:
    """p - z^e: a copy of p's numerator with its e coefficient lowered by
    the denominator.  gcd(den, c - den) = gcd(den, c), so lowest terms
    carry over."""
    num = dict(p._num)
    c = num.get(e, 0) - p._den
    if c:
        num[e] = c
    else:
        del num[e]
    return Poly2._new(num, p._den)


def gcd2(a: Poly2, b: Poly2) -> Poly2:
    """Polynomial gcd over Q, normalized (zero when both inputs are zero).

    A pair that proved_coprime certifies has gcd 1 with no further work.
    Otherwise the gcd of the integer numerators of a and b is a scalar
    multiple of the gcd over Q, and normalized() picks the same multiple
    of both."""
    if a._num and b._num and proved_coprime(a, b):
        return Poly2.constant(1)
    return Poly2._new(_from_ring(_ring2(a._num).gcd(_ring2(b._num)))).normalized()


# The prime of the coprimality certificate (2**61 - 1, a Mersenne prime) and
# the values the other variable is set to, tried in turn until neither
# leading coefficient vanishes mod _PRIME.  They are far from the small
# integer coordinates of the fixed points that make a difference pair share
# a root on a line.
_PRIME = 2**61 - 1
_EVAL_POINTS = (65537, 65539, 65543, 65551)


def _unit_gcd_mod_p(f: list, g: list) -> bool:
    """Is gcd(f, g) = 1 over GF(_PRIME), for dense lists over ZZ reduced
    mod _PRIME, leading coefficient first, neither leading entry zero?

    A gcd taken mod a prime that divides neither leading coefficient has
    at least the degree of the gcd over Q (W. S. Brown, J. ACM 18, 1971),
    so True proves f and g coprime over Q.  Plain Euclid on ints: each
    step divides by the remainder before it, whose leading coefficient is
    inverted mod _PRIME, until a remainder is zero (a gcd of positive
    degree) or a nonzero constant (gcd 1)."""
    p = _PRIME
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        inv = pow(g[0], -1, p)
        d = len(g) - 1
        r = list(f)
        for k in range(len(r) - d):
            q = r[k] * inv % p
            if q:
                for t in range(1, d + 1):
                    r[k + t] = (r[k + t] - q * g[t]) % p
        r = r[len(r) - d:]
        k = 0
        while k < d and not r[k]:
            k += 1
        if k == d:
            return False
        f, g = g, r[k:]
    return True


def _specialize(P, keep: int, c: int) -> list:
    """P mod _PRIME with the variable other than z_(keep + 1) set to c: a
    dense list, leading coefficient first, of P's degree in z_(keep + 1)
    (its leading entry is the z_(keep + 1)-leading coefficient of P at c,
    which may vanish)."""
    deg = max(e[keep] for e in P)
    powers = [1]
    for _ in range(max(e[1 - keep] for e in P)):
        powers.append(powers[-1] * c % _PRIME)
    out = [0] * (deg + 1)
    for e, v in P.items():
        out[deg - e[keep]] += v * powers[e[1 - keep]]
    return [v % _PRIME for v in out]


def proved_coprime(a: Poly2, b: Poly2) -> bool:
    """A certificate that nonzero a and b share no nonconstant factor.

    For each variable in turn the other is set to the first c of
    _EVAL_POINTS at which neither leading coefficient in the kept variable
    vanishes mod _PRIME.  A common factor G of positive degree in the kept
    variable keeps that degree there (its leading coefficient divides
    theirs), and G(c) divides both specializations, so a gcd 1 mod _PRIME
    rules out such a G.  Both variables passing proves the gcd constant.
    False means no verdict: the pair may still be coprime."""
    for keep in (0, 1):
        for c in _EVAL_POINTS:
            f, g = _specialize(a._num, keep, c), _specialize(b._num, keep, c)
            if f[0] and g[0]:
                break
        else:
            return False
        if not _unit_gcd_mod_p(f, g):
            return False
    return True


def factor_list2(p: Poly2) -> tuple[Fraction, list[tuple[Poly2, int]]]:
    """Irreducible factorization over Q: (constant, [(factor, multiplicity)])
    with normalized factors and constant * prod(factor**multiplicity) == p.

    A binary form (every term of one total degree, monomials included) is
    factored as a polynomial in one variable (`_binary_form_factors`); any
    other p goes to sympy's bivariate factorizer.  Both routes list the
    factors in the bivariate factorizer's order."""
    if p.is_constant():
        return p.constant_term(), []
    degrees = {i + j for i, j in p._num}
    if len(degrees) == 1:
        out = _binary_form_factors(p._num, degrees.pop())
    else:
        # over ZZ the factors are primitive (Gauss), so normalized() only
        # fixes their sign; the constant is rebuilt from p below, not from
        # the content
        out = [(Poly2._new(_from_ring(f)).normalized(), int(m))
               for f, m in _ring2(p._num).factor_list()[1]]
    # graded-lex is a monomial order, so leading coefficients multiply
    lead = Fraction(1)
    for f, m in out:
        lead *= f.leading_coefficient() ** m
    return p.leading_coefficient() / lead, out


def _binary_form_factors(P, d: int) -> list[tuple[Poly2, int]]:
    """[(factor, multiplicity)] of a binary form P, an integer numerator
    dict of degree d, the
    factors normalized and in the order of sympy's bivariate factor_list.

    P = sum c_i z1^i z2^(d-i) is z2^d u(z1/z2) for u(t) = P(t, 1), so each
    irreducible factor g = sum g_i t^i of u, of degree k, gives the
    irreducible form sum g_i z1^i z2^(k-i), and z2 divides P d - deg u
    times.  sympy's factors of u are primitive with a positive leading
    coefficient, so each form is primitive with a positive coefficient of
    z1^k: normalized, and the very factor the bivariate factorizer returns.
    That factorizer sorts by (1 + deg_z1 f, multiplicity, the dense form of
    f), the dense form listing, from the top power of z1 down, the
    coefficient of that power as a dense list in z2 ([] for zero); the same
    key gives the same order."""
    deg_u = max(i for i, _ in P)
    u = [0] * (deg_u + 1)
    for (i, _), c in P.items():
        u[deg_u - i] = c
    keyed = []
    for g, m in dup_factor_list(u, ZZ)[1]:
        k = len(g) - 1  # g[s] is the coefficient of z1^(k-s) z2^s
        dense = [[c] + [0] * s if c else [] for s, c in enumerate(g)]
        form = {(k - s, s): int(c) for s, c in enumerate(g) if c}
        keyed.append(((k + 1, m, dense), Poly2._new(form)))
    if d > deg_u:
        keyed.append(((1, d - deg_u, [[1, 0]]), Poly2.variable(2)))
    keyed.sort(key=lambda t: t[0])
    return [(f, key[1]) for key, f in keyed]


def _z1_degree(p: Poly2) -> int:
    return max((i for i, _ in p._num), default=0)


# Largest slot width, in bits, that resultant_z1 packs.  Measured on the
# remark42 and Henon-like fixed-point systems at n = 4..6: packing ran
# 2-10x faster at b <= 505, broke even at b = 934 and ran 1.8-24x slower
# at b >= 1686.
_PACKED_BITS = 1024


def resultant_z1(f: Poly2, g: Poly2) -> Poly2:
    """Resultant eliminating z1; a polynomial in z2 alone.

    With f = F/a and g = G/b for integer F, G, the resultant is homogeneous
    of degree deg_z1 g in f and deg_z1 f in g, so Res(f, g) =
    Res(F, G) / (a**deg_z1 g * b**deg_z1 f)."""
    m, n = _z1_degree(f), _z1_degree(g)
    res = _resultant_zz(f._num, g._num, m, n)
    return Poly2._new({(0, k): c for k, c in res.items()}, f._den**n * g._den**m)


def _resultant_zz(F, G, m: int, n: int) -> dict:
    """{k: coefficient of z2^k} of Res_z1(F, G) for integer numerator dicts
    F, G of z1-degrees m and n.

    Kronecker substitution z2 = 2**b turns the elimination into one
    univariate resultant over ZZ, whose value Res(F, G)(2**b) is read back
    as balanced base-2**b digits.  Two bounds make this exact:

    - Goldstein-Graham: with S_P the sum over the z1-coefficients P_i of
      P of (sum of |coefficients of P_i|)**2, every coefficient of the
      resultant is at most (S_F**n * S_G**m)**(1/2) < 2**(b-2) in absolute
      value (the Sylvester matrix has n rows of F and m rows of G), so the
      digits are unique;
    - Cauchy: 2**b > 1 + max |coefficient of F, G| puts 2**b above every
      root of the z1-leading coefficients, so packing keeps both
      z1-degrees and the resultant specializes.

    Above _PACKED_BITS the packed integers make the univariate route the
    slower one, and sympy's bivariate subresultant route is taken."""
    if not F or not G:
        return {}
    rows_F, rows_G = _z1_rows(F, m), _z1_rows(G, n)
    bound = isqrt(_slot_norm(rows_F)**n * _slot_norm(rows_G)**m)
    top = max(abs(c) for P in (F, G) for c in P.values())
    b = max((bound + 1).bit_length(), top.bit_length()) + 2
    if b > _PACKED_BITS:
        return {k: int(c) for (k,), c in _ring2(F).resultant(_ring2(G)).items()}
    return _balanced_digits(
        dup_resultant(_pack(rows_F, b), _pack(rows_G, b), ZZ), b)


def _z1_rows(P, m: int) -> list:
    """[P_m, ..., P_0]: the z1-coefficients of P as {j: c} maps, top first."""
    rows = [{} for _ in range(m + 1)]
    for (i, j), c in P.items():
        rows[m - i][j] = c
    return rows


def _slot_norm(rows) -> int:
    return sum(sum(map(abs, row.values()))**2 for row in rows)


def _pack(rows, b: int) -> list:
    """Each row's polynomial in z2 evaluated at 2**b: a dense list over ZZ."""
    return [sum(c << (b * j) for j, c in row.items()) for row in rows]


def _balanced_digits(r: int, b: int) -> dict:
    """{k: d} with r = sum(d * 2**(b*k)) and -2**(b-1) <= d < 2**(b-1),
    the nonzero digits only."""
    half, mask = 1 << (b - 1), (1 << b) - 1
    out, k = {}, 0
    while r:
        d = r & mask
        if d >= half:
            d -= mask + 1
        if d:
            out[k] = d
        r = (r - d) >> b
        k += 1
    return out


def origin_alone_on_z2_zero(p: Poly2, q: Poly2) -> bool | None:
    """Is the origin the only common zero of p and q on the line z2 = 0?

    Read over ZZ from the numerators of p(z1, 0) and q(z1, 0).  None when the line is unusable for elimination:
    either restriction is zero, or the z1-leading coefficient of p
    vanishes at z2 = 0 (p(z1, 0) has lower degree than p in z1).
    Otherwise True when the gcd of the restrictions is a monomial, and
    False when they share a nonzero root.  With their
    powers of z1 divided out, a gcd 1 mod _PRIME proves True; the gcd over
    ZZ is taken only when that certificate gives no verdict."""
    u1 = {e: c for e, c in p._num.items() if e[1] == 0}
    u2 = {e: c for e, c in q._num.items() if e[1] == 0}
    if not u1 or not u2 or max(u1)[0] < _z1_degree(p):
        return None
    f, g = _without_z1_power(u1), _without_z1_power(u2)
    if f[0] and g[0] and _unit_gcd_mod_p(f, g):
        return True
    return len(_ring2(u1).gcd(_ring2(u2))) == 1


def _without_z1_power(u) -> list:
    """u / z1**ord(u) mod _PRIME as a dense list, leading coefficient first."""
    lo, hi = min(u)[0], max(u)[0]
    return [u.get((k, 0), 0) % _PRIME for k in range(hi, lo - 1, -1)]


def real_root_intervals(p: Poly2) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi) of the distinct real roots of p, a
    polynomial in z1 alone, in increasing order: (r, r) for a rational root
    r found exactly, otherwise exactly one root with lo < root < hi (an end
    may be another, rational, root).  Negative and positive roots are
    isolated apart, so no interval has lo < 0 < hi."""
    u = _RING1Z({(i,): c for (i, _), c in p._num.items()})
    return [(_fraction(lo), _fraction(hi))
            for (lo, hi), _ in _RING1Z.dup_isolate_real_roots(u)]


def _domain_matrix(M) -> DomainMatrix:
    n = len(M)
    return DomainMatrix([[_qq(rat(x)) for x in row] for row in M], (n, n), QQ)


def charpoly(M) -> Poly2:
    """det(z1 I - M) of a square matrix with rational entries, exactly."""
    coeffs = _domain_matrix(M).charpoly()
    return Poly2({(k, 0): _fraction(c) for k, c in enumerate(reversed(coeffs))})


def trace_of_power(M, n: int) -> Fraction:
    """tr(M^n) of a square matrix with rational entries, for n >= 0."""
    return _fraction(sum((_domain_matrix(M) ** n).diagonal(), QQ.zero))


_TRIAL_BOUND = 2**16


def square_part(m: int) -> tuple[int, int]:
    """(s, f) with m = s*s*f and f squarefree, for an integer m >= 1.

    sympy divides out the primes up to B = 2**16 (and spots perfect powers);
    a factor r > B it leaves is never split.  r < B**3 has at most two prime
    factors, so it is squarefree unless a perfect square; a larger r must be
    a prime or the square of one, else PrecisionExhausted is raised."""
    s = f = 1
    for q, k in factorint(m, limit=_TRIAL_BOUND, use_rho=False, use_pm1=False,
                          use_ecm=False).items():
        q, k = int(q), int(k)
        if q > _TRIAL_BOUND and not isprime(q):
            root, square = integer_nthroot(q, 2)
            if square and (q < _TRIAL_BOUND**3 or isprime(root)):
                q, k = int(root), 2 * k
            elif q >= _TRIAL_BOUND**3:
                raise PrecisionExhausted(
                    f"cannot decide whether {m} is squarefree: its factor {q} "
                    f"has no prime factor up to {_TRIAL_BOUND} and is too large "
                    "to certify without factoring")
        s *= q ** (k // 2)
        f *= q ** (k % 2)
    return s, f
