"""Exact arithmetic in Q(sqrt(d), i).

Every eigenvalue datum the surface bookkeeping needs (quadratic units such
as (3+sqrt(5))/2, roots of unity, unit-modulus Gaussian rationals) lives in
a field Q(sqrt(d))[i].  An element is stored as

    a + b*sqrt(d) + i*(c + e*sqrt(d)),   a, b, c, e in Q,

with d a squarefree integer > 1.  Elements with b = e = 0 are field-agnostic
and combine with anything; otherwise both operands must carry the same d
(FieldMismatch).  Comparisons are defined for real elements only and are
decided exactly by the sign of a + b*sqrt(d), which one comparison of a^2
with b^2*d settles: `<` is that test, and
total_ordering derives `<=`, `>` and `>=` from it and `==`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import FieldMismatch
from .polys import rat, square_part


@lru_cache(maxsize=128)
def _is_squarefree(d: int) -> bool:
    # memoized: arithmetic results carry their operands' d, and each check
    # trial-divides d
    return square_part(d)[0] == 1


def _normalize_d(d):
    if d is None:
        return None
    if type(d) is not int:
        raise TypeError(f"discriminant must be an integer, got {d!r}")
    if d <= 1 or not _is_squarefree(d):
        raise ValueError("discriminant must be a squarefree integer > 1")
    return d


@total_ordering
class Surd:
    __slots__ = ("a", "b", "c", "e", "d")

    def __init__(self, a=0, b=0, c=0, e=0, d=None):
        self.a = rat(a)
        self.b = rat(b)
        self.c = rat(c)
        self.e = rat(e)
        if self.b == 0 and self.e == 0:
            d = None
        elif d is None:
            raise ValueError("sqrt coefficient present but no discriminant given")
        self.d = _normalize_d(d)

    # -- constructors --------------------------------------------------

    @classmethod
    def rational(cls, q) -> "Surd":
        return cls(a=q)

    @classmethod
    def sqrt_term(cls, d: int, a=0, b=1) -> "Surd":
        """a + b*sqrt(d)."""
        return cls(a=a, b=b, d=d)

    # -- structure ------------------------------------------------------

    def _join(self, other) -> int | None:
        if self.d is None:
            return other.d
        if other.d is None:
            return self.d
        if self.d != other.d:
            raise FieldMismatch(
                f"cannot mix sqrt({self.d}) and sqrt({other.d}) values"
            )
        return self.d

    @staticmethod
    def _coerce(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Fraction)):
            return Surd(a=x)
        raise TypeError(f"cannot interpret {x!r} as an exact field element")

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0

    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0 and self.e == 0

    def is_real(self) -> bool:
        return self.c == 0 and self.e == 0

    def conjugate(self) -> "Surd":
        """Complex conjugation (i -> -i); fixes sqrt(d)."""
        return Surd(a=self.a, b=self.b, c=-self.c, e=-self.e, d=self.d)

    def norm_squared(self) -> "Surd":
        """|z|^2 = z * conj(z); a real element of Q(sqrt(d))."""
        return self * self.conjugate()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Surd":
        other = self._coerce(other)
        d = self._join(other)
        return Surd(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.e + other.e, d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, -self.c, -self.e, self.d)

    def __sub__(self, other) -> "Surd":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Surd":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "Surd":
        other = self._coerce(other)
        d = self._join(other)
        dq = Fraction(d) if d is not None else Fraction(0)
        # split into real/imag pairs over Q(sqrt d): (x1 + x2 sqrt d)
        ar, br, ai, bi = self.a, self.b, self.c, self.e
        cr, dr, ci, di = other.a, other.b, other.c, other.e

        def mul2(p, q, r, s):
            # (p + q sqrt d)(r + s sqrt d)
            return (p * r + q * s * dq, p * s + q * r)

        rr = mul2(ar, br, cr, dr)
        ii = mul2(ai, bi, ci, di)
        ri = mul2(ar, br, ci, di)
        ir = mul2(ai, bi, cr, dr)
        return Surd(rr[0] - ii[0], rr[1] - ii[1],
                    ri[0] + ir[0], ri[1] + ir[1], d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # 1/z = conj(z) / |z|^2 with |z|^2 = x + y sqrt(d) real; then
        # rationalize by (x - y sqrt d)
        n = self.norm_squared()
        x, y = n.a, n.b
        # x + y sqrt(d) = |z|^2 > 0, so its norm x^2 - y^2 d is nonzero
        dq = Fraction(self.d) if self.d is not None else Fraction(0)
        denom = x * x - y * y * dq
        inv_norm = Surd(a=x / denom, b=-y / denom, d=self.d if y else None)
        return self.conjugate() * inv_norm

    def __truediv__(self, other) -> "Surd":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "Surd":
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Surd":
        if k < 0:
            return self.inverse() ** (-k)
        result = Surd(a=1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- order structure (real elements) -----------------------------------

    def sign(self) -> int:
        """Exact sign of a real element a + b*sqrt(d)."""
        if not self.is_real():
            raise ValueError("sign of a non-real value")
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        # a^2 != b^2 d, or d = (a/b)^2 would be a square: the larger term wins
        s = a if a * a > b * b * self.d else b
        return 1 if s > 0 else -1

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.d is not None and other.d is not None and self.d != other.d:
            # distinct squarefree discriminants share only the rationals,
            # and purely rational values carry d = None
            return False
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.e == other.e)

    def __hash__(self):
        # a rational Surd equals its value a, so it hashes as a
        if self.is_rational():
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.e, self.d))

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __abs__(self) -> "Surd":
        return self if self.sign() >= 0 else -self

    # -- display -----------------------------------------------------------

    def __repr__(self):
        """a + b*sqrt(d) + c*i + e*i*sqrt(d) without its zero components,
        each later one written with its own sign: 12 - 8*sqrt(2)."""
        text = ""
        for value, unit in ((self.a, ""), (self.b, f"*sqrt({self.d})"),
                            (self.c, "*i"), (self.e, f"*i*sqrt({self.d})")):
            if value and text:
                text += f" {'-' if value < 0 else '+'} {abs(value)}{unit}"
            elif value:
                text = f"{value}{unit}"
        return text or "0"

    def to_json(self):
        """Stable serializable form."""
        out = {"a": str(self.a)}
        if self.b:
            out["b"] = str(self.b)
        if self.c:
            out["c"] = str(self.c)
        if self.e:
            out["e"] = str(self.e)
        if self.d is not None:
            out["d"] = self.d
        return out
