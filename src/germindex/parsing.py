"""Recursive-descent parser for polynomial expressions: the one reader of
the polynomial text that Poly2.__repr__ writes (polys writes, parsing
reads).

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('+' | '-') factor | power
    power   := atom ('^' INT)?
    atom    := RATIONAL | VAR | '(' expr ')'
    RATIONAL:= INT ('/' INT)?

Variables are z1 and z2.
Rational literals only; '/' is legal solely between integer literals.
No product or power may exceed total degree MAX_DEGREE, and a power is
also refused when the exponent times the bit length of the base's largest
coefficient numerator or denominator exceeds MAX_HEIGHT_BITS (a constant's
powers keep degree 0 but grow in height).  Each bound is checked before
the operation runs, so nested powers such as ((1+z1+z2)^32)^8 or
((3^128)^128)^128 are refused at once instead of expanded.  Parentheses
nest at most MAX_NESTING deep, which keeps the recursive descent well
inside Python's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .polys import Poly2

MAX_DEGREE = 128
MAX_HEIGHT_BITS = 4096
MAX_NESTING = 100

_TOKEN_CHARS = {"+", "-", "*", "^", "(", ")", "/"}


def _tokenize(text: str):
    tokens = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", i)
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", i, int(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", i, text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", len(text)))
    return tokens


_VARIABLES = {"z1": Poly2.variable(1), "z2": Poly2.variable(2)}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[1])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[0]!r}", tok[1])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            star = self.advance()
            rhs = self.factor()
            _bound_degree(value.total_degree() + rhs.total_degree(), star[1])
            value = value * rhs
        return value

    def factor(self):
        negate = False
        while self.peek()[0] in ("+", "-"):
            negate ^= self.advance()[0] == "-"
        value = self.power()
        return -value if negate else value

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            tok = self.advance()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 tok[1] if len(tok) > 1 else caret[1])
            e = tok[2]
            _bound_degree(base.total_degree() * e, caret[1])
            bits = max((max(abs(c.numerator), c.denominator).bit_length()
                        for c in base.coeff.values()), default=0)
            if e * bits > MAX_HEIGHT_BITS:
                raise ParseError(f"power of height about {e * bits} bits exceeds "
                                 f"the bound {MAX_HEIGHT_BITS}", caret[1])
            return base ** e
        return base

    def atom(self):
        tok = self.advance()
        if tok[0] == "int":
            value = Fraction(tok[2])
            if self.peek()[0] == "/":
                self.advance()
                den = self.advance()
                if den[0] != "int":
                    raise ParseError(
                        "'/' is only allowed between integer literals", den[1])
                if den[2] == 0:
                    raise ParseError("zero denominator", den[1])
                value = Fraction(tok[2], den[2])
            return Poly2.constant(value)
        if tok[0] == "name":
            var = _VARIABLES.get(tok[2])
            if var is None:
                raise ParseError(
                    f"unknown variable {tok[2]!r} (expected one of "
                    f"{sorted(_VARIABLES)})", tok[1])
            return var
        if tok[0] == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected {tok[0]!r}", tok[1])


def _bound_degree(degree: int, position: int):
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the bound {MAX_DEGREE}", position)


def parse_expression(text: str) -> Poly2:
    """Parse a bivariate polynomial in z1, z2."""
    return _Parser(text).parse()

