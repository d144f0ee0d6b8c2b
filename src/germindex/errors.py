"""Exception taxonomy for the germindex package.

Every domain error derives from GermIndexError so callers (and the CLI)
can distinguish domain failures (exit code 1) from input/parse failures
(exit code 2, see ParseError / ScenarioError).
"""


class GermIndexError(Exception):
    """Base class for all domain errors raised by this package."""


class NotDivisible(GermIndexError):
    """An exact quotient does not exist: a polynomial does not divide
    another, or a pulled-back 2-form is not of the shape z1^s * unit."""


class PrecisionExhausted(GermIndexError):
    """An exact verdict is out of reach: polys.square_part cannot certify
    that a large discriminant factor is squarefree without factoring it,
    PolynomialMap.iterate would compose an iterate above the degree bound
    polys.MAX_ITERATE_DEGREE or for an n above polys.MAX_ITERATE_N (a CLI
    range or --n-max ending above it is refused up front), or a report
    holds an integer with more digits than Python writes as text."""


class IdentityGerm(GermIndexError):
    """The germ is the identity; no decomposition exists."""


class NotCoprime(GermIndexError):
    """The cofactor pair shares a factor through the origin; the local
    quotient is infinite-dimensional."""


class UnsupportedSingularBranch(GermIndexError):
    """A curve factor is singular at the origin; its mu_p is not
    computed."""


class NotACurveFixingGerm(GermIndexError):
    """The germ does not fix the curve z1 = 0 pointwise."""


class NotAlgebraicallyStable(GermIndexError):
    """Operation requires the algebraic-stability assertion on the model."""


class TypeICurvePresent(GermIndexError):
    """Isolated-point counting refused: the model contains a type I curve."""


class MissingIndexData(GermIndexError):
    """A fixed point on a periodic curve carries neither a declared index
    nor a germ to compute one from."""


class FieldMismatch(GermIndexError):
    """Arithmetic attempted between quadratic extensions of different
    discriminants."""


class NonIsolated(GermIndexError):
    """A curve of fixed points passes through the point (or the fixed-point
    system has a one-dimensional solution set)."""


class ParseError(GermIndexError):
    """Expression text is outside the grammar. Carries the 0-based
    position of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScenarioError(GermIndexError):
    """Scenario document is malformed or internally inconsistent."""
