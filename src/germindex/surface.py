"""Surface-level bookkeeping: fixed points and periodic curves with their
indices, the cohomology action, Lefschetz numbers, the combined curve
contributions xi_k, isolated-periodic-point counts and the consistency
validators for user-supplied inventories.

Indeterminacy orbits are never computed here: algebraic stability is a
user assertion carried on the action and surfaced in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import (
    MissingIndexData,
    NotAlgebraicallyStable,
    ScenarioError,
    TypeICurvePresent,
)
from .germs import (
    TYPE_I,
    TYPE_II,
    BranchRecord,
    MapGerm,
    branches,
    classify_branch,
    decompose,
    iterate,
    local_index,
)
from .polys import (
    Poly2,
    charpoly,
    factor_list2,
    real_root_intervals,
    resultant_z1,
    trace_of_power,
)
from .surd import Surd, square_part

# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass
class CurveWitness:
    """A chart germ at a point of the curve, together with the local
    equation of the curve in that chart, used to recompute nu_C and type."""

    point_label: str
    germ: MapGerm
    curve_local_equation: Poly2


@dataclass
class FixedCurveRecord:
    label: str
    prime_period: int
    curve_type: str           # TYPE_I or TYPE_II
    nu_C: int
    self_intersection: int    # tau_C
    euler_characteristic: int | None = None   # chi of the normalization
    germ_witnesses: list[CurveWitness] = field(default_factory=list)

    def __post_init__(self):
        if self.prime_period < 1 or self.nu_C < 1:
            raise ValueError("prime period and nu_C must be positive")
        if self.curve_type not in (TYPE_I, TYPE_II):
            raise ValueError("curve type must be 'I' or 'II'")


@dataclass
class FixedPointRecord:
    label: str
    prime_period: int
    germ: MapGerm | None = None
    declared_index_per_n: dict[int, int] | None = None
    on_curves: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.prime_period < 1:
            raise ValueError("prime period must be positive")
        for n, nu in (self.declared_index_per_n or {}).items():
            if n < 1 or n % self.prime_period or nu < 0:
                raise ValueError(
                    f"point {self.label}: declared index {nu} at n = {n}; n must "
                    f"be a positive multiple of {self.prime_period}, nu >= 0")


# ---------------------------------------------------------------------------
# cohomology action
# ---------------------------------------------------------------------------
# Each mode answers lefschetz(n) and dynamical_degree(); the module functions
# of those names check the AS assertion and delegate to it.


@dataclass
class H1Trivial:
    """Surfaces with no odd cohomology and one-dimensional H^{2,0}-free
    part (rational, Enriques): L(f^n) = tr(M^n) + 2."""

    matrix: list[list[int]]

    def __post_init__(self):
        if not self.matrix or any(len(row) != len(self.matrix)
                                  for row in self.matrix):
            raise ValueError("the action matrix must be square and not empty")

    def lefschetz(self, n: int) -> Surd:
        return Surd.rational(trace_of_power(self.matrix, n) + 2)

    def dynamical_degree(self) -> Surd | RationalInterval:
        return spectral_radius(self.matrix)


@dataclass
class K3Mode(H1Trivial):
    """L(f^n) = tr(M^n) + d^n + conj(d)^n + 2 with |d| = 1."""

    hodge_scalar: Surd

    def __post_init__(self):
        super().__post_init__()
        if self.hodge_scalar.norm_squared() != Surd.rational(1):
            raise ValueError("Hodge scalar must have modulus one")

    def lefschetz(self, n: int) -> Surd:
        d = self.hodge_scalar
        return super().lefschetz(n) + d**n + d.conjugate()**n


@dataclass
class TorusMode:
    """Linear-part eigenvalue data (delta, epsilon) with |epsilon| = 1 and
    |delta| >= 1; the full alternating trace sum is assembled from these."""

    delta: Surd
    epsilon: Surd

    def __post_init__(self):
        if self.epsilon.norm_squared() != Surd.rational(1):
            raise ValueError("epsilon must have modulus one")
        if self.delta.norm_squared() < Surd.rational(1):
            raise ValueError("delta must have modulus at least one")

    def lefschetz(self, n: int) -> Surd:
        """Alternating sum of the traces on the exterior powers of H^1,
        whose eigenvalues are delta^n and (epsilon/delta)^n on H^{1,0} and
        their conjugates on H^{0,1}: the subsets of those four, signed by
        their size."""
        d = self.delta**n
        roots = [d, self.epsilon**n / d]
        roots += [r.conjugate() for r in roots]
        return sum((-1) ** k * prod(s) for k in range(5) for s in combinations(roots, k))

    def dynamical_degree(self) -> Surd:
        return self.delta.norm_squared()


@dataclass
class ExplicitTraces:
    """Trace table t[(i,j)][n]; Lefschetz numbers are alternating sums.
    Traces do not determine the spectral radius, so the dynamical degree
    must be declared separately when needed."""

    traces: dict[int, dict[tuple[int, int], int]]
    declared_degree: Surd | None = None

    def __post_init__(self):
        self._check_degree()
        if any(len(ij) != 2 for table in self.traces.values() for ij in table):
            raise ValueError("a trace key must name two indices i,j")

    def _check_degree(self):
        lam = self.declared_degree
        if lam is not None and not (lam.is_real() and lam >= 1):
            raise ValueError(
                f"a dynamical degree is real and at least 1, not {lam!r}")

    def lefschetz(self, n: int) -> Surd:
        if n not in self.traces:
            raise MissingIndexData(f"no trace data stored for n = {n}")
        return Surd.rational(
            sum((-1) ** (i + j) * t for (i, j), t in self.traces[n].items())
        )

    def dynamical_degree(self) -> Surd:
        if self.declared_degree is None:
            raise MissingIndexData(
                "explicit traces do not determine the dynamical degree; "
                "declare it on the action"
            )
        return self.declared_degree


@dataclass(kw_only=True)
class TraceRecurrence(ExplicitTraces):
    """H^{1,1} traces t_n + offset from the recurrence t_n = sum_i c_i
    t_{n-1-i}, so L(f^n) = t_n + offset + 2.  traces holds t_0, t_1, ...
    as far as computed, and lefschetz(n) extends it to t_n."""

    traces: list[int]
    coefficients: list[int]
    offset: int = 0

    def __post_init__(self):
        self._check_degree()
        if len(self.traces) < len(self.coefficients):
            raise ValueError("a recurrence needs an initial trace per coefficient")

    def lefschetz(self, n: int) -> Surd:
        t = self.traces
        while len(t) <= n:
            t.append(sum(c * t[-1 - i] for i, c in enumerate(self.coefficients)))
        return Surd.rational(t[n] + self.offset + 2)


@dataclass
class CohomologyAction:
    mode: H1Trivial | K3Mode | TorusMode | ExplicitTraces
    picard_number: int
    algebraically_stable: bool
    kodaira_nonnegative: bool = False
    growth_constant: int | None = None
    _degree: Surd | RationalInterval | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.picard_number < 1:
            raise ValueError("picard_number must be 1 or more")
        if self.growth_constant is not None and self.growth_constant < 0:
            raise ValueError("growth_constant must not be negative")


def lefschetz_number(action: CohomologyAction, n: int) -> Surd:
    """L(f^n), exactly, using the mode-appropriate trace data.

    Requires the algebraic-stability assertion: without it the n-th
    pullback need not be the n-th power of the pullback."""
    if not action.algebraically_stable:
        raise NotAlgebraicallyStable(
            "Lefschetz evaluation of iterates needs the AS assertion"
        )
    if n < 1:
        raise ValueError("n must be positive")
    return action.mode.lefschetz(n)


# ---------------------------------------------------------------------------
# dynamical degree: exact spectral data
# ---------------------------------------------------------------------------


@dataclass
class RationalInterval:
    """An isolating interval (lo, hi) for a simple real root of `poly`, a
    polynomial in z1 alone: the only root of `poly` in (lo, hi)."""

    lo: Fraction
    hi: Fraction
    poly: Poly2


def _sqrt_exact(q: Fraction) -> Surd:
    """sqrt(q) as an exact Surd, a rational multiple of sqrt(squarefree d).

    q is the discriminant of an irreducible quadratic with a real root
    (spectral_radius), so it is positive and not a square: the result is
    never rational, and no other radicand reaches here."""
    square, free = square_part(q.numerator * q.denominator)
    return Surd.sqrt_term(free, a=0, b=Fraction(square, q.denominator))


def spectral_radius(M) -> Surd | RationalInterval:
    """Spectral radius rho of a square rational matrix, exactly.

    With p the characteristic polynomial, of degree d, the roots of
    q(s) = Res_x(p(x), x^d p(s/x)), with x = z1 and s = z2, are the
    products lambda_i*lambda_j of its roots.  Every real one is at most
    rho^2, and rho^2 is one of them (lambda^2 for a real dominant root,
    lambda*conj(lambda) for a complex one), so rho is the largest real
    root of q(t^2), found by one real-root isolation.  The output is a
    Surd when the irreducible factor of q(t^2) that holds rho has degree
    at most two, and otherwise an isolating interval on that factor.

    That factor is rho's minimal polynomial.  Every root of p(x) and of
    p(-x) is a root of q(t^2), so when rho or -rho is an eigenvalue it is
    a factor of p(x) or p(-x), of degree at most d, and q(t^2), of degree
    2d^2, is factored only for a rho reached by complex eigenvalues alone.
    """
    p = charpoly(M)
    d = p.total_degree()
    if d < 1:
        raise ValueError("an empty matrix has no spectral radius")
    q = resultant_z1(p, Poly2({(d - k, k): c for (k, _), c in p.coeff.items()}))
    q_t2 = Poly2({(2 * k, 0): c for (_, k), c in q.coeff.items()})
    lo, hi = real_root_intervals(q_t2)[-1]
    if lo == hi:
        return Surd.rational(lo)
    # rho is the only root of q(t^2) in (lo, hi), and a simple root of its
    # irreducible factor, which is the one factor of p(x), p(-x) or, failing
    # those, q(t^2) that changes sign there
    p_minus = Poly2({(k, 0): (-1) ** k * c for (k, _), c in p.coeff.items()})
    f = next(f for h in (p, p_minus, q_t2) for f, _ in factor_list2(h)[1]
             if f.evaluate(lo, 0) * f.evaluate(hi, 0) < 0)
    c0, c1, c2 = (f[(k, 0)] for k in range(3))
    if f.total_degree() == 1:
        return Surd.rational(-c0 / c1)
    if f.total_degree() == 2:
        # the larger root; the leading coefficient of f is positive
        disc = c1 * c1 - 4 * c2 * c0
        return (Surd.rational(-c1) + _sqrt_exact(disc)) * (Fraction(1, 2) / c2)
    return RationalInterval(lo, hi, f)


def dynamical_degree(action: CohomologyAction) -> Surd | RationalInterval:
    """First dynamical degree: the spectral radius of the pullback on
    H^{1,1} (exact under the AS assertion), computed once per action."""
    if not action.algebraically_stable:
        raise NotAlgebraicallyStable(
            "the dynamical degree equals the spectral radius only under AS"
        )
    if action._degree is None:
        action._degree = action.mode.dynamical_degree()
    return action._degree


# ---------------------------------------------------------------------------
# the surface model
# ---------------------------------------------------------------------------


@dataclass
class SurfaceModel:
    points: list[FixedPointRecord]
    curves: list[FixedCurveRecord]
    action: CohomologyAction

    def __post_init__(self):
        labels = {c.label for c in self.curves}
        if len(labels) != len(self.curves):
            raise ValueError("duplicate curve labels")
        if len({pt.label for pt in self.points}) != len(self.points):
            raise ValueError("duplicate point labels")
        for pt in self.points:
            for c in pt.on_curves:
                if c not in labels:
                    raise ValueError(f"point {pt.label} references unknown curve {c}")

    def curve(self, label: str) -> FixedCurveRecord:
        for c in self.curves:
            if c.label == label:
                return c
        raise ScenarioError(f"no curve labelled {label!r}")

    def prime_periods(self) -> set[int]:
        return {c.prime_period for c in self.curves}

    def curves_of_period(self, k: int) -> list[FixedCurveRecord]:
        return [c for c in self.curves if c.prime_period == k]

    def points_on_period(self, k: int) -> list[FixedPointRecord]:
        period_curves = {c.label for c in self.curves_of_period(k)}
        return [p for p in self.points if period_curves & set(p.on_curves)]

    def validate(self) -> list[str]:
        """Witness recomputation diagnostics (empty list means consistent).

        For every curve witness the chart germ is re-analyzed and the
        branch cut out by the recorded local equation, classified alone,
        must reproduce the stored nu_C and type; points carrying both a
        germ and declared indices are cross-checked the same way."""
        issues = []
        for curve in self.curves:
            for w in curve.germ_witnesses:
                branch = _witness_branch(w, 1)
                if branch is None:
                    issues.append(
                        f"curve {curve.label}: witness at {w.point_label} has no "
                        f"branch with equation {w.curve_local_equation.normalized()!r}"
                    )
                    continue
                found = classify_branch(decompose(w.germ), branch)
                if found.nu_p != curve.nu_C:
                    issues.append(
                        f"curve {curve.label}: witness at {w.point_label} gives "
                        f"nu_C = {found.nu_p}, record says {curve.nu_C}"
                    )
                if found.branch_type != curve.curve_type:
                    issues.append(
                        f"curve {curve.label}: witness at {w.point_label} gives "
                        f"type {found.branch_type}, record says {curve.curve_type}"
                    )
        for pt in self.points:
            declared = (pt.declared_index_per_n or {}).get(pt.prime_period)
            if pt.germ is not None and declared is not None:
                computed = local_index(pt.germ).nu_A
                if computed != declared:
                    issues.append(
                        f"point {pt.label}: germ gives nu = {computed}, "
                        f"declared {declared}"
                    )
        return issues


def _point_index_at(model: SurfaceModel, pt: FixedPointRecord, m: int) -> int:
    """nu_x(f^m) for m a multiple of the point's prime period."""
    if m % pt.prime_period:
        raise MissingIndexData(
            f"{pt.label}: {m} is not a multiple of the prime period {pt.prime_period}"
        )
    if pt.declared_index_per_n and m in pt.declared_index_per_n:
        return pt.declared_index_per_n[m]
    if pt.germ is not None:
        return local_index(iterate(pt.germ, m // pt.prime_period)).nu_A
    if pt.declared_index_per_n:
        # stability transfer: a type II curve of prime period k through the
        # point freezes nu_x(f^{lk}) at nu_x(f^k)
        for label in pt.on_curves:
            c = model.curve(label)
            if c.curve_type == TYPE_II and m % c.prime_period == 0 \
                    and c.prime_period in pt.declared_index_per_n:
                return pt.declared_index_per_n[c.prime_period]
    raise MissingIndexData(f"point {pt.label} has no index data for n = {m}")


def _witness_branch(w: CurveWitness, m: int) -> BranchRecord | None:
    """The branch of decompose(iterate(w.germ, m)) cut out by the curve's
    local equation, or None; unclassified, as nu_p needs no parametrization."""
    target = w.curve_local_equation.normalized()
    return next((b for b in branches(decompose(iterate(w.germ, m)))
                 if b.defining_polynomial.normalized() == target), None)


def _curve_index_at(model: SurfaceModel, curve: FixedCurveRecord, m: int) -> int:
    """nu_C(f^m) for m a multiple of the curve's prime period."""
    if m % curve.prime_period:
        raise MissingIndexData(
            f"{curve.label}: {m} is not a multiple of its prime period"
        )
    if curve.curve_type == TYPE_II or m == curve.prime_period:
        return curve.nu_C
    # type I curves have no stability guarantee: recompute from a witness
    for w in curve.germ_witnesses:
        branch = _witness_branch(w, m // curve.prime_period)
        if branch is not None:
            return branch.nu_p
    raise MissingIndexData(
        f"type I curve {curve.label} needs a germ witness to evaluate at n = {m}"
    )


def xi_k(model: SurfaceModel, k: int, evaluate_at: int | None = None) -> int:
    """Combined contribution of the prime-period-k curves: the point
    indices on them plus w_C * nu_C, with w_C = tau_C for a type II curve
    and chi_C for a type I curve (MissingIndexData when chi_C is absent).

    With evaluate_at = n (a multiple of k) the indices are recomputed at
    level n instead of the prime period; index stability for type II data
    makes the two agree, which the tests exercise."""
    if k not in model.prime_periods():
        raise MissingIndexData(f"no periodic curve has prime period {k}")
    n = evaluate_at if evaluate_at is not None else k
    if n % k:
        raise ValueError("evaluation level must be a multiple of k")
    total = 0
    for pt in model.points_on_period(k):
        total += _point_index_at(model, pt, n)
    for c in model.curves_of_period(k):
        weight = (c.self_intersection if c.curve_type == TYPE_II
                  else c.euler_characteristic)
        if weight is None:
            raise MissingIndexData(
                f"type I curve {c.label} needs an Euler characteristic")
        total += weight * _curve_index_at(model, c, n)
    return total


@dataclass
class CountReport:
    n: int
    lefschetz: Surd
    xi_breakdown: dict[int, int]
    count_isolated: int
    growth: bool | None = None


def count_isolated_periodic(model: SurfaceModel, n: int) -> CountReport:
    """#Per_n^i = L(f^n) - sum of xi_k over prime periods k dividing n.

    Refuses models with a type I periodic curve (the identity behind the
    count needs every periodic curve to be type II), and, through
    lefschetz_number, models without the AS assertion.  The difference is
    a sum of local indices, each a positive multiplicity, so a model whose
    difference is not a nonnegative integer contradicts itself
    (ScenarioError).  growth is the verdict of growth_bounds."""
    for c in model.curves:
        if c.curve_type == TYPE_I:
            raise TypeICurvePresent(
                f"curve {c.label} is of type I; the counting identity does not apply"
            )
    L = lefschetz_number(model.action, n)
    breakdown = {k: xi_k(model, k) for k in sorted(model.prime_periods())
                 if n % k == 0}
    diff = L - sum(breakdown.values())
    if not (diff.is_rational() and diff.a.denominator == 1 and diff.a >= 0):
        raise ScenarioError(
            f"n = {n}: L(f^n) - sum of xi_k = {diff!r} is not a number of "
            f"points; the model is internally inconsistent")
    count = diff.a.numerator
    return CountReport(n=n, lefschetz=L, xi_breakdown=breakdown,
                       count_isolated=count,
                       growth=growth_bounds(model.action, n, count))


def saito_residual(model: SurfaceModel, n: int, declared_point_sum) -> Surd:
    """L(f^n) minus the full three-term local side of the fixed point
    formula; zero certifies internal consistency of the model data.

    declared_point_sum covers the isolated periodic points of period n;
    the curve terms are xi_k at level n for each prime period k | n."""
    L = lefschetz_number(model.action, n)
    return L - declared_point_sum - sum(
        xi_k(model, k, evaluate_at=n) for k in model.prime_periods() if n % k == 0)


# ---------------------------------------------------------------------------
# validators and growth bounds
# ---------------------------------------------------------------------------


@dataclass
class InventoryViolation:
    kind: str        # "period_divisibility" | "type_II_period_mismatch" |
                     # "too_many_type_II_periods"
    curves: tuple[str, ...]
    message: str


def validate_periodic_inventory(model: SurfaceModel,
                                intersections) -> list[InventoryViolation]:
    """Consistency checks on a user-supplied inventory of intersecting
    periodic curves.

    (a) a curve meeting a type II curve must have period dividing the type
    II curve's period; (b) two intersecting type II curves must share their
    prime period; (c) with dynamical degree above one there are at most
    picard_number + 1 (picard_number if the Kodaira dimension is
    nonnegative) distinct type II prime periods."""
    out = []
    for pair in intersections:
        a = model.curve(pair[0])
        b = model.curve(pair[1])
        two = [c for c in (a, b) if c.curve_type == TYPE_II]
        if len(two) == 2:
            if a.prime_period != b.prime_period:
                out.append(InventoryViolation(
                    "type_II_period_mismatch", (a.label, b.label),
                    f"intersecting type II curves {a.label}, {b.label} have "
                    f"periods {a.prime_period} != {b.prime_period}",
                ))
        elif len(two) == 1:
            big = two[0]
            other = b if big is a else a
            if big.prime_period % other.prime_period:
                out.append(InventoryViolation(
                    "period_divisibility", (big.label, other.label),
                    f"{other.label} (period {other.prime_period}) meets type II "
                    f"{big.label} (period {big.prime_period}) without dividing it",
                ))
    # the bound needs lambda only when the count can exceed it
    periods = {c.prime_period for c in model.curves if c.curve_type == TYPE_II}
    bound = model.action.picard_number
    if not model.action.kodaira_nonnegative:
        bound += 1
    if len(periods) > bound and _degree_above_one(model.action):
        out.append(InventoryViolation(
            "too_many_type_II_periods", tuple(sorted(
                c.label for c in model.curves if c.curve_type == TYPE_II)),
            f"{len(periods)} distinct type II prime periods exceed the "
            f"bound {bound}",
        ))
    return out


def _degree_above_one(action: CohomologyAction) -> bool:
    """Is the dynamical degree known to exceed one?"""
    try:
        lam = dynamical_degree(action)
    except (MissingIndexData, NotAlgebraicallyStable):
        return False
    if isinstance(lam, RationalInterval):
        # lam.poly is irreducible of degree >= 3, so it does not vanish at
        # 1, and its one root in (lo, hi) exceeds 1 iff it lies in (1, hi)
        f = lam.poly
        return lam.lo >= 1 or (
            lam.hi > 1 and f.evaluate(1, 0) * f.evaluate(lam.hi, 0) < 0)
    return lam > 1  # every other dynamical degree is a Surd


def growth_bounds(action: CohomologyAction, n: int, count) -> bool | None:
    """Whether |count - lambda^n| lies within the action's growth envelope.

    Torus/Abelian: strict bound 4*lambda^(n/2) + B with B = 11.
    Other modes: the constant bound B declared as growth_constant.
    None when there is no verdict: the action has no envelope (it is not a
    torus and declares no growth_constant), or its dynamical degree lambda
    is missing, known only to an interval, or not above one."""
    torus = isinstance(action.mode, TorusMode)
    if not torus and action.growth_constant is None:
        return None
    try:
        lam = dynamical_degree(action)
    except MissingIndexData:
        return None
    if not (isinstance(lam, Surd) and lam > 1):
        return None
    count = count if isinstance(count, Surd) else Surd.rational(count)
    gap = abs(count - lam**n)
    if torus:
        B = Surd.rational(11)
        # gap - B < 4 lambda^(n/2)  <=>  (gap - B)^2 < 16 lambda^n
        return gap <= B or (gap - B) ** 2 < Surd.rational(16) * lam**n
    return gap <= Surd.rational(action.growth_constant)
