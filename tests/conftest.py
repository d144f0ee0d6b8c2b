"""The hypothesis profile of the suite, a call counter, and shared model
builders for the surface-level tests."""

import pytest
from hypothesis import settings

from germindex import MapGerm, Poly2
from germindex.surd import Surd
from germindex.surface import (
    CohomologyAction,
    CurveWitness,
    FixedCurveRecord,
    FixedPointRecord,
    SurfaceModel,
    TraceRecurrence,
)

# no property test has a per-example deadline: examples are timed on shared
# machines whose speed drifts; each test sets its own max_examples
settings.register_profile("germindex", deadline=None)
settings.load_profile("germindex")

X = Poly2.variable(1)
Y = Poly2.variable(2)


def count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of owner.name (a module's
    function, or a class's method with self first)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def corner_germ() -> MapGerm:
    """Chart germ at a crossing of the two exceptional curves:
    (z1 + z1^3 z2, z2 + z1^2 z2^2)."""
    return MapGerm.from_polynomials(X + X**3 * Y, Y + X**2 * Y**2)


def lefschetz_trace_table(last: int) -> dict:
    """Trace data generated by the integer recurrence a_{n+1} = 18 a_n - a_{n-1},
    a_0 = 2, a_1 = 18; the H^{1,1} trace is a_n + 4 on a rational surface."""
    a = [2, 18]
    while len(a) <= last:
        a.append(18 * a[-1] - a[-2])
    return {n: {(0, 0): 1, (1, 1): a[n] + 4, (2, 2): 1} for n in range(1, last + 1)}


def build_cubic_model(corrupt_u1: bool = False) -> SurfaceModel:
    """The resolved-cubic fixture: four type II fixed curves E0..E3 of
    self-intersection -2, crossing points u_i with chart germs, and three
    declared-only points v_i of index 2."""
    action = CohomologyAction(
        mode=TraceRecurrence(
            traces=[2, 18], coefficients=[18, -1], offset=4,
            declared_degree=Surd.sqrt_term(5, a=9, b=4),
        ),
        picard_number=7,
        algebraically_stable=True,
        kodaira_nonnegative=False,
        growth_constant=2,
    )
    curves = [
        FixedCurveRecord("E0", 1, "II", 2, -2, 2,
                         germ_witnesses=[CurveWitness("u1", corner_germ(), X)]),
        FixedCurveRecord("E1", 1, "II", 1, -2, 2,
                         germ_witnesses=[CurveWitness("u1", corner_germ(), Y)]),
        FixedCurveRecord("E2", 1, "II", 1, -2, 2,
                         germ_witnesses=[CurveWitness("u2", corner_germ(), Y)]),
        FixedCurveRecord("E3", 1, "II", 1, -2, 2,
                         germ_witnesses=[CurveWitness("u3", corner_germ(), Y)]),
    ]
    points = []
    for i in (1, 2, 3):
        if corrupt_u1 and i == 1:
            points.append(FixedPointRecord(
                "u1", 1, germ=None, declared_index_per_n={1: 5},
                on_curves=["E0", "E1"]))
        else:
            points.append(FixedPointRecord(
                f"u{i}", 1, germ=corner_germ(),
                on_curves=["E0", f"E{i}"]))
    for i in (1, 2, 3):
        points.append(FixedPointRecord(
            f"v{i}", 1, declared_index_per_n={1: 2}, on_curves=[f"E{i}"]))
    return SurfaceModel(points=points, curves=curves, action=action)


@pytest.fixture
def cubic_model():
    return build_cubic_model()
