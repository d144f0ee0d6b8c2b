"""Surface-level operations: Lefschetz numbers, xi_k, counting, validators."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp

from germindex import (
    MissingIndexData,
    NotAlgebraicallyStable,
    Poly2,
    ScenarioError,
    TypeICurvePresent,
)
from germindex.oracle import torus_lefschetz_oracle
from germindex.surd import Surd
from germindex.surface import (
    CohomologyAction,
    ExplicitTraces,
    FixedCurveRecord,
    H1Trivial,
    K3Mode,
    RationalInterval,
    SurfaceModel,
    TorusMode,
    TraceRecurrence,
    count_isolated_periodic,
    dynamical_degree,
    growth_bounds,
    lefschetz_number,
    saito_residual,
    spectral_radius,
    validate_periodic_inventory,
    xi_k,
)

from conftest import build_cubic_model, lefschetz_trace_table


def action_h1(matrix, **kw):
    kw.setdefault("picard_number", max(len(matrix), 1))
    kw.setdefault("algebraically_stable", True)
    return CohomologyAction(mode=H1Trivial(matrix), **kw)


GOLDEN = Surd.sqrt_term(5, a=Fraction(3, 2), b=Fraction(1, 2))  # (3+sqrt5)/2


# -- lefschetz ----------------------------------------------------------------


def test_lefschetz_h1trivial_identity():
    assert lefschetz_number(action_h1([[1]]), 5) == Surd.rational(3)


def test_lefschetz_torus_fixture_value():
    act = CohomologyAction(mode=TorusMode(GOLDEN, Surd.rational(1)),
                           picard_number=4, algebraically_stable=True)
    assert lefschetz_number(act, 1) == Surd.rational(1)


def test_lefschetz_explicit_traces_cubic():
    model = build_cubic_model()
    assert lefschetz_number(model.action, 1) == Surd.rational(24)
    assert lefschetz_number(model.action, 2) == Surd.rational(328)
    table = CohomologyAction(mode=ExplicitTraces(lefschetz_trace_table(8)),
                             picard_number=7, algebraically_stable=True)
    for n in range(1, 9):
        assert lefschetz_number(table, n) == lefschetz_number(model.action, n)


def test_a_trace_recurrence_extends_on_demand():
    # t_0 = 2, t_1 = 18, t_{n+1} = 18 t_n - t_{n-1}: L(f^n) = t_n + 4 + 2
    rec = TraceRecurrence(traces=[2, 18], coefficients=[18, -1], offset=4)
    act = CohomologyAction(mode=rec, picard_number=7, algebraically_stable=True)
    assert lefschetz_number(act, 40) == Surd.rational(lefschetz_trace_table(40)[40][1, 1] + 2)
    assert len(rec.traces) == 41
    assert lefschetz_number(act, 3) == Surd.rational(5778 + 6) and len(rec.traces) == 41
    with pytest.raises(ValueError, match="an initial trace per coefficient"):
        TraceRecurrence(traces=[2], coefficients=[18, -1])


def test_lefschetz_requires_as():
    act = action_h1([[1]], algebraically_stable=False)
    with pytest.raises(NotAlgebraicallyStable):
        lefschetz_number(act, 2)


def test_lefschetz_k3_mode():
    act = CohomologyAction(
        mode=K3Mode([[2, 1], [1, 1]], Surd(c=1)),
        picard_number=2, algebraically_stable=True)
    # tr(M^2) = 7; i^2 + (-i)^2 = -2
    assert lefschetz_number(act, 2) == Surd.rational(7)


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2]], [[1], [2]]])
def test_a_matrix_that_is_not_square_is_refused(matrix):
    with pytest.raises(ValueError, match="square"):
        H1Trivial(matrix)
    with pytest.raises(ValueError, match="square"):
        K3Mode(matrix, Surd(c=1))


def test_torus_lefschetz_matches_closed_form():
    """Triple check: the trace-table sum equals the closed form
    |d|^2n + |d|^-2n + 2 - 2 Re{(1 + conj(e)^n) d^n + (1 + e^n) d^-n
    - e^n (1 + (conj(d)/d)^n)}."""
    one = Surd.rational(1)
    for delta in [GOLDEN, Surd.sqrt_term(2, a=1, b=1), Surd(a=1, c=1)]:
        for eps in [Surd.rational(1), Surd.rational(-1), Surd(c=1)]:
            act = CohomologyAction(mode=TorusMode(delta, eps),
                                   picard_number=4, algebraically_stable=True)
            for n in range(1, 6):
                lam_n = (delta * delta.conjugate()) ** n
                w = (one + eps.conjugate() ** n) * delta**n \
                    + (one + eps**n) * delta**-n \
                    - eps**n * (one + (delta.conjugate() / delta) ** n)
                closed = lam_n + lam_n.inverse() + 2 - (w + w.conjugate())
                assert lefschetz_number(act, n) == closed, (delta, eps, n)


def test_torus_lefschetz_matches_determinant_oracle():
    eps_values = [Surd.rational(1), Surd.rational(-1), Surd(c=1),
                  Surd(a=Fraction(3, 5), c=Fraction(4, 5))]
    delta_values = [GOLDEN, Surd.sqrt_term(2, a=1, b=1), Surd.sqrt_term(3, a=2, b=1)]
    for delta in delta_values:
        for eps in eps_values:
            act = CohomologyAction(mode=TorusMode(delta, eps),
                                   picard_number=4, algebraically_stable=True)
            d2 = eps * delta.inverse()
            for n in range(1, 7):
                assert lefschetz_number(act, n) == \
                    torus_lefschetz_oracle(delta, d2, n), (delta, eps, n)


# -- dynamical degree -----------------------------------------------------------


def test_dynamical_degree_quadratic_matrix():
    assert dynamical_degree(action_h1([[2, 1], [1, 1]])) == GOLDEN


def test_count_computes_the_dynamical_degree_once(monkeypatch):
    # spectral_radius takes one resultant; the action keeps its result
    from germindex import surface

    calls = []
    resultant = surface.resultant_z1
    monkeypatch.setattr(surface, "resultant_z1",
                        lambda *a: calls.append(a) or resultant(*a))
    model = SurfaceModel(points=[], curves=[],
                         action=action_h1([[2, 1], [1, 1]], growth_constant=5))
    for n in range(1, 7):
        assert count_isolated_periodic(model, n).growth is not None
    assert len(calls) == 1
    assert dynamical_degree(model.action) == GOLDEN and len(calls) == 1


def test_dynamical_degree_identity():
    assert dynamical_degree(action_h1([[1, 0], [0, 1]])) == Surd.rational(1)


def test_dynamical_degree_torus_is_modulus_squared():
    act = CohomologyAction(mode=TorusMode(GOLDEN, Surd.rational(1)),
                           picard_number=4, algebraically_stable=True)
    assert dynamical_degree(act) == GOLDEN * GOLDEN


def test_dynamical_degree_explicit_traces_declared():
    model = build_cubic_model()
    assert dynamical_degree(model.action) == Surd.sqrt_term(5, a=9, b=4)
    bare = CohomologyAction(mode=ExplicitTraces(lefschetz_trace_table(3)),
                            picard_number=7, algebraically_stable=True)
    with pytest.raises(MissingIndexData):
        dynamical_degree(bare)


def test_spectral_radius_cubic_factor_interval():
    # companion matrix of x^3 - x - 1: plastic ratio ~ 1.3247
    M = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    lam = spectral_radius(M)
    assert isinstance(lam, RationalInterval)
    assert _between(lam, Fraction(13, 10), Fraction(133, 100))


def test_spectral_radius_of_a_negative_dominant_root():
    # companion matrix of x^3 + 3x^2 - 1: roots about -2.879, -0.653, 0.532
    lam = spectral_radius([[0, 0, 1], [1, 0, 0], [0, 1, -3]])
    assert isinstance(lam, RationalInterval)
    assert _between(lam, Fraction(28793, 10000), Fraction(28794, 10000))


def test_spectral_radius_equal_and_complex_moduli():
    assert spectral_radius([[0, 2], [1, 0]]) == Surd.sqrt_term(2)   # roots +-sqrt2
    assert spectral_radius([[0, -2], [1, 0]]) == Surd.sqrt_term(2)  # complex pair
    two_blocks = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]
    assert spectral_radius(two_blocks) == Surd.sqrt_term(3)         # cross-field max
    # x^4 + 1: four complex roots of modulus 1, no real eigenvalue at all
    assert spectral_radius([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0]]) == Surd.rational(1)
    with pytest.raises(ValueError):
        spectral_radius([])


def _between(lam, lo: Fraction, hi: Fraction) -> bool:
    """Does lam, a real Surd or an isolating interval, lie in (lo, hi)?  The
    interval's poly has one root in (lam.lo, lam.hi), so a sign change of
    poly on the overlap of the two intervals puts that root in (lo, hi)."""
    if isinstance(lam, RationalInterval):
        a, b = max(lam.lo, lo), min(lam.hi, hi)
        return a < b and lam.poly.evaluate(a, 0) * lam.poly.evaluate(b, 0) < 0
    return lo < lam < hi


def _near(lam, value: float) -> bool:
    """Is lam within 1e-9 of value?"""
    return _between(lam, Fraction(value - 1e-9), Fraction(value + 1e-9))


def _numeric_radius(M) -> float:
    t = sp.Symbol("t")
    return float(max(abs(r) for r in sp.Poly(sp.Matrix(M).charpoly(t).as_expr(),
                                              t).nroots(n=30)))


def test_spectral_radius_of_a_dominant_complex_pair():
    # t^3 + 4t - 1: one real root near 0.2463 and a complex pair of
    # modulus about 2.0151
    lam = spectral_radius([[0, 0, 1], [1, 0, -4], [0, 1, 0]])
    assert _between(lam, Fraction("2.0151047"), Fraction("2.0151048"))


def test_spectral_radius_of_tied_real_roots():
    # t^4 - 10t^2 + 1 has the roots +-sqrt2 +- sqrt3: two of modulus sqrt2 + sqrt3
    lam = spectral_radius([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 10], [0, 0, 1, 0]])
    assert _near(lam, math.sqrt(2) + math.sqrt(3))


def test_a_real_dominant_root_is_found_among_the_factors_of_p(monkeypatch):
    # companion matrix of x^12 - 2x^11 - 1, whose dominant root is real:
    # rho's minimal polynomial is a factor of p, so q(t^2), of degree
    # 2 * 12^2, is never factored
    from germindex import surface

    degrees = []
    factor = surface.factor_list2
    monkeypatch.setattr(surface, "factor_list2",
                        lambda p: degrees.append(p.total_degree()) or factor(p))
    M = [[int(i == j + 1) for j in range(11)] + [0] for i in range(12)]
    M[0][11], M[11][11] = 1, 2
    assert _near(spectral_radius(M), _numeric_radius(M))
    assert degrees and max(degrees) <= 12


def test_spectral_radius_matches_numeric_roots():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert _near(spectral_radius(M), _numeric_radius(M)), M


# -- xi_k and counting -----------------------------------------------------------


def test_xi_1_cubic(cubic_model):
    assert xi_k(cubic_model, 1) == 8


def test_xi_rejects_missing_period(cubic_model):
    with pytest.raises(MissingIndexData):
        xi_k(cubic_model, 2)


def test_xi_single_curve_no_points():
    act = action_h1([[1]])
    model = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord("C", 1, "II", 1, -2)],
        action=act)
    assert xi_k(model, 1) == -2


def test_xi_stability_under_evaluation_level(cubic_model):
    base = xi_k(cubic_model, 1)
    for n in (2, 3):
        assert xi_k(cubic_model, 1, evaluate_at=n) == base


def test_xi_weights_a_type_one_curve_by_its_euler_characteristic():
    # remark43's type I line C has tau_C = 1 and chi_C = 2
    from germindex.scenario import load_fixture

    model = load_fixture("remark43").require_model()
    assert [xi_k(model, 1, evaluate_at=n) for n in (1, 2, 3)] == [4, 6, 4]


def test_xi_needs_the_euler_characteristic_of_a_type_one_curve():
    model = SurfaceModel(points=[], curves=[FixedCurveRecord("C", 1, "I", 1, 1)],
                         action=action_h1([[1]]))
    with pytest.raises(MissingIndexData, match="Euler characteristic"):
        xi_k(model, 1)


def test_count_cubic_first_six(cubic_model):
    expected = [16, 320, 5776, 103680, 1860496, 33385280]
    for n, want in enumerate(expected, start=1):
        rep = count_isolated_periodic(cubic_model, n)
        assert rep.count_isolated == want
        assert rep.xi_breakdown == {1: 8}
        assert rep.growth is True


def test_count_identity_enforced(cubic_model):
    rep = count_isolated_periodic(cubic_model, 2)
    assert rep.lefschetz == rep.count_isolated + sum(rep.xi_breakdown.values())


def test_count_strictly_increasing(cubic_model):
    counts = [count_isolated_periodic(cubic_model, n).count_isolated
              for n in range(1, 7)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_type_one_curve_reevaluated_through_witness():
    from germindex.scenario import load_fixture
    from germindex.surface import _curve_index_at

    scn = load_fixture("remark43")
    model = scn.require_model()
    curve = model.curve("C")
    # the fixed line stays a curve of index 1 for the square of the map
    assert _curve_index_at(model, curve, 2) == 1
    assert _curve_index_at(model, curve, 1) == 1


def _cusp_witness_model():
    # g of the witness is z1 (z1^2 - z2^3): the line z1 = 0 and a cusp
    from germindex import MapGerm
    from germindex.surface import CurveWitness

    X, Y = Poly2.variable(1), Poly2.variable(2)
    germ = MapGerm.from_polynomials(X + X * (X**2 - Y**3), Y)
    curve = FixedCurveRecord("C", 1, "I", 1, 0, 2,
                             germ_witnesses=[CurveWitness("o", germ, X)])
    return SurfaceModel(points=[], curves=[curve], action=action_h1([[1]]))


def test_validate_classifies_only_the_witness_branch():
    # the cusp has no graph coordinate, but validate never classifies it
    assert _cusp_witness_model().validate() == []


def test_type_one_curve_index_ignores_singular_factors_of_g():
    # the cusp of g has no smooth parametrization; nu_p of the line z1 = 0
    # needs none
    from germindex.surface import _curve_index_at

    model = _cusp_witness_model()
    curve = model.curve("C")
    assert _curve_index_at(model, curve, 2) == 1
    assert _curve_index_at(model, curve, 3) == 1


def test_count_refuses_type_one_curves():
    act = action_h1([[1]])
    model = SurfaceModel(
        points=[], curves=[FixedCurveRecord("C", 1, "I", 1, 1, 2)], action=act)
    with pytest.raises(TypeICurvePresent):
        count_isolated_periodic(model, 1)


def test_count_refuses_without_as(cubic_model):
    cubic_model.action.algebraically_stable = False
    with pytest.raises(NotAlgebraicallyStable):
        count_isolated_periodic(cubic_model, 1)


# -- saito residual ---------------------------------------------------------------


def test_saito_residual_zero_on_cubic(cubic_model):
    assert saito_residual(cubic_model, 1, 16) == Surd.rational(0)


def test_saito_residual_detects_corruption():
    model = build_cubic_model(corrupt_u1=True)
    assert saito_residual(model, 1, 16) == Surd.rational(-1)


def test_saito_residual_values_on_the_fixtures():
    from germindex.scenario import load_fixture

    for name, want in (("remark43", [1, 5, 25]), ("cubic-d4", [16, 320, 5776])):
        model = load_fixture(name).require_model()
        assert [saito_residual(model, n, 0) for n in (1, 2, 3)] == want, name


def test_saito_residual_is_lefschetz_minus_the_points_and_xi(cubic_model):
    for n in range(1, 5):
        xi = sum(xi_k(cubic_model, k, evaluate_at=n)
                 for k in cubic_model.prime_periods() if n % k == 0)
        assert saito_residual(cubic_model, n, 7) == (
            lefschetz_number(cubic_model.action, n) - 7 - xi)


def test_saito_residual_empty_model():
    act = action_h1([[0]])  # L = 2
    model = SurfaceModel(points=[], curves=[], action=act)
    assert saito_residual(model, 1, 0) == Surd.rational(2)


# -- inventory validators ------------------------------------------------------------


def test_validator_cubic_inventory_clean(cubic_model):
    pairs = [("E0", "E1"), ("E0", "E2"), ("E0", "E3")]
    assert validate_periodic_inventory(cubic_model, pairs) == []


def test_validator_names_an_unknown_curve_label():
    from germindex.scenario import load_fixture

    model = load_fixture("cubic-d4").model
    with pytest.raises(ScenarioError, match="'nope'"):
        validate_periodic_inventory(model, [("E0", "nope")])
    with pytest.raises(ScenarioError, match="'nope'"):
        model.curve("nope")
    assert model.curve("E0").label == "E0"


def test_validator_type_two_period_mismatch():
    act = action_h1([[1]])
    model = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord("A", 2, "II", 1, 0),
                FixedCurveRecord("B", 3, "II", 1, 0)],
        action=act)
    out = validate_periodic_inventory(model, [("A", "B")])
    assert [v.kind for v in out] == ["type_II_period_mismatch"]


def test_validator_too_many_periods():
    act = action_h1([[2, 1], [1, 1]], picard_number=2)
    model = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord(f"C{k}", k, "II", 1, -2) for k in (1, 2, 3, 5)],
        action=act)
    out = validate_periodic_inventory(model, [])
    assert [v.kind for v in out] == ["too_many_type_II_periods"]


@pytest.mark.parametrize("action", [
    # cubic-d4's trace recurrence with no declared degree
    CohomologyAction(mode=TraceRecurrence(traces=[2, 18], coefficients=[18, -1],
                                          offset=4),
                     picard_number=1, algebraically_stable=True),
    # a radius above one, but without AS it is not the dynamical degree
    action_h1([[2, 1], [1, 1]], picard_number=1, algebraically_stable=False),
], ids=["degree_missing", "not_algebraically_stable"])
def test_validator_period_bound_needs_a_degree_known_above_one(action):
    # four distinct type II periods exceed the bound 1 + 1, which holds only
    # when the dynamical degree is known to exceed one
    model = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord(f"C{k}", k, "II", 1, -2) for k in (1, 2, 3, 5)],
        action=action)
    assert validate_periodic_inventory(model, []) == []


PLASTIC = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # companion of x^3 - x - 1


def period_bound_violations(matrix) -> list[str]:
    """The inventory violations of five type II curves of distinct periods
    on a rational surface of Picard number 3 (at most 4 periods when the
    dynamical degree exceeds 1)."""
    model = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord(f"C{k}", k, "II", 1, -2) for k in (1, 2, 3, 5, 7)],
        action=action_h1(matrix))
    return [v.kind for v in validate_periodic_inventory(model, [])]


@pytest.mark.parametrize("matrix, kinds", [
    (PLASTIC, ["too_many_type_II_periods"]),                  # radius ~ 1.32
    ([[Fraction(x, 2) for x in row] for row in PLASTIC], []),  # ~ 0.66
], ids=["plastic", "plastic_halved"])
def test_validator_period_bound_on_an_interval_degree(matrix, kinds):
    assert isinstance(spectral_radius(matrix), RationalInterval)
    assert period_bound_violations(matrix) == kinds


@pytest.mark.parametrize("poly, kinds", [
    # z1^3 - z1 - 1: ~ 1.32
    (Poly2.from_terms({(3, 0): 1, (1, 0): -1, (0, 0): -1}), ["too_many_type_II_periods"]),
    # 8 z1^3 - 2 z1 - 1: ~ 0.66
    (Poly2.from_terms({(3, 0): 8, (1, 0): -2, (0, 0): -1}), []),
], ids=["root_above_one", "root_below_one"])
def test_validator_decides_an_interval_that_straddles_one(monkeypatch, poly, kinds):
    import germindex.surface as surface

    monkeypatch.setattr(surface, "dynamical_degree", lambda action: RationalInterval(
        Fraction(1, 2), Fraction(3, 2), poly))
    assert period_bound_violations(PLASTIC) == kinds


def test_validator_divisibility_case():
    act = action_h1([[1]])
    model = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord("A", 4, "II", 1, 0),
                FixedCurveRecord("B", 3, "I", 1, 0, 2)],
        action=act)
    out = validate_periodic_inventory(model, [("A", "B")])
    assert [v.kind for v in out] == ["period_divisibility"]
    ok = SurfaceModel(
        points=[],
        curves=[FixedCurveRecord("A", 4, "II", 1, 0),
                FixedCurveRecord("B", 2, "I", 1, 0, 2)],
        action=act)
    assert validate_periodic_inventory(ok, [("A", "B")]) == []


# -- growth bounds ----------------------------------------------------------------


def test_growth_bound_constant_branch(cubic_model):
    for n in range(1, 7):
        rep = count_isolated_periodic(cubic_model, n)
        assert growth_bounds(cubic_model.action, n, rep.count_isolated) is True


def test_growth_bound_torus_branch():
    act = CohomologyAction(mode=TorusMode(GOLDEN, Surd.rational(1)),
                           picard_number=4, algebraically_stable=True)
    for n in range(1, 7):
        L = lefschetz_number(act, n)
        assert growth_bounds(act, n, L) is True


def test_growth_bounds_gives_no_verdict_without_an_envelope_or_exact_lambda():
    assert growth_bounds(action_h1([[1]], growth_constant=5), 3, 2) is None
    assert growth_bounds(action_h1([[2, 1], [1, 1]]), 3, 2) is None
    interval = action_h1(PLASTIC, growth_constant=5)
    assert isinstance(dynamical_degree(interval), RationalInterval)
    assert growth_bounds(interval, 3, 2) is None


# -- witness validation -----------------------------------------------------------


def test_model_validate_clean(cubic_model):
    assert cubic_model.validate() == []


def test_model_validate_flags_wrong_record():
    model = build_cubic_model()
    model.curves[0].nu_C = 3  # witness recomputation gives 2
    issues = model.validate()
    assert len(issues) == 1 and "E0" in issues[0]
