"""Germ decomposition, delta, branches, classification and the local index.

Expected values on the named fixture maps were computed ahead of time with
an independent sympy elimination script and are asserted exactly.
"""

import random
from fractions import Fraction

import pytest

from germindex import (
    TYPE_I,
    TYPE_II,
    BranchRecord,
    IdentityGerm,
    MapGerm,
    NonIsolated,
    NotCoprime,
    Poly2,
    UnsupportedSingularBranch,
    branches,
    classify_branch,
    decompose,
    delta,
    gcd2,
    iterate,
    local_index,
)
from germindex.oracle import local_multiplicity
from germindex.reports import jsonable

from conftest import count_calls
from germ_samples import type_two_germ

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)


def germ(p1: Poly2, p2: Poly2) -> MapGerm:
    return MapGerm.from_polynomials(p1, p2)


def remark42_map() -> MapGerm:
    # (-2 z1 - z1^2 - z2, z1)
    return germ(X * -2 - X**2 - Y, X)


def remark43_map() -> MapGerm:
    # (z1 + z1 (z1^2 + z2), z2 + z1^2)
    return germ(X + X * (X**2 + Y), Y + X**2)


def cubic_corner_map(u1=ONE, u2=ONE) -> MapGerm:
    # (z1 + z1^3 z2 u1, z2 + z1^2 z2^2 u2)
    return germ(X + X**3 * Y * u1, Y + X**2 * Y**2 * u2)


# -- decompose ----------------------------------------------------------------


def test_decompose_cubic_corner():
    dec = decompose(cubic_corner_map(u1=ONE + Y, u2=ONE - X))
    assert dec.g == X**2 * Y
    assert dec.h1 == X * (ONE + Y)
    assert dec.h2 == Y * (ONE - X)


def test_decompose_constant_gcd():
    dec = decompose(remark42_map())
    assert dec.g == ONE
    assert dec.h1 == X * -3 - X**2 - Y
    assert dec.h2 == X - Y


def test_decompose_common_factor():
    dec = decompose(remark43_map())
    assert dec.g == X
    assert dec.h1 == X**2 + Y
    assert dec.h2 == X


def test_decompose_identity_raises():
    with pytest.raises(IdentityGerm):
        decompose(germ(X, Y))


def test_decompose_reproduces_differences():
    g = cubic_corner_map(u1=ONE + Y)
    dec = decompose(g)
    d1, d2 = g.map.fixed_system()
    assert dec.g * dec.h1 == d1
    assert dec.g * dec.h2 == d2


def test_decompose_keeps_nonlocal_factors_in_cofactors():
    # common factor (1 + z1) does not vanish at the origin: stays in h_i
    d1 = X * (ONE + X)
    d2 = Y * (ONE + X)
    dec = decompose(germ(X + d1 * X, Y + d2 * X))  # build sigma with diffs X*d_i
    assert dec.g == X
    assert delta(dec) == 1


# -- delta --------------------------------------------------------------------


def test_delta_maximal_ideal():
    dec = decompose(germ(X + X * X, Y + X * Y))  # g = z1, h = (z1, z2)... adjust
    # direct construction instead:
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X, h2=Y, factors=[])
    assert delta(dec) == 1
    assert local_multiplicity(dec.h1, dec.h2) == 1


def test_delta_remark42():
    dec = decompose(remark42_map())
    assert delta(dec) == 1
    assert local_multiplicity(dec.h1, dec.h2) == 1


def test_delta_z1sq_z2():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X**2, h2=Y, factors=[])
    assert delta(dec) == 2
    assert local_multiplicity(dec.h1, dec.h2) == 2


def test_delta_substitution_case():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X**2 + Y, h2=X, factors=[])
    assert delta(dec) == 1
    assert local_multiplicity(dec.h1, dec.h2) == 1


def test_delta_not_coprime():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X * Y, h2=X * (ONE + Y), factors=[])
    with pytest.raises(NotCoprime):
        delta(dec)
    with pytest.raises(NonIsolated):
        local_multiplicity(dec.h1, dec.h2)


def test_intersection_number_refuses_a_common_factor_at_the_bezout_bound():
    # no guard: the codimension grows by one per degree, past 2 * 2 + 1
    from germindex.germs import _intersection_number

    assert _intersection_number(X * Y, X * (ONE + Y)) is None
    assert _intersection_number(X * Y, X + Y**3) == 4


def test_intersection_number_finds_a_common_factor_with_one_gcd(monkeypatch):
    # the codimension of (z1 u, z1 v) grows by one per degree; at D =
    # GUARD_DEGREE one gcd finds z1, long before the Bezout bound 6 * 6 + 1
    import germindex.germs as germs

    gcds = count_calls(monkeypatch, germs, "gcd2")
    assert germs._intersection_number(X * (ONE + Y**5), X * (ONE + X**5)) is None
    assert len(gcds) == 1
    # a coprime pair that stabilizes past GUARD_DEGREE: the gcd finds no
    # common factor and the search goes on
    assert germs._intersection_number(X, X + Y**20) == 20
    assert len(gcds) == 2


def test_delta_resultant_divides_out_a_common_unit():
    # h1 and h2 share z2 + 1, a unit of the local ring: every shear line
    # through the origin meets the common curve, so elimination must divide
    # it out first
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=Y * (Y + 1), h2=X * (Y + 1), factors=[])
    assert delta(dec) == 1
    assert local_multiplicity(dec.h1, dec.h2) == 1


def test_delta_unit_ideal_is_zero():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=X, h1=Poly2.zero(), h2=ONE + Y, factors=[(X, 1)])
    assert delta(dec) == 0
    assert local_multiplicity(dec.h1, dec.h2) == 0


# -- branches -----------------------------------------------------------------


def test_branches_cubic_corner():
    dec = decompose(cubic_corner_map())
    brs = branches(dec)
    assert len(brs) == 2
    by_key = {repr(b.defining_polynomial): b for b in brs}
    bz1 = by_key["z1"]
    bz2 = by_key["z2"]
    assert bz1.nu_p == 2 and bz2.nu_p == 1
    # z1 = 0 is a graph over z2, z2 = 0 one over z1
    assert (bz1.defining_polynomial.linear_part(),
            bz2.defining_polynomial.linear_part()) == ((1, 0), (0, 1))


def test_branches_unit_g_empty():
    dec = decompose(remark42_map())
    assert branches(dec) == []


def test_branches_parabola():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=Y - X**2, h1=ONE, h2=X, factors=[(Y - X**2, 1)])
    (b,) = branches(dec)
    assert b.nu_p == 1 and b.defining_polynomial.linear_part()[1] != 0


def test_branches_singular_factor_raises():
    # branches lists the cusp without a graph coordinate; classifying it,
    # alone or inside local_index, is refused
    from germindex.germs import GermDecomposition

    cusp = Y**2 - X**3
    dec = GermDecomposition(g=cusp, h1=ONE, h2=X, factors=[(cusp, 1)])
    (b,) = branches(dec)
    assert b.defining_polynomial.linear_part() == (0, 0) and b.nu_p == 1
    with pytest.raises(UnsupportedSingularBranch, match="singular at the origin"):
        classify_branch(dec, b)
    germ = MapGerm.from_polynomials(X + cusp, Y + X * cusp)
    with pytest.raises(UnsupportedSingularBranch, match="singular at the origin"):
        local_index(germ)


# -- classification -----------------------------------------------------------


def test_classify_remark43_branch_is_type_one():
    dec = decompose(remark43_map())
    (b,) = branches(dec)
    done = classify_branch(dec, b)
    assert done.branch_type == TYPE_I
    # tau = -t on the parametrization (0, t)
    assert done.mu_p == 1


def test_classify_cubic_corner_both_type_two():
    dec = decompose(cubic_corner_map(u1=ONE + Y, u2=ONE - X))
    brs = [classify_branch(dec, b) for b in branches(dec)]
    assert all(b.branch_type == TYPE_II for b in brs)
    assert all(b.mu_p == 1 for b in brs)


def test_classify_refuses_cofactors_sharing_the_branch():
    # h1 and h2 share the branch z1 = 0: no finite order along it
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=X, h1=X, h2=X * Y, factors=[(X, 1)])
    (b,) = branches(dec)
    with pytest.raises(NotCoprime):
        classify_branch(dec, b)


def test_a_branch_record_built_by_hand_classifies_as_the_engine_does():
    # p = z1 + z2^2 is a graph over z2: mu_p is the order of h2 = 1 + z1
    # along it, 0, not that of h1 = -2 z2 (1 + z1) + 3p, 1
    p = X + Y**2
    dec = decompose(germ(X + p * (-2 * Y * (ONE + X) + 3 * p), Y + p * (ONE + X)))
    (engine,) = (classify_branch(dec, b) for b in branches(dec))
    by_hand = classify_branch(dec, BranchRecord(p, 1))
    assert (by_hand.branch_type, by_hand.mu_p) == (engine.branch_type, engine.mu_p)
    assert (engine.branch_type, engine.mu_p) == (TYPE_II, 0)


def test_classify_shear_branch_type_two_mu_zero():
    # sigma = (z1 + z2, z2): g = z2, h1 = 1, h2 = 0; branch z2 = 0
    dec = decompose(germ(X + Y, Y))
    assert dec.g == Y and dec.h1 == ONE and dec.h2 == Poly2.zero()
    (b,) = branches(dec)
    done = classify_branch(dec, b)
    assert done.branch_type == TYPE_II
    assert done.mu_p == 0


def test_mu_p_matches_the_resultant_oracle():
    """mu_p = I(p, q) by elimination: q = h1*dp/dz1 + h2*dp/dz2 on a type I
    branch; on a type II branch the cofactor h1 (a graph over z1) or h2 (a
    graph over z2), whose order along the branch is the smaller of the two."""
    rng = random.Random(20260808)  # the germs of acceptance criterion 05
    maps = [type_two_germ(rng) for _ in range(100)]
    maps += [remark43_map(), cubic_corner_map(),
             cubic_corner_map(u1=ONE + Y, u2=ONE - X)]
    types = set()
    for f in maps:
        dec = decompose(f)
        for b in branches(dec):
            done = classify_branch(dec, b)
            p = b.defining_polynomial
            over_z1 = p.linear_part()[1] != 0  # a graph over z1
            if done.branch_type == TYPE_I:
                e = dec.h1 * p.derivative(1) + dec.h2 * p.derivative(2)
                assert done.mu_p == local_multiplicity(p, e), (f, p)
                types.add((TYPE_I, over_z1))
                continue
            q, other = (dec.h1, dec.h2) if over_z1 else (dec.h2, dec.h1)
            assert done.mu_p == local_multiplicity(p, q), (f, p)
            if not p.divides(other):  # else other vanishes on the branch
                assert local_multiplicity(p, other) >= done.mu_p
            types.add((TYPE_II, over_z1))
    assert types == {(TYPE_I, True), (TYPE_I, False), (TYPE_II, True), (TYPE_II, False)}


# -- local index --------------------------------------------------------------


def test_local_index_cubic_corner():
    rep = local_index(cubic_corner_map())
    assert rep.delta == 1
    assert rep.nu_A == 1 + 2 * 1 + 1 * 1 == 4


def test_local_index_remark42():
    rep = local_index(remark42_map())
    assert rep.delta == 1 and rep.branches == [] and rep.nu_A == 1


def test_local_index_remark42_iterates():
    f = remark42_map()
    assert local_index(iterate(f, 2)).nu_A == 3
    assert local_index(iterate(f, 3)).nu_A == 1


def test_local_index_remark43():
    rep = local_index(remark43_map())
    assert rep.delta == 1
    assert rep.nu_A == 2


def test_local_index_decomposes_once_and_runs_once(monkeypatch):
    import germindex.germs as germs

    seen = {name: count_calls(monkeypatch, germs, name)
            for name in ("decompose", "factor_list2", "delta", "branches",
                         "classify_branch")}
    rep = germs.local_index(cubic_corner_map())
    assert rep.nu_A == 4 and len(rep.branches) == 2
    # every quantity is exact after one pass, so none is recomputed
    assert {name: len(calls) for name, calls in seen.items()} == {
        "decompose": 1, "factor_list2": 1, "delta": 1, "branches": 1,
        "classify_branch": 2}


def test_simple_fixed_points_skip_the_cas(monkeypatch):
    import germindex.germs as germs

    calls = {"gcd2": 0, "factor_list2": 0, "exact_div": 0, "search": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(germs, "gcd2", counting("gcd2", germs.gcd2))
    monkeypatch.setattr(germs, "factor_list2", counting("factor_list2", germs.factor_list2))
    monkeypatch.setattr(Poly2, "exact_div", counting("exact_div", Poly2.exact_div))
    monkeypatch.setattr(germs, "_intersection_number",
                        counting("search", germs._intersection_number))
    # det(Df(0) - I) = 3/2, and no eigenvalue of Df(0) is a root of unity:
    # the determinant proves delta = 1, and no codimension is searched
    henon = germ(X * Fraction(3, 2) - Y * 2 + X**2 - X * Y * 3, X)
    for n in (1, 2, 3):
        rep = local_index(iterate(henon, n))
        assert (rep.nu_A, rep.branches) == (1, [])
    assert calls == {"gcd2": 0, "factor_list2": 0, "exact_div": 0, "search": 0}
    # Df(0) of remark42 has the double eigenvalue -1, so f^2 takes the gcd
    # route; the gcd is a unit at the origin, so it is neither factored nor
    # divided, and delta is searched for once, without a gcd of its own
    rep = local_index(iterate(remark42_map(), 2))
    assert (rep.nu_A, rep.branches) == (3, [])
    assert calls == {"gcd2": 1, "factor_list2": 0, "exact_div": 0, "search": 1}


def test_coprime_differences_need_no_ring_gcd(monkeypatch):
    # the differences of remark42's f^6 (degree 64) are coprime: the mod-p
    # certificate in gcd2 decides, and sympy's gcd never runs
    from sympy.polys.rings import PolyElement

    gcds = count_calls(monkeypatch, PolyElement, "gcd")
    rep = local_index(iterate(remark42_map(), 6))
    assert (rep.nu_A, rep.branches) == (3, [])
    assert gcds == []


# -- iterate ------------------------------------------------------------------


def test_iterate_identity_case():
    f = remark42_map()
    assert iterate(f, 1) is f


def test_iterate_shear():
    f = germ(X + Y, Y)
    f3 = iterate(f, 3)
    assert f3.poly1 == X + Y * 3
    assert f3.poly2 == Y


def test_polynomial_germs_compare_exactly():
    # the first has the fixed line z2 = 0 with nu_p = 20, the second is
    # the identity
    f, identity = germ(X + Y**20, Y), germ(X, Y)
    assert f != identity and not f == identity
    assert local_index(f).branches[0].nu_p == 20
    with pytest.raises(IdentityGerm):
        local_index(identity)
    assert f == germ(X + Y**20, Y)


# -- iterates decomposed by their base's curve factor ---------------------------


def gcd_route(it: MapGerm):
    """decompose of the same map rebuilt without a base: the gcd route."""
    return decompose(MapGerm.from_polynomials(it.poly1, it.poly2))


def test_iterate_decomposition_matches_gcd_route():
    # a type II line z1 = 0 with the unit cofactor h2 = 1 + z2, and the
    # cubic corner, whose iterate's cofactors both vanish at 0 with delta 1,
    # take the base's g
    for f in (germ(X + X * X, Y + X * (ONE + Y)), cubic_corner_map(u1=ONE + Y)):
        base = decompose(f)
        f2 = iterate(f, 2)
        assert f2.base is f
        dec, exact = decompose(f2), gcd_route(f2)
        assert dec.g == exact.g == base.g
        assert (dec.h1, dec.h2) == (exact.h1, exact.h2)
        assert delta(dec) == delta(exact)


def test_iterates_with_a_finite_delta_keep_the_base_curve(monkeypatch):
    # both cofactors of the cubic corner's iterates vanish at 0, but I(h1,
    # h2) = 1 is finite, which certifies the base's g with no CAS call
    import germindex.germs as germs

    f = cubic_corner_map()
    assert local_index(f).nu_A == 4
    calls = (count_calls(monkeypatch, germs, "gcd2"),
             count_calls(monkeypatch, germs, "factor_list2"))
    for n in (2, 3):
        rep = local_index(iterate(f, n))
        assert (rep.delta, rep.nu_A) == (1, 4)
    assert calls == ([], [])


def test_iterate_with_both_cofactors_vanishing_falls_back():
    # f = (-z1, z2 + z1^2) has g = z1, but f^2 - id = (0, 2 z1^2): dividing
    # by the base's z1 leaves (0, 2 z1), which vanish together at 0
    f = germ(-X, Y + X**2)
    assert decompose(f).g == X
    f2 = iterate(f, 2)
    dec = decompose(f2)
    assert dec.g == X**2 == gcd_route(f2).g
    assert (dec.h1, dec.h2) == (Poly2.zero(), ONE * 2)
    assert jsonable(local_index(f2)) == jsonable(local_index(
        MapGerm.from_polynomials(f2.poly1, f2.poly2)))


def test_iterate_with_a_wrong_base_falls_back():
    f2 = iterate(cubic_corner_map(), 2)
    f2.base = germ(X + (Y - X**2) * 3, Y + (Y - X**2) * X * 6)
    dec, exact = decompose(f2), gcd_route(f2)
    assert (dec.g, dec.h1, dec.h2) == (exact.g, exact.h1, exact.h2)


def test_decompose_computes_the_curve_data_once_per_germ(monkeypatch):
    import germindex.germs as germs

    calls = []
    monkeypatch.setattr(germs, "gcd2", lambda a, b: calls.append(1) or gcd2(a, b))
    f = cubic_corner_map()
    first = decompose(f)
    assert calls == [1]
    # the second call returns the stored decomposition: no gcd, no
    # factorization and no division
    again = (count_calls(monkeypatch, germs, "gcd2"),
             count_calls(monkeypatch, germs, "factor_list2"),
             count_calls(monkeypatch, Poly2, "exact_div"))
    assert decompose(f) is first
    assert again == ([], [], [])


def test_an_iterate_fills_its_base_decomposition(monkeypatch):
    # the base's decomposition is stored on the base without a decompose
    # call of its own, so one decompose of f^2 is one decompose call
    import germindex.germs as germs

    f = cubic_corner_map()
    f2 = iterate(f, 2)
    calls = count_calls(monkeypatch, germs, "decompose")
    dec = germs.decompose(f2)
    assert calls == [(f2,)]
    assert f._dec is not None and f._dec.g == dec.g
    assert decompose(f) is f._dec


def test_an_iterate_searches_for_its_delta_once(monkeypatch):
    # the finite I(h1, h2) that certifies the base's type II curves for
    # f^2 is delta itself: decompose and local_index search for it once,
    # beside one search for each branch's mu_p
    import germindex.germs as germs

    f2 = iterate(cubic_corner_map(), 2)
    calls = count_calls(monkeypatch, germs, "_intersection_number")
    dec = decompose(f2)
    rep = local_index(f2)
    assert [b.branch_type for b in rep.branches] == [TYPE_II, TYPE_II]
    assert calls.count((dec.h1, dec.h2)) == 1 and rep.delta == 1
    assert len(calls) == 1 + len(rep.branches)


# -- one chain of iterates per germ, reused parametrizations -----------------


def test_iterates_in_any_order_match_iterating_from_scratch():
    from germindex.polys import PolynomialMap

    type_two = germ(X + X * X, Y + X * (ONE + Y))
    for f in (remark42_map(), type_two):
        for n in (4, 2, 5, 1, 3):
            it, fresh = iterate(f, n), PolynomialMap(f.poly1, f.poly2).iterate(n)
            assert (it.poly1, it.poly2) == (fresh.p1, fresh.p2)


def test_each_new_iterate_costs_one_composition(monkeypatch):
    f = remark42_map()
    iterate(f, 3)
    composes = count_calls(monkeypatch, Poly2, "compose")
    assert iterate(f, 3).poly1 == iterate(f, 3).poly1
    assert composes == []
    iterate(f, 4)
    assert len(composes) == 1


def test_a_germ_keeps_its_iterates_on_divisor_bases():
    # f^n is built once per germ and keeps f^d, d the largest proper
    # divisor of n, as its base: f itself for a prime n
    f = germ(X + Y * 2 + Y**2, Y * 3)
    with pytest.raises(ValueError):
        iterate(f, 0)
    assert f.map._iterates == []
    for n in (2, 3, 4, 6, 9):
        assert iterate(f, n) is iterate(f, n)
    assert iterate(f, 2).base is f and iterate(f, 3).base is f
    assert iterate(f, 4).base is iterate(f, 2)
    assert iterate(f, 6).base is iterate(f, 3)
    assert iterate(f, 9).base is iterate(f, 3)


def test_an_iterate_takes_a_curve_of_period_two_from_its_base(monkeypatch):
    # map5 = (-2 z1^2 - 2 z2^2 + z2, z1) fixes no curve, but f^2 fixes
    # z1^2 + z2^2, singular at the origin; f^4 divides by f^2's curve factor
    # with no gcd or factorization, and refuses the branch all the same
    import germindex.germs as germs

    f = germ(X**2 * -2 - Y**2 * 2 + Y, X)
    with pytest.raises(UnsupportedSingularBranch):
        local_index(iterate(f, 2))
    calls = (count_calls(monkeypatch, germs, "gcd2"),
             count_calls(monkeypatch, germs, "factor_list2"))
    with pytest.raises(UnsupportedSingularBranch):
        local_index(iterate(f, 4))
    assert calls == ([], [])
    assert decompose(iterate(f, 4)).factors == decompose(iterate(f, 2)).factors


def test_iterates_of_a_polynomial_germ_build_no_series():
    # smooth branches with mu_p = 1: the cubic corner's z1 = 0 (a graph over
    # z2) and z2 = 0 (over z1) are type II, remark43's z1 = 0 is type I
    cases = [
        (cubic_corner_map(), [("z2", 1, TYPE_II, 1), ("z1", 2, TYPE_II, 1)]),
        (remark43_map(), [("z1", 1, TYPE_I, 1)]),
    ]
    for f, expected in cases:
        for n in (1, 2, 3):
            rep = local_index(iterate(f, n))
            assert rep.delta == 1
            assert [(repr(b.defining_polynomial), b.nu_p, b.branch_type, b.mu_p)
                    for b in rep.branches] == expected
