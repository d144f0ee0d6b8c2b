"""Germ decomposition, delta, branches, classification and the local index.

Expected values on the named fixture maps were computed ahead of time with
an independent sympy elimination script and are asserted exactly.
"""

from fractions import Fraction

import pytest

from germindex import (
    TYPE_I,
    TYPE_II,
    IdentityGerm,
    MapGerm,
    NotCoprime,
    NotInvertible,
    Poly2,
    TruncatedSeries1,
    UnsupportedSingularBranch,
    branches,
    classify_branch,
    decompose,
    decompose_iterate_guided,
    delta,
    delta_resultant,
    invert,
    iterate,
    local_index,
    omega_sigma,
)

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)


def germ(p1: Poly2, p2: Poly2, precision=16) -> MapGerm:
    return MapGerm.from_polynomials(p1, p2, precision)


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
    d1, d2 = g.differences()
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

    dec = GermDecomposition(g=ONE, h1=X, h2=Y, precision=16)
    assert delta(dec) == 1
    assert delta_resultant(dec) == 1


def test_delta_remark42():
    dec = decompose(remark42_map())
    assert delta(dec) == 1
    assert delta_resultant(dec) == 1


def test_delta_z1sq_z2():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X**2, h2=Y, precision=16)
    assert delta(dec) == 2
    assert delta_resultant(dec) == 2


def test_delta_substitution_case():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X**2 + Y, h2=X, precision=16)
    assert delta(dec) == 1
    assert delta_resultant(dec) == 1


def test_delta_not_coprime():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=X * Y, h2=X * (ONE + Y), precision=16)
    with pytest.raises(NotCoprime):
        delta(dec)
    with pytest.raises(NotCoprime):
        delta_resultant(dec)


def test_delta_resultant_divides_out_a_common_unit():
    # h1 and h2 share z2 + 1, a unit of the local ring: every shear line
    # through the origin meets the common curve, so elimination must divide
    # it out first
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=ONE, h1=Y * (Y + 1), h2=X * (Y + 1), precision=16)
    assert delta(dec) == 1
    assert delta_resultant(dec) == 1


def test_delta_unit_ideal_is_zero():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=X, h1=Poly2.zero(), h2=ONE + Y, precision=16)
    assert delta(dec) == 0
    assert delta_resultant(dec) == 0


# -- omega --------------------------------------------------------------------


def test_omega_sigma_values():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=X, h1=X**2 + Y, h2=X, precision=16)
    w = omega_sigma(dec)
    assert w.coeff_dz1 == X.to_series(16)
    assert w.coeff_dz2 == (-(X**2 + Y)).to_series(16)

    dec2 = GermDecomposition(g=ONE, h1=X, h2=Y, precision=16)
    w2 = omega_sigma(dec2)
    assert w2.coeff_dz1 == Y.to_series(16)
    assert w2.coeff_dz2 == (-X).to_series(16)

    # crossing-point germ with unit factors: form is (z2 u2, -z1 u1)
    dec3 = decompose(cubic_corner_map(u1=ONE + Y, u2=ONE - X))
    w3 = omega_sigma(dec3)
    assert w3.coeff_dz1 == (Y * (ONE - X)).to_series(16)
    assert w3.coeff_dz2 == (-(X * (ONE + Y))).to_series(16)


# -- branches -----------------------------------------------------------------


def test_branches_cubic_corner():
    dec = decompose(cubic_corner_map())
    brs = branches(dec)
    assert len(brs) == 2
    by_key = {repr(b.defining_polynomial): b for b in brs}
    bz1 = by_key["1*z1"]
    bz2 = by_key["1*z2"]
    assert bz1.nu_p == 2 and bz2.nu_p == 1
    t = TruncatedSeries1.variable(16)
    assert bz1.parametrization[0].is_zero() and bz1.parametrization[1] == t
    assert bz2.parametrization[0] == t and bz2.parametrization[1].is_zero()


def test_branches_unit_g_empty():
    dec = decompose(remark42_map())
    assert branches(dec) == []


def test_branches_parabola():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=Y - X**2, h1=ONE, h2=X, precision=16)
    (b,) = branches(dec)
    assert b.nu_p == 1
    t = TruncatedSeries1.variable(16)
    assert b.parametrization == (t, t * t)


def test_branches_singular_factor_raises():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=Y**2 - X**3, h1=ONE, h2=X, precision=16)
    with pytest.raises(UnsupportedSingularBranch):
        branches(dec)


def test_branches_singular_factor_with_user_parametrization():
    from germindex.germs import GermDecomposition

    dec = GermDecomposition(g=Y**2 - X**3, h1=Y, h2=X, precision=16)
    t = TruncatedSeries1.variable(16)
    key = tuple(sorted((Y**2 - X**3).normalized().coeff.items()))
    brs = branches(dec, user_parametrizations={key: (t**2, t**3)})
    assert len(brs) == 1 and brs[0].param_form == "user"
    done = classify_branch(dec, brs[0])
    # tau = h2 x' - h1 y' = t^2*2t - t^3*3t^2 = 2t^3 - 3t^5, nonzero: type I
    assert done.branch_type == TYPE_I and done.mu_p == 3


# -- classification -----------------------------------------------------------


def test_classify_remark43_branch_is_type_one():
    dec = decompose(remark43_map())
    (b,) = branches(dec)
    done = classify_branch(dec, b)
    assert done.branch_type == TYPE_I
    assert done.mu_p == 1
    # tau = -t on the parametrization (0, t)
    assert done.a_series == -TruncatedSeries1.variable(15)


def test_classify_cubic_corner_both_type_two():
    dec = decompose(cubic_corner_map(u1=ONE + Y, u2=ONE - X))
    brs = [classify_branch(dec, b) for b in branches(dec)]
    assert all(b.branch_type == TYPE_II for b in brs)
    assert all(b.mu_p == 1 for b in brs)


def test_classify_shear_branch_type_two_mu_zero():
    # sigma = (z1 + z2, z2): g = z2, h1 = 1, h2 = 0; branch z2 = 0
    dec = decompose(germ(X + Y, Y))
    assert dec.g == Y and dec.h1 == ONE and dec.h2 == Poly2.zero()
    (b,) = branches(dec)
    done = classify_branch(dec, b)
    assert done.branch_type == TYPE_II
    assert done.mu_p == 0
    assert done.a_series == TruncatedSeries1.constant(-1, 15)


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

    seen = {"decompose": [], "factor_list2": [], "delta": [], "branches": [],
            "classify_branch": []}

    def counting(name, fn, precision_of):
        def wrapper(*args, **kwargs):
            seen[name].append(precision_of(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(germs, "decompose",
                        counting("decompose", germs.decompose, lambda g: g.precision))
    monkeypatch.setattr(germs, "factor_list2",
                        counting("factor_list2", germs.factor_list2, lambda p: None))
    monkeypatch.setattr(germs, "delta",
                        counting("delta", germs.delta, lambda dec: dec.precision))
    monkeypatch.setattr(germs, "branches",
                        counting("branches", germs.branches,
                                 lambda dec, *rest: dec.precision))
    monkeypatch.setattr(germs, "classify_branch",
                        counting("classify_branch", germs.classify_branch,
                                 lambda dec, b: dec.precision))
    rep = germs.local_index(cubic_corner_map())
    assert rep.nu_A == 4 and len(rep.branches) == 2
    assert seen["decompose"] == [16]
    assert len(seen["factor_list2"]) == 1
    # every quantity is exact after one pass, so none is recomputed
    assert seen["delta"] == [16]
    assert seen["branches"] == [16]
    assert seen["classify_branch"] == [16, 16]


def test_simple_fixed_points_skip_the_cas(monkeypatch):
    import germindex.germs as germs

    calls = {"gcd2": 0, "factor_list2": 0, "exact_div": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(germs, "gcd2", counting("gcd2", germs.gcd2))
    monkeypatch.setattr(germs, "factor_list2", counting("factor_list2", germs.factor_list2))
    monkeypatch.setattr(Poly2, "exact_div", counting("exact_div", Poly2.exact_div))
    # det(Df(0) - I) = 3/2, and no eigenvalue of Df(0) is a root of unity
    henon = germ(X * Fraction(3, 2) - Y * 2 + X**2 - X * Y * 3, X)
    for n in (1, 2, 3):
        rep = local_index(iterate(henon, n))
        assert (rep.nu_A, rep.branches) == (1, [])
    assert calls == {"gcd2": 0, "factor_list2": 0, "exact_div": 0}
    # Df(0) of remark42 has the double eigenvalue -1, so f^2 takes the gcd
    # route; the gcd has no factor through the origin, so nothing is
    # divided, and delta stabilizes without a gcd of its own
    rep = local_index(iterate(remark42_map(), 2))
    assert (rep.nu_A, rep.branches) == (3, [])
    assert calls == {"gcd2": 1, "factor_list2": 1, "exact_div": 0}


# -- iterate / invert ---------------------------------------------------------


def test_iterate_identity_case():
    f = remark42_map()
    assert iterate(f, 1) is f


def test_iterate_shear():
    f = germ(X + Y, Y)
    f3 = iterate(f, 3)
    assert f3.poly1 == X + Y * 3
    assert f3.poly2 == Y


def test_invert_shear():
    g = invert(germ(X + Y**2, Y))
    z1s = g.image1
    assert z1s == (X - Y**2).to_series(16)
    assert g.image2 == Y.to_series(16)


def test_invert_diagonal():
    g = invert(germ(X * 2, Y * Fraction(1, 2)))
    assert g.image1 == (X * Fraction(1, 2)).to_series(16)
    assert g.image2 == (Y * 2).to_series(16)


def test_invert_geometric():
    f = germ(X + X * Y, Y)
    g = invert(f)
    # verify by composing both ways
    from germindex import SeriesPair

    pair = SeriesPair(g.image1, g.image2)
    assert f.image1.compose(pair) == Poly2.variable(1).to_series(16)
    pair2 = SeriesPair(f.image1, f.image2)
    assert g.image1.compose(pair2) == Poly2.variable(1).to_series(16)


def test_invert_singular_raises():
    with pytest.raises(NotInvertible):
        invert(germ(X + Y, X + Y + X**2))


# -- guided iterate decomposition ----------------------------------------------


def test_guided_decomposition_matches_polynomial_path():
    f = cubic_corner_map(u1=ONE + Y)
    base = decompose(f)
    f2 = iterate(f, 2)
    guided = decompose_iterate_guided(base, f2)
    exact = decompose(f2)
    assert exact.g == base.g
    assert guided.h1 == exact.h1.to_series(guided.h1.precision)
    assert guided.h2 == exact.h2.to_series(guided.h2.precision)
