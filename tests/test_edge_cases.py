"""Adversarial corners: shear fallbacks, tangency, high orders along a
branch, scenario error paths."""

from fractions import Fraction

import pytest

from germindex import (
    MapGerm,
    Poly2,
    ScenarioError,
    branches,
    classify_branch,
    decompose,
    delta,
    local_index,
)
from germindex.germs import TYPE_II, GermDecomposition
from germindex.oracle import PolynomialMap, fixed_multiplicity, local_multiplicity
from germindex.scenario import load_scenario

X = Poly2.variable(1)
Y = Poly2.variable(2)
ONE = Poly2.constant(1)


# -- elimination route under adversarial geometry ------------------------------


def test_delta_resultant_other_zero_on_initial_line():
    # common zeros (0,0) and (1,0) share the z2 = 0 line until sheared away
    dec = GermDecomposition(g=ONE, h1=Y, h2=X * (X - 1), factors=[])
    assert delta(dec) == 1
    assert local_multiplicity(dec.h1, dec.h2) == 1


def test_delta_resultant_shears_collide_with_conjugate_zeros():
    # common zeros (0,0) and (1,-1), (-1,-1): the shears c = 1 and c = -1
    # each move one of them onto the z2-level of the origin and must be
    # rejected by the line-isolation certificate
    h1 = X * (Y + 1)
    h2 = Y + X**2
    dec = GermDecomposition(g=ONE, h1=h1, h2=h2, factors=[])
    assert delta(dec) == 1
    assert local_multiplicity(dec.h1, dec.h2) == 1


def test_delta_tangential_intersections():
    cases = [
        (Y - X**2, Y + X**2, 2),   # two smooth curves meeting to order 2
        (Y - X**2, Y, 2),
        (X**3 - Y**2, Y, 3),
        (X**2 - Y**3, X**2 + Y**3, 6),
        (X**2, Y**2, 4),
    ]
    for h1, h2, want in cases:
        dec = GermDecomposition(g=ONE, h1=h1, h2=h2, factors=[])
        assert delta(dec) == want, (h1, h2)
        assert local_multiplicity(dec.h1, dec.h2) == want, (h1, h2)


def test_oracle_agrees_on_tangential_point():
    # f(z) = (z1 + (z2 - z1^2), z2 + (z2 + z1^2)) has fixed-point system
    # (z2 - z1^2, z2 + z1^2) with an order-2 contact at the origin
    pmap = PolynomialMap(X + (Y - X**2), Y + (Y + X**2))
    assert fixed_multiplicity(pmap, (0, 0), 1) == 2


# -- high orders along a branch ---------------------------------------------------


def test_classify_gives_exact_high_orders():
    # branch z1 of type II whose restricted form has order k: the search
    # has no cap, so mu_p = k however large
    for k in (30, 70, 200):
        germ = MapGerm.from_polynomials(X + X**2, Y + X * Y**k)
        dec = decompose(germ)
        (target,) = [b for b in branches(dec) if b.defining_polynomial == X]
        assert classify_branch(dec, target).mu_p == k


def test_high_order_type_two_branch_in_the_local_index():
    p1 = X + X**2
    p2 = Y + X * Y**30
    germ = MapGerm.from_polynomials(p1, p2)
    rep = local_index(germ)
    z1_branch = [b for b in rep.branches if b.defining_polynomial == X][0]
    assert z1_branch.branch_type == TYPE_II
    assert z1_branch.mu_p == 30


def test_order_does_not_depend_on_the_germ_precision():
    # germs are exact polynomials with no working precision to cap the
    # search, so the order-18 branch is classified exactly
    p1 = X + X**2
    p2 = Y + X * Y**18
    germ = MapGerm.from_polynomials(p1, p2)
    dec = decompose(germ)
    target = [b for b in branches(dec) if b.defining_polynomial == X][0]
    done = classify_branch(dec, target)
    assert done.mu_p == 18


# -- germ plumbing -------------------------------------------------------------


def test_germ_must_fix_origin():
    with pytest.raises(ValueError):
        MapGerm.from_polynomials(X + 1, Y)


def test_branch_key_ignores_scaling():
    from germindex.germs import BranchRecord

    a = BranchRecord(Y - X**2, 1)
    b = BranchRecord((Y - X**2) * Fraction(-3, 7), 1)
    assert a.key() == b.key()


# -- scenario error paths --------------------------------------------------------


def test_scenario_rejects_unfixed_base_point():
    doc = {
        "maps": {"f": ["z1 + 1", "z2"]},
        "germs": {"bad": {"map": "f", "base_point": [0, 0]}},
    }
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_scenario_rejects_unknown_map_reference():
    doc = {"germs": {"bad": {"map": "nope", "base_point": [0, 0]}}}
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_scenario_rejects_dangling_curve_in_point():
    doc = {
        "germs": {"g": {"images": ["z1 + z1^2", "z2"]}},
        "action": {"mode": "h1trivial", "matrix": [[1]],
                   "picard_number": 1, "algebraically_stable": True},
        "points": [{"label": "p", "prime_period": 1, "on_curves": ["missing"]}],
    }
    with pytest.raises(ScenarioError, match="unknown curve missing"):
        load_scenario(doc)


def test_scenario_rational_base_point():
    doc = {
        "maps": {"f": ["z1 + (z1 - 1/2)^2 - 1/16", "z2"]},
        "germs": {"g": {"map": "f", "base_point": ["1/4", 0]}},
    }
    scn = load_scenario(doc)
    # (1/4 - 1/2)^2 - 1/16 = 0, so the point is fixed.  It lies on the fixed
    # vertical line z1 = 1/4 (the whole line is fixed since z2 is unmoved),
    # so the local picture is one type I branch with zero order: index 0.
    rep = local_index(scn.germs["g"])
    assert rep.delta == 0 and rep.nu_A == 0
    (branch,) = rep.branches
    assert branch.branch_type == "I" and branch.mu_p == 0
