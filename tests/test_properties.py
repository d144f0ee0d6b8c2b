"""Cross-cutting invariants beyond the acceptance gate: iterate cofactor
congruences, curved-branch stability, iterates decomposed by their base's
curve factor, negative controls."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germindex import (
    MapGerm,
    NonIsolated,
    NotCoprime,
    Poly2,
    decompose,
    delta,
    iterate,
    local_index,
)
from germindex.germs import (
    TYPE_II,
    GermDecomposition,
    _intersection_number,
    branches,
    classify_branch,
)
from germindex.oracle import local_multiplicity
from germindex.reports import jsonable

from germ_samples import (
    index_data,
    parabola_type_two_germ,
    type_two_germ,
)

X = Poly2.variable(1)
Y = Poly2.variable(2)


def membership_to_degree(element, generators, D: int) -> bool:
    """Truncated ideal membership: does element lie in the span of
    {monomial * gen : monomial of degree < D} modulo terms of total degree
    >= D?  Row reduction over Q, each row keyed by its least monomial."""
    pivots = {}

    def reduce(row):
        while row:
            lead = min(row, key=lambda e: (e[0] + e[1], e))
            if lead not in pivots:
                return row
            f = row[lead] / pivots[lead][lead]
            for e, c in pivots[lead].items():
                row[e] = row.get(e, 0) - f * c
                if row[e] == 0:
                    del row[e]
        return row

    for d in range(D):
        for i in range(d + 1):
            for gen in generators:
                row = reduce({(i + a, d - i + b): c
                              for (a, b), c in gen.coeff.items()
                              if d + a + b < D})
                if row:
                    pivots[min(row, key=lambda e: (e[0] + e[1], e))] = row
    return not reduce({e: c for e, c in element.coeff.items() if e[0] + e[1] < D})


def test_iterate_cofactors_congruent_to_n_times_base():
    """For a germ with a type II branch p, the iterate cofactors satisfy
    h_{n,i} = n * h_i modulo the ideal generated by p*h1, p*h2, checked as
    truncated linear algebra below the working degree."""
    rng = random.Random(40)
    checked = 0
    while checked < 25:
        germ = type_two_germ(rng)
        dec = decompose(germ)
        two = [b for b in (classify_branch(dec, b) for b in branches(dec))
               if b.branch_type == TYPE_II]
        p = two[0].defining_polynomial
        gens = [p * dec.h1, p * dec.h2]
        for n in (2, 3):
            dn = decompose(iterate(germ, n))
            assert dn.g == dec.g
            for hn, h in ((dn.h1, dec.h1), (dn.h2, dec.h2)):
                e = hn - h * n
                assert membership_to_degree(e, gens, 10), (germ, n)
        checked += 1


def test_negative_control_no_type_two_branch():
    """The quadratic fixture map has no branches at the origin and its
    index genuinely changes under iteration: stability must not be
    asserted without a type II branch."""
    f = MapGerm.from_polynomials(X * -2 - X**2 - Y, X)
    assert local_index(f).branches == []
    assert local_index(f).nu_A == 1
    assert local_index(iterate(f, 2)).nu_A == 3


def test_curved_type_two_branch_stable_under_iteration():
    rng = random.Random(41)
    for _ in range(3):
        germ = parabola_type_two_germ(rng)
        base = index_data(germ)
        assert any(b[2] == TYPE_II for b in base["branches"])
        for n in (2, 3):
            assert index_data(iterate(germ, n)) == base, n


def test_iterate_route_agrees_with_gcd_route():
    rng = random.Random(42)
    for _ in range(10):
        germ = type_two_germ(rng)
        base = decompose(germ)
        it = iterate(germ, 3)
        dec = decompose(it)
        exact = decompose(MapGerm.from_polynomials(it.poly1, it.poly2))
        assert dec.g == exact.g == base.g
        assert (dec.h1, dec.h2) == (exact.h1, exact.h2)
        assert delta(dec) == delta(exact)


def _stability_family():
    rng = random.Random(47)  # the fifth germ has delta 1: its iterates fall back
    yield from (type_two_germ(rng) for _ in range(12))
    yield from (parabola_type_two_germ(rng) for _ in range(3))


def test_iterate_reports_match_the_rebuilt_map():
    """The rebuilt map has no base, so it takes the gcd route: this checks
    the carried-over curve factor without leaning on stability."""
    for germ in _stability_family():
        for n in (2, 3, 4):
            it = iterate(germ, n)
            rebuilt = MapGerm.from_polynomials(it.poly1, it.poly2)
            assert jsonable(local_index(it)) == jsonable(local_index(rebuilt)), \
                (germ, n)


def test_iterates_with_a_unit_cofactor_make_no_cas_call(monkeypatch):
    import germindex.germs as germs

    calls = {"gcd2": 0, "factor_list2": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(germs, "gcd2", counting("gcd2", germs.gcd2))
    monkeypatch.setattr(germs, "factor_list2",
                        counting("factor_list2", germs.factor_list2))
    checked = 0
    for germ in _stability_family():
        if local_index(germ).delta != 0:
            continue  # both cofactors vanish at 0: the iterates fall back
        before = dict(calls)
        for n in (2, 3, 4):
            local_index(iterate(germ, n))
        assert calls == before, germ
        checked += 1
    assert checked >= 5


def test_decomposition_reproduces_differences_on_samples():
    rng = random.Random(44)
    for _ in range(20):
        germ = type_two_germ(rng)
        dec = decompose(germ)
        d1, d2 = germ.map.fixed_system()
        assert dec.g * dec.h1 == d1
        assert dec.g * dec.h2 == d2


# polynomials through the origin of degree <= 3
origin_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 0 < sum(e) <= 3),
    st.integers(-2, 2).filter(bool), min_size=1, max_size=3).map(Poly2.from_terms)


@st.composite
def elimination_systems(draw):
    """A pair (P, Q), as drawn or times a common factor that is a unit at
    the origin or passes through it."""
    P, Q = draw(origin_polys), draw(origin_polys)
    common = draw(st.sampled_from((None, "unit", "origin")))
    if common is not None:
        F = draw(origin_polys)
        if common == "unit":
            F = F + draw(st.sampled_from((1, -1, 2)))
        P, Q = P * F, Q * F
    return P, Q


@given(elimination_systems())
@settings(max_examples=80)
def test_local_multiplicity_matches_delta(system):
    """The elimination oracle and truncated linear algebra agree on every
    pair, and find a common component through the origin together."""
    P, Q = system
    dec = GermDecomposition(g=Poly2.constant(1), h1=P, h2=Q, factors=[])
    try:
        want = delta(dec)
    except NotCoprime:
        with pytest.raises(NonIsolated):
            local_multiplicity(P, Q)
    else:
        assert local_multiplicity(P, Q) == want


# polynomials through the origin of degree <= 4 with rational coefficients
rational_origin_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: 0 < sum(e) <= 4),
    st.fractions(min_value=-7, max_value=7, max_denominator=6).filter(bool),
    min_size=1, max_size=4).map(Poly2)


@given(rational_origin_polys, rational_origin_polys, rational_origin_polys)
@settings(max_examples=60)
def test_intersection_number_matches_the_oracle(P, Q, F):
    """The fraction-free elimination on the integer numerators gives the
    oracle's multiplicity, and None once a common factor through the origin
    is multiplied in."""
    try:
        want = local_multiplicity(P, Q)
    except NonIsolated:
        assert _intersection_number(P, Q) is None
    else:
        assert _intersection_number(P, Q) == want
    assert _intersection_number(P * F, Q * F) is None


def test_three_way_index_agreement_at_isolated_points():
    """Random branch-free germs: linear algebra, sheared resultants and the
    global elimination oracle must give one and the same multiplicity."""
    from germindex.oracle import PolynomialMap, fixed_multiplicity
    from germ_samples import coprime_cofactor_pair

    rng = random.Random(45)
    checked = 0
    while checked < 30:
        h1, h2 = coprime_cofactor_pair(rng)
        if h1.constant_term() != 0 or h2.constant_term() != 0:
            continue  # oracle counts only genuinely fixed points
        germ = MapGerm.from_polynomials(X + h1, Y + h2)
        dec = decompose(germ)
        if not dec.g.is_constant():
            continue  # a curve through the origin: not the isolated case
        d = delta(dec)
        assert local_multiplicity(dec.h1, dec.h2) == d
        assert local_index(germ).nu_A == d
        oracle = fixed_multiplicity(PolynomialMap(X + h1, Y + h2), (0, 0), 1)
        assert oracle == d, (h1, h2)
        checked += 1


def test_henon_engine_index_matches_the_oracle():
    """Henon-like maps (a z1 + b z2 + q, z1) with q quadratic: the engine's
    nu_A of f^n is the oracle's multiplicity of f^n(z) = z at the origin,
    n <= 3.  With a + b = 1, Df(0) has the eigenvalue 1; with b = 1 + a it
    has -1, so f^2 is degenerate.  Those iterates take decompose's gcd
    route, the generic ones mostly skip it."""
    from germindex import NonIsolated, UnsupportedSingularBranch
    from germindex.oracle import PolynomialMap, fixed_multiplicity

    rng = random.Random(6)
    values = [Fraction(k, d) for k in range(-3, 4) if k for d in (1, 2, 3)]
    quadratic = [(2, 0), (1, 1), (0, 2)]
    degenerate = 0
    for kind in ("generic", "a + b = 1", "lambda = -1"):
        for _ in range(12):
            a = rng.choice(values)
            b = {"generic": rng.choice(values), "a + b = 1": 1 - a, "lambda = -1": 1 + a}[kind]
            q = Poly2.from_terms({e: rng.choice(values)
                                  for e in rng.sample(quadratic, rng.randint(1, 3))})
            p1, p2 = X * a + Y * b + q, X
            for n in (1, 2, 3):
                # None: a curve of fixed points through the origin
                try:
                    oracle = fixed_multiplicity(PolynomialMap(p1, p2), (0, 0), n)
                except NonIsolated:
                    oracle = None
                try:
                    report = local_index(iterate(MapGerm.from_polynomials(p1, p2), n))
                    engine = None if report.branches else report.nu_A
                except UnsupportedSingularBranch:
                    engine = None
                assert engine == oracle, (p1, n)
                if oracle is not None and (kind == "a + b = 1"
                                           or (kind == "lambda = -1" and n == 2)):
                    assert oracle >= 2
                    degenerate += 1
    assert degenerate >= 30


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _mobius_inverse(seq) -> list[int]:
    """sum over d | n of mobius(n/d) * i_d, for n = 1, 2, ... and i_1, i_2,
    ... in seq."""
    return [sum(_mobius(n // d) * seq[d - 1] for d in range(1, n + 1) if n % d == 0)
            for n in range(1, len(seq) + 1)]


def _dold_residues(seq) -> list[int]:
    """_mobius_inverse(seq) mod n, term by term (A. Dold, Fixed point
    indices of iterated maps, Invent. Math. 74, 1983)."""
    return [a % n for n, a in enumerate(_mobius_inverse(seq), 1)]


@pytest.mark.parametrize("p1, levels, indices", [
    (-X - Y + X**2, {1, 3}, [1, 1, 4, 1, 1, 4]),
    (-Y + X**2, {1, 4}, [1, 1, 1, 13, 1, 1]),
    (X - Y - X * Y, {1, 6}, [1, 1, 1, 1, 1, 13]),
    (X * -2 - Y - X**2, {1, 2}, [1, 3, 1, 3, 1, 3]),
], ids=["order_3", "order_4", "order_6", "eigenvalue_-1"])
def test_index_sequences_at_root_of_unity_eigenvalues(p1, levels, indices):
    """(p1, z1) fixes the origin, where Df(0) has a root of unity of order
    3, 4 or 6 as eigenvalue, or -1.  Engine and oracle agree on i_n, the
    index of f^n there, for n <= 6, and a_n = sum over d | n of
    mobius(n/d) * i_d vanishes unless n lies in `levels`: the lcm-closure
    of 1 and those orders (Shub-Sullivan; Babenko-Bogatyi)."""
    from germindex.oracle import PolynomialMap, fixed_multiplicity

    germ = MapGerm.from_polynomials(p1, X)
    engine = [local_index(iterate(germ, n)).nu_A for n in range(1, 7)]
    oracle = [fixed_multiplicity(PolynomialMap(p1, X), (0, 0), n) for n in range(1, 7)]
    assert engine == oracle == indices
    assert _dold_residues(engine) == [0] * 6
    assert [n for n, a in enumerate(_mobius_inverse(engine), 1)
            if a and n not in levels] == []


def test_dold_congruences_local_index_remark42():
    from germindex.scenario import load_fixture

    germ = load_fixture("remark42").germs["origin"]
    nus = [local_index(iterate(germ, n)).nu_A for n in range(1, 6)]
    assert _dold_residues(nus) == [0] * 5, nus


def test_dold_congruences_oracle_multiplicities_remark42():
    from germindex.oracle import fixed_multiplicity
    from germindex.scenario import load_fixture

    pmap = load_fixture("remark42").maps["f"]
    for point in ((0, 0), (-4, -4)):
        mus = [fixed_multiplicity(pmap, point, n) for n in range(1, 41)]
        assert _dold_residues(mus) == [0] * 40, (point, mus)


def test_dold_congruences_cubic_lefschetz_and_counts():
    from germindex.scenario import load_fixture
    from germindex.surface import count_isolated_periodic, lefschetz_number

    model = load_fixture("cubic-d4").require_model()
    lefschetz, counts = [], []
    for n in range(1, 9):
        value = lefschetz_number(model.action, n)
        assert value.is_rational() and value.a.denominator == 1
        lefschetz.append(value.a.numerator)
        counts.append(count_isolated_periodic(model, n).count_isolated)
    assert _dold_residues(lefschetz) == [0] * 8, lefschetz
    assert _dold_residues(counts) == [0] * 8, counts
    # a sequence that breaks the congruences at n = 2 is caught
    assert _dold_residues([1, 2])[1] != 0
