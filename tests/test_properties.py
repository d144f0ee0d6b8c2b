"""Cross-cutting invariants beyond the acceptance gate: iterate cofactor
congruences, curved-branch stability, guided extraction, negative controls."""

import random
from fractions import Fraction

from germindex import (
    MapGerm,
    Poly2,
    decompose,
    decompose_iterate_guided,
    delta,
    invert,
    iterate,
    local_index,
)
from germindex.germs import TYPE_II, branches, classify_branch, membership_to_degree

from germ_samples import (
    automorphism_pair,
    index_data,
    parabola_type_two_germ,
    type_two_germ,
)

X = Poly2.variable(1)
Y = Poly2.variable(2)


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


def test_guided_extraction_agrees_with_polynomial_path():
    rng = random.Random(42)
    for _ in range(10):
        germ = type_two_germ(rng)
        base = decompose(germ)
        it = iterate(germ, 3)
        guided = decompose_iterate_guided(base, it)
        exact = decompose(it)
        assert exact.g == base.g
        assert guided.h1 == exact.h1.to_series(guided.h1.precision)
        assert guided.h2 == exact.h2.to_series(guided.h2.precision)
        assert delta(guided) == delta(exact)


def test_inverse_composes_to_identity():
    rng = random.Random(43)
    for _ in range(10):
        f, g_exact = automorphism_pair(rng)
        g = invert(f)
        assert g.image1 == g_exact.image1 and g.image2 == g_exact.image2


def test_decomposition_reproduces_differences_on_samples():
    rng = random.Random(44)
    for _ in range(20):
        germ = type_two_germ(rng)
        dec = decompose(germ)
        d1, d2 = germ.differences()
        assert dec.g * dec.h1 == d1
        assert dec.g * dec.h2 == d2


def test_three_way_index_agreement_at_isolated_points():
    """Random branch-free germs: linear algebra, sheared resultants and the
    global elimination oracle must give one and the same multiplicity."""
    from germindex import delta_resultant
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
        assert delta_resultant(dec) == d
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


def _dold_residues(seq) -> list[int]:
    """sum over d | n of mobius(n/d) * a_d, mod n, for a_1, a_2, ... in seq
    (A. Dold, Fixed point indices of iterated maps, Invent. Math. 74, 1983)."""
    return [sum(_mobius(n // d) * seq[d - 1] for d in range(1, n + 1) if n % d == 0) % n
            for n in range(1, len(seq) + 1)]


def test_dold_congruences_local_index_remark42():
    from germindex.scenario import load_fixture

    germ = load_fixture("remark42").germs["origin"]
    nus = [local_index(iterate(germ, n)).nu_A for n in range(1, 6)]
    assert _dold_residues(nus) == [0] * 5, nus


def test_dold_congruences_cubic_lefschetz_and_counts():
    from germindex.scenario import load_fixture
    from germindex.surface import count_isolated_periodic, lefschetz_number

    model = load_fixture("cubic-d4").require_model()
    lefschetz, counts = [], []
    for n in range(1, 9):
        value = lefschetz_number(model.action, n)
        assert value.is_rational() and value.a.denominator == 1
        lefschetz.append(value.a.numerator)
        counts.append(count_isolated_periodic(model, n).count_as_int())
    assert _dold_residues(lefschetz) == [0] * 8, lefschetz
    assert _dold_residues(counts) == [0] * 8, counts
    # a sequence that breaks the congruences at n = 2 is caught
    assert _dold_residues([1, 2])[1] != 0
