"""Deterministic input generation and the benchmark's reference values."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    cls = workloads.CLASSES[name]
    first = workloads.input_hash(cls(11, 1))
    assert workloads.input_hash(cls(11, 1)) == first
    assert workloads.input_hash(cls(12, 1)) != first


def test_sizes_follow_seconds_in_whole_strata():
    small, large = workloads.Type2Sweep(3, 1), workloads.Type2Sweep(3, 20)
    assert len(small.germs) == 32 and len(large.germs) % 32 == 0
    assert len(large.germs) > len(small.germs)
    cli = workloads.CliCold(3, 10)
    assert len(cli.requests) % len(workloads.CLI_SUBCOMMANDS) == 0


def test_type2_templates_are_coprime():
    from germindex import Poly2
    from germindex.polys import gcd2

    rng = random.Random(5)
    for kind in workloads.TYPE2_KINDS:
        for template in workloads.type2_templates(rng, kind, 60):
            _g, h1, h2 = (Poly2.from_terms(t) for t in template)
            assert gcd2(h1, h2).is_constant(), (kind, h1, h2)


def test_henon_maps_fix_an_isolated_origin():
    from germindex.oracle import PolynomialMap, fixed_multiplicity

    rng = random.Random(6)
    for support in workloads.Q_SUPPORTS:
        for p1, p2 in workloads.henon_maps(rng, support, 9):
            assert p1.constant_term() == 0 and p2.constant_term() == 0
            assert fixed_multiplicity(PolynomialMap(p1, p2), (0, 0), 1) >= 1


def test_balanced_draws_every_value_equally_often():
    from collections import Counter

    draws = workloads.balanced(random.Random(1), range(-3, 4), 16)
    assert len(draws) == 16
    assert sorted(Counter(draws).values()) == [2] * 5 + [3] * 2


def test_cubic_reference_values_match_the_frozen_counts():
    # acceptance criterion 4: L(f^n) - xi_1 with xi_1 = 8
    for n, count in enumerate(workloads.CUBIC_COUNTS, start=1):
        assert workloads.cubic_lefschetz(n) - 8 == count
    rows = [{"n": n, "isolated_periodic": c, "lefschetz": c + 8}
            for n, c in enumerate(workloads.CUBIC_COUNTS[:3], start=1)]
    assert workloads.check_count(rows, 3)
    rows[2]["isolated_periodic"] += 1
    assert not workloads.check_count(rows, 3)


def test_oracle_curve_against_engine_without_branches_is_a_disagreement(monkeypatch):
    import germindex.oracle
    from germindex.errors import NonIsolated

    def curve(*args):
        raise NonIsolated("a curve of fixed points passes through (0, 0)")

    work = workloads.IsolatedDeep(4, 1)
    request = next(r for r in work.requests
                   if work.points[r[0]][0] == "remark42:origin" and r[1] == 1)
    monkeypatch.setattr(germindex.oracle, "fixed_multiplicity", curve)
    outcome = work.execute(request)
    assert outcome["branches"] == 0 and outcome["oracle"] == "non-isolated"
    assert work.verify([outcome], None) == ["disagree"]
    assert "disagree" not in work.KNOWN_FAILURES
