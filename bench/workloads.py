"""The benchmark's three workloads: seeded inputs, requests, reference checks.

Every workload is a fixed list of requests generated from (seed, seconds)
before timing starts; the request count grows with `seconds` so that one
pass takes at least about that long on a 2-core x86 machine (Python 3.11,
sympy 1.14).  `execute` is the timed part of a request; `verify` runs after
the timed loop and checks each request against its reference, returning a
failure kind or None for each.

type2_sweep    germs of the type II family of acceptance criterion 05,
               local_index(iterate(germ, n)) for n = 1..4.  Checked by the
               stability theorem (data at n equals data at 1) and by
               oracle.fixed_index_positive == (nu > 0).
isolated_deep  Henon-like quadratic maps (a z1 + b z2 + q, z1) fixing the
               origin, plus remark42's two fixed points, queried as a
               verify cross-run: engine, then oracle, which must agree.
cli_cold       one fresh `python3 -m germindex.cli` process per request,
               checked against the frozen acceptance values and for
               byte-identical stdout across repeats.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


class RequestTimeout(Exception):
    """A request ran past its time limit."""


class CliExit(Exception):
    """A CLI process exited with a non-zero code."""


def _sized(seconds: float, per_second: float, stratum: int) -> int:
    """Number of inputs for a pass of at least about `seconds`: the fewest
    whole strata, so that every stratum is equally represented."""
    return stratum * max(1, math.ceil(seconds * per_second / stratum))


def _index_stats(outcomes) -> dict:
    done = [o for o in outcomes if isinstance(o, dict)]
    degrees = [o["degree"] for o in done]
    return {
        "iterate_degree_max": max(degrees, default=0),
        "iterate_degree_mean": round(sum(degrees) / len(degrees), 3) if degrees else 0,
        "branches_total": sum(o["branches"] for o in done),
        "nu_histogram": dict(sorted(Counter(o["nu"] for o in done).items())),
    }


def _report_data(report):
    return (report.delta, report.nu_A, sorted(
        (b.key(), b.nu_p, b.branch_type, b.mu_p) for b in report.branches))


def _iterate_degree(germ) -> int:
    return max(germ.poly1.total_degree(), germ.poly2.total_degree())


def balanced(rng: random.Random, values, count: int) -> list:
    """`count` values in a seeded order, each of `values` equally often
    (up to one): a stratified draw, so that seeds differ in values, not in
    how costly their inputs are on the whole."""
    out: list = []
    while len(out) < count:
        cycle = list(values)
        rng.shuffle(cycle)
        out += cycle
    return out[:count]


# ---------------------------------------------------------------------------
# type2_sweep
# ---------------------------------------------------------------------------

# the linear conjugations and curve templates of acceptance criterion 05
LINEAR_CONJUGATIONS = (
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((2, 1), (1, 1)),
    ((1, -1), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (0, 2)),
    ((1, 2), (1, 3)),
)
TYPE2_KINDS = ("line", "double_line", "cross", "line_swap")


NONZERO = (-2, -1, 1, 2)
SMALL = (-2, -1, 0, 1, 2)


def type2_templates(rng: random.Random, kind: str, count: int) -> list:
    """`count` (g, h1, h2) exponent-dict templates of one kind, h1 and h2
    coprime, with the coefficient ranges of the criterion 05 generator.

    Each coefficient is drawn balanced across the templates (see
    `balanced`), since the iterates' cost grows with c and with the
    coefficient of the variable that g does not contain.  The generator's
    rare c = 0 case (h1 or h2 zero, h the other a nonzero constant) is left
    out: `double_line` and `cross` already cover a constant h.  Where a
    draw would make h1 and h2 share the factor g, a is redrawn nonzero.
    """
    if kind in ("double_line", "cross"):
        g = {(2, 0): 1} if kind == "double_line" else {(1, 1): 1}
        return [(g, {}, {(0, 0): h}) for h in balanced(rng, NONZERO, count)]
    draws = zip(balanced(rng, (1, 2), count), balanced(rng, SMALL, count),
                balanced(rng, SMALL, count), balanced(rng, SMALL, count))
    out = []
    for c, a, key, other in draws:
        if a == 0 and key == 0:
            a = rng.choice(NONZERO)
        if kind == "line":  # g = z1, h1 = c z1, h2 = a + b z1 + d z2
            out.append(({(1, 0): 1}, {(1, 0): c}, {(0, 0): a, (1, 0): other, (0, 1): key}))
        else:  # line_swap: g = z2, h1 = a + b z1 + d z2, h2 = c z2
            out.append(({(0, 1): 1}, {(0, 0): a, (1, 0): key, (0, 1): other}, {(0, 1): c}))
    return out


def type2_germ(template, conjugation):
    """S^-1 o (z + g h) o S for a (g, h1, h2) template."""
    from germindex import MapGerm, Poly2

    g, h1, h2 = (Poly2.from_terms(t) for t in template)
    x, y = Poly2.variable(1), Poly2.variable(2)
    p1, p2 = x + g * h1, y + g * h2
    (a, b), (c, d) = conjugation
    det = Fraction(a * d - b * c)
    sx, sy = x * a + y * b, x * c + y * d
    q1, q2 = p1.compose(sx, sy), p2.compose(sx, sy)
    return MapGerm.from_polynomials(q1 * (d / det) - q2 * (b / det),
                                    q2 * (a / det) - q1 * (c / det))


class Type2Sweep:
    name = "type2_sweep"
    in_process = True
    KNOWN_FAILURES = ()
    time_limit_s = 30.0
    PROBE = "kernel"  # see calib.py
    GERMS_PER_SECOND = 6.4
    ITERATES = (1, 2, 3, 4)
    ORACLE_ITERATES = (1, 2)

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(f"{self.name}:{seed}")
        strata = [(k, s) for k in TYPE2_KINDS for s in LINEAR_CONJUGATIONS]
        count = _sized(seconds, self.GERMS_PER_SECOND, len(strata))
        # balanced within each stratum: the costly conjugations get cheap and
        # costly coefficients alike on every seed
        picks = [(template, s) for kind, s in strata
                 for template in type2_templates(rng, kind, count // len(strata))]
        rng.shuffle(picks)
        self.germs = [type2_germ(template, s) for template, s in picks]
        self.requests = [(i, n) for i in range(len(self.germs)) for n in self.ITERATES]

    def input_lines(self):
        return [f"{g.poly1!r} | {g.poly2!r}" for g in self.germs] + [
            f"n={self.ITERATES}"]

    def execute(self, request):
        from germindex.germs import iterate, local_index

        index, n = request
        it = iterate(self.germs[index], n)
        report = local_index(it)
        return {"data": _report_data(report), "nu": report.nu_A,
                "branches": len(report.branches), "degree": _iterate_degree(it)}

    def verify(self, outcomes, guard):
        """Stability theorem: with a type II branch the index data of every
        iterate equals that of the germ.  Oracle: positivity of the index
        by elimination on the global map, at n = 1 and 2 (stability carries
        it to the others; the oracle at n = 4 costs half the timed pass)."""
        from germindex.oracle import PolynomialMap, fixed_index_positive

        base = {i: o["data"] for (i, n), o in zip(self.requests, outcomes)
                if n == 1 and isinstance(o, dict)}
        kinds = []
        for (i, n), o in zip(self.requests, outcomes):
            if not isinstance(o, dict):
                kinds.append(o)
                continue
            positive = o["nu"] > 0
            if n in self.ORACLE_ITERATES:
                germ = self.germs[i]
                positive = guard(fixed_index_positive,
                                 PolynomialMap(germ.poly1, germ.poly2), (0, 0), n)
            if isinstance(positive, str):
                kinds.append("reference_" + positive)
            elif positive != (o["nu"] > 0):
                kinds.append("disagree")
            elif i in base and o["data"] != base[i]:
                kinds.append("unstable")
            else:
                kinds.append(None)
        return kinds

    def stats(self, outcomes) -> dict:
        return {"germs": len(self.germs), **_index_stats(outcomes)}


# ---------------------------------------------------------------------------
# isolated_deep
# ---------------------------------------------------------------------------

# every non-empty support of the quadratic part q
Q_SUPPORTS = tuple(
    tuple(e for e, bit in zip(((2, 0), (1, 1), (0, 2)), (m & 1, m & 2, m & 4)) if bit)
    for m in range(1, 8))


def henon_maps(rng: random.Random, support, count: int) -> list:
    """`count` maps (a z1 + b z2 + q(z1, z2), z1) with q supported on
    `support` and the origin an isolated fixed point; a, b and each
    coefficient of q are drawn balanced across the maps.

    The fixed points lie on z1 = z2, where the first equation reads
    (a + b - 1) t + q(1, 1) t^2 = 0: the origin is isolated unless both
    coefficients vanish, and then negating one coefficient of q repairs it.
    """
    from germindex import Poly2

    a_s = balanced(rng, range(-3, 4), count)
    b_s = balanced(rng, NONZERO, count)
    q_s = {e: balanced(rng, NONZERO, count) for e in support}
    maps = []
    for k in range(count):
        q = {e: q_s[e][k] for e in support}
        if a_s[k] + b_s[k] - 1 == 0 and sum(q.values()) == 0:
            q[support[0]] = -q[support[0]]
        maps.append((Poly2.from_terms({(1, 0): a_s[k], (0, 1): b_s[k], **q}),
                     Poly2.variable(1)))
    return maps


class IsolatedDeep:
    name = "isolated_deep"
    in_process = True
    # defects of the program that this workload exposes (see README.md)
    KNOWN_FAILURES = ("ShearExhausted", "UnsupportedSingularBranch")
    time_limit_s = 30.0
    PROBE = "kernel"  # see calib.py
    MAPS_PER_SECOND = 2.9
    # three equal groups of requests, whose latencies barely overlap, put
    # the median in the middle of the n = 3 group, not in a gap between two
    MAP_ITERATES = (2, 3, 4)
    FIXTURE_ITERATES = (1, 2, 3, 4, 5)
    FIXTURE_SECONDS = 3.5  # remark42's two points, n <= 5

    def __init__(self, seed: int, seconds: float):
        from germindex import MapGerm
        from germindex.oracle import PolynomialMap
        from germindex.scenario import load_fixture

        rng = random.Random(f"{self.name}:{seed}")
        count = _sized(max(seconds - self.FIXTURE_SECONDS, 1.0),
                       self.MAPS_PER_SECOND, len(Q_SUPPORTS))
        maps = [m for support in Q_SUPPORTS
                for m in henon_maps(rng, support, count // len(Q_SUPPORTS))]
        rng.shuffle(maps)
        scn = load_fixture("remark42")
        self.points = []  # (label, germ, map, point)
        for label in sorted(scn.germs):
            origin = scn.germ_origins[label]
            self.points.append((f"remark42:{label}", scn.germs[label],
                                scn.maps[origin.map_label], origin.base_point))
        for k, (p1, p2) in enumerate(maps):
            self.points.append((f"map{k}", MapGerm.from_polynomials(p1, p2),
                                PolynomialMap(p1, p2), (0, 0)))
        self.requests = [
            (i, n) for i, (label, *_rest) in enumerate(self.points)
            for n in (self.FIXTURE_ITERATES if label.startswith("remark42")
                      else self.MAP_ITERATES)]

    def input_lines(self):
        return [f"{label} {germ.poly1!r} | {germ.poly2!r} at {point}"
                for label, germ, _map, point in self.points] + [
            f"n={self.MAP_ITERATES} fixture n={self.FIXTURE_ITERATES}"]

    def execute(self, request):
        """One verify cross-run: the engine's index, then the oracle's.  As
        in `germindex verify`, an oracle that finds a curve of fixed points
        where the engine finds no branch contradicts the engine."""
        from germindex.errors import NonIsolated
        from germindex.germs import iterate, local_index
        from germindex.oracle import fixed_index_positive, fixed_multiplicity

        i, n = request
        _label, germ, pmap, point = self.points[i]
        it = iterate(germ, n)
        report = local_index(it)
        if report.branches:
            oracle = fixed_index_positive(pmap, point, n)
        else:
            try:
                oracle = fixed_multiplicity(pmap, point, n)
            except NonIsolated:
                oracle = "non-isolated"
        return {"nu": report.nu_A, "oracle": oracle,
                "branches": len(report.branches), "degree": _iterate_degree(it)}

    def verify(self, outcomes, guard):
        kinds = []
        for o in outcomes:
            if not isinstance(o, dict):
                kinds.append(o)
            elif o["branches"]:
                kinds.append(None if o["oracle"] == (o["nu"] > 0) else "disagree")
            else:
                kinds.append(None if o["oracle"] == o["nu"] else "disagree")
        return kinds

    def stats(self, outcomes) -> dict:
        return {"points": len(self.points), **_index_stats(outcomes)}


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

# frozen acceptance values: cubic-d4 isolated periodic counts (criterion 4)
CUBIC_COUNTS = (16, 320, 5776, 103680, 1860496, 33385280)


def cubic_lefschetz(n: int) -> int:
    """L(f^n) = 1 + (a_n + 4) + 1 with a_{k+1} = 18 a_k - a_{k-1}, a_0 = 2,
    a_1 = 18: the trace recurrence of the resolved-cubic fixture."""
    a = [2, 18]
    while len(a) <= n:
        a.append(18 * a[-1] - a[-2])
    return a[n] + 6


CUBIC_BRANCHES = [["z1", 2, "II", 1], ["z2", 1, "II", 1]]


def _branch_rows(rows):
    return sorted([r["factor"], r["nu_p"], r["type"], r["mu_p"]] for r in rows)


def check_index(out, nu=None, delta=None, branches=None) -> bool:
    return ((nu is None or out["nu_A"] == nu)
            and (delta is None or out["delta"] == delta)
            and (branches is None or _branch_rows(out["branches"]) == branches))


def check_classify_remark43(out) -> bool:
    origin = [r for r in out["branches"] if r["germ"] == "origin"]
    return (_branch_rows(origin) == [["z1", 1, "I", origin[0]["mu_p"]]]
            and [(c["curve"], c["type"], c["nu_C"]) for c in out["curves"]]
            == [("C", "I", 1)])


def check_classify_cubic(out) -> bool:
    germs = sorted({r["germ"] for r in out["branches"]})
    return (germs == ["u1", "u2", "u3"]
            and all(_branch_rows([r for r in out["branches"] if r["germ"] == g])
                    == CUBIC_BRANCHES for g in germs)
            and {c["curve"]: c["nu_C"] for c in out["curves"]}
            == {"E0": 2, "E1": 1, "E2": 1, "E3": 1})


def check_lefschetz(out, k) -> bool:
    return [(r["n"], r["lefschetz"]) for r in out] == [
        (n, cubic_lefschetz(n)) for n in range(1, k + 1)]


def check_count(out, k) -> bool:
    return [(r["n"], r["isolated_periodic"], r["lefschetz"]) for r in out] == [
        (n, CUBIC_COUNTS[n - 1], cubic_lefschetz(n)) for n in range(1, k + 1)]


def check_validate(out) -> bool:
    return out == {"algebraically_stable": True, "violations": [],
                   "witness_issues": []}


def check_verify(out, germ, field, expected) -> bool:
    rows = [c for c in out["checks"] if c["germ"] == germ]
    return out["all_agree"] is True and [c[field] for c in rows] == expected


def cli_variants(sub: str) -> list:
    """Every (argv, check) request of subcommand `sub` that cli_cold runs."""
    if sub == "index":
        return [(["index", "--fixture", "remark42", "--n", str(n)],
                 partial(check_index, nu={1: 1, 2: 3}[n], branches=[]))
                for n in (1, 2)] + [
                (["index", "--fixture", "remark43", "--germ", "minus_two", "--n", str(n)],
                 partial(check_index, nu={1: 0, 2: 2}[n]))
                for n in (1, 2)] + [
                (["index", "--fixture", "cubic-d4", "--germ", germ, "--n", "1"],
                 partial(check_index, nu=4, delta=1, branches=CUBIC_BRANCHES))
                for germ in ("u1", "u2", "u3")]
    if sub == "classify":
        return [(["classify", "--fixture", "remark43"], check_classify_remark43),
                (["classify", "--fixture", "cubic-d4"], check_classify_cubic)]
    if sub in ("lefschetz", "count"):
        check = check_lefschetz if sub == "lefschetz" else check_count
        return [([sub, "--fixture", "cubic-d4", "--n-range", f"1..{k}"], partial(check, k=k))
                for k in range(2, 7)]
    if sub == "validate":
        return [(["validate", "--fixture", "cubic-d4"], check_validate)]
    return [(["verify", "--fixture", "remark42", "--n-max", str(m)],
             partial(check_verify, germ="origin", field="engine", expected=[1, 3][:m]))
            for m in (1, 2)] + [
            (["verify", "--fixture", "remark43", "--n-max", str(m)],
             partial(check_verify, germ="minus_two", field="oracle",
                     expected=[False, True][:m]))
            for m in (1, 2)]


CLI_SUBCOMMANDS = ("index", "classify", "lefschetz", "count", "validate", "verify")


def child_env() -> dict:
    """The environment for germindex child processes: src/ on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class CliCold:
    name = "cli_cold"
    in_process = False
    KNOWN_FAILURES = ()
    time_limit_s = 60.0
    PROBE = "child"
    REQUESTS_PER_SECOND = 1.2

    def __init__(self, seed: int, seconds: float, spans_dir: Path | None = None):
        """spans_dir set: run each request through cli_child.py, which
        records spans there."""
        rng = random.Random(f"{self.name}:{seed}")
        count = _sized(seconds, self.REQUESTS_PER_SECOND, len(CLI_SUBCOMMANDS))
        variants = {sub: cli_variants(sub) for sub in CLI_SUBCOMMANDS}
        for options in variants.values():
            rng.shuffle(options)
        self.requests = []
        for round_ in range(count // len(CLI_SUBCOMMANDS)):
            order = list(CLI_SUBCOMMANDS)
            rng.shuffle(order)
            self.requests += [variants[sub][round_ % len(variants[sub])] for sub in order]
        self.spans_dir = spans_dir
        self.child_spans: list[list] = []
        self.calls = 0
        self.env = child_env()

    def input_lines(self):
        return [" ".join(argv) for argv, _check in self.requests]

    def execute(self, request):
        argv = request[0] + ["--format", "json"]
        rid, self.calls = self.calls, self.calls + 1
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "germindex.cli", *argv]
        else:
            spans_file = self.spans_dir / f"cli-{rid}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_file),
                   str(rid), *argv]
        try:
            proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=self.env,
                                  timeout=self.time_limit_s)
        except subprocess.TimeoutExpired as exc:
            raise RequestTimeout(" ".join(argv)) from exc
        if self.spans_dir is not None:
            self.child_spans.append(json.loads(spans_file.read_text()))
            spans_file.unlink()
        if proc.returncode != 0:
            raise CliExit(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return {"stdout": proc.stdout}

    def verify(self, outcomes, guard):
        first: dict[tuple, bytes] = {}
        kinds = []
        for (argv, check), o in zip(self.requests, outcomes):
            if not isinstance(o, dict):
                kinds.append(o)
                continue
            key = tuple(argv)
            if first.setdefault(key, o["stdout"]) != o["stdout"]:
                kinds.append("nondeterministic_output")
                continue
            try:
                ok = check(json.loads(o["stdout"]))
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
            kinds.append(None if ok else "wrong_output")
        return kinds

    def stats(self, outcomes) -> dict:
        return {"subcommands": dict(sorted(Counter(a[0] for a, _ in self.requests).items())),
                "distinct_requests": len({tuple(a) for a, _ in self.requests})}


CLASSES = {cls.name: cls for cls in (Type2Sweep, IsolatedDeep, CliCold)}
WORKLOADS = tuple(CLASSES)


def input_hash(workload) -> str:
    """Fingerprint of a workload's generated inputs."""
    return hashlib.sha256("\n".join(workload.input_lines()).encode()).hexdigest()[:16]
