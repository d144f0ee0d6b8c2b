"""Command-line surface.

Subcommands, each declared once, in `build_parser`: index, classify,
lefschetz, count, validate, verify.  Every subcommand accepts a positional
scenario path or --fixture NAME, plus --format json|table.  Exit codes:
0 success, 1 domain error, 2 parse/usage/IO error.  Domain errors print a
machine-readable error object on stderr.

Each `cmd_*` returns (exit code, JSON payload, table blocks), a block being
(rows, columns) for `render_table` or ready-made text; `main` alone renders
them, inside the error handling of the computation.

`run()` is the process entry, of `python -m germindex.cli` and of the
`germindex` console script; `main()` is the same command without
process-wide effects, for callers in the same process.  Once every module
is imported, `run()` freezes the collector's view of the heap
(`gc.freeze()`): sympy's import leaves some 51 k tracked objects that live
until the process ends, and without the freeze every full collection,
those at interpreter exit included, walks them again, about a quarter of
a short command's wall time.  A stdout whose reader has gone (`| head`)
ends the command with exit 2 and no traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import (GermIndexError, NonIsolated, ParseError, PrecisionExhausted,
                     ScenarioError)
from .germs import branches, classify_branch, decompose, iterate, local_index
from .oracle import fixed_index_positive, fixed_multiplicity
from .polys import MAX_ITERATE_N
from .reports import emit_json, jsonable, render_table
from .scenario import FIXTURE_NAMES, Scenario, load_fixture, load_scenario_file
from .surface import (
    count_isolated_periodic,
    lefschetz_number,
    validate_periodic_inventory,
)


def _subcommand(subs, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(handler=handler)
    sub.add_argument("scenario", nargs="?", help="path to a scenario JSON document")
    sub.add_argument("--fixture", choices=FIXTURE_NAMES,
                     help="use a bundled fixture instead of a scenario path")
    sub.add_argument("--format", choices=("json", "table"), default="table")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germindex",
        description="Exact fixed-point indices, curve classification and "
                    "periodic-point counts for plane germs and surface models.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "index", cmd_index, "local index report for a germ")
    p.add_argument("--germ", help="germ label (defaults to the only germ)")
    p.add_argument("--n", type=int, default=1, help="iterate to analyze")

    p = _subcommand(subs, "classify", cmd_classify, "branch classification table")
    p.add_argument("--germ", help="restrict to one germ label")

    p = _subcommand(subs, "lefschetz", cmd_lefschetz, "Lefschetz numbers over a range")
    p.add_argument("--n-range", required=True, help="inclusive range a..b")

    p = _subcommand(subs, "count", cmd_count, "isolated periodic point counts")
    p.add_argument("--n-range", required=True, help="inclusive range a..b")

    _subcommand(subs, "validate", cmd_validate, "inventory and witness validation")

    p = _subcommand(subs, "verify", cmd_verify, "cross-run the elimination "
                    "oracle against the germ engine")
    p.add_argument("--n-max", type=int, default=2)
    return parser


def _load(args) -> Scenario:
    if args.fixture and args.scenario:
        raise ScenarioError("give either a scenario path or --fixture, not both")
    if args.fixture:
        return load_fixture(args.fixture)
    if args.scenario:
        return load_scenario_file(args.scenario)
    raise ScenarioError("no input: give a scenario path or --fixture")


def _pick_germ(scn: Scenario, label: str | None):
    if label is not None:
        if label not in scn.germs:
            raise ScenarioError(f"unknown germ {label!r}; available: "
                                f"{', '.join(sorted(scn.germs))}")
        return label, scn.germs[label]
    if len(scn.germs) == 1:
        return next(iter(scn.germs.items()))
    if "origin" in scn.germs:
        return "origin", scn.germs["origin"]
    raise ScenarioError("scenario has several germs; pick one with --germ"
                        if scn.germs else "scenario has no germs")


def _iterate_n(value: int, what: str) -> int:
    """An iterate count given on the command line, refused outside
    1..MAX_ITERATE_N before anything is loaded or computed."""
    if value < 1:
        raise ScenarioError(f"{what} {value} must be 1 or more")
    if value > MAX_ITERATE_N:
        raise PrecisionExhausted(
            f"{what} {value} is out of reach: iterates are composed up to "
            f"n = {MAX_ITERATE_N}")
    return value


def _parse_range(text: str) -> range:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise ScenarioError(f"bad range {text!r}, expected a..b") from exc
    lo = _iterate_n(lo, f"range {text!r} start")
    if hi > MAX_ITERATE_N:
        raise PrecisionExhausted(
            f"range {text!r} is out of reach: n runs up to {MAX_ITERATE_N}")
    return range(lo, hi + 1)  # hi < lo yields an empty range


def cmd_index(args) -> tuple[int, object, list]:
    n = _iterate_n(args.n, "--n")
    scn = _load(args)
    label, germ = _pick_germ(scn, args.germ)
    report = local_index(iterate(germ, n))
    payload = {"germ": label, "n": n, **jsonable(report)}
    blocks = [([payload], ["germ", "n", "delta", "nu_A"])]
    if payload["branches"]:
        blocks.append((payload["branches"], ["factor", "nu_p", "type", "mu_p"]))
    return 0, payload, blocks


def cmd_classify(args) -> tuple[int, object, list]:
    scn = _load(args)
    picked = [_pick_germ(scn, args.germ)] if args.germ else sorted(scn.germs.items())
    rows = []
    for label, germ in picked:
        dec = decompose(germ)
        rows += [{"germ": label, **jsonable(classify_branch(dec, b))}
                 for b in branches(dec)]
    curve_rows = []
    if scn.model is not None:
        for c in scn.model.curves:
            curve_rows.append({
                "curve": c.label,
                "prime_period": c.prime_period,
                "type": c.curve_type,
                "nu_C": c.nu_C,
                "tau": c.self_intersection,
            })
    blocks = [(rows, ["germ", "factor", "nu_p", "type", "mu_p"])]
    if curve_rows:
        blocks.append((curve_rows, ["curve", "prime_period", "type", "nu_C", "tau"]))
    return 0, {"branches": rows, "curves": curve_rows}, blocks


def cmd_lefschetz(args) -> tuple[int, object, list]:
    n_range = _parse_range(args.n_range)
    scn = _load(args)
    model = scn.require_model()
    rows = [{"n": n, "lefschetz": lefschetz_number(model.action, n)}
            for n in n_range]
    return 0, rows, [(rows, ["n", "lefschetz"])]


def cmd_count(args) -> tuple[int, object, list]:
    n_range = _parse_range(args.n_range)
    scn = _load(args)
    model = scn.require_model()
    reports = [count_isolated_periodic(model, n) for n in n_range]
    rows = [{
        "n": r.n,
        "lefschetz": r.lefschetz,
        "xi": r.xi_breakdown,
        "isolated_periodic": r.count_isolated,
        "algebraically_stable": model.action.algebraically_stable,
        "growth_ok": r.growth,
    } for r in reports]
    return 0, rows, [(rows, ["n", "lefschetz", "xi", "isolated_periodic",
                             "algebraically_stable", "growth_ok"])]


def cmd_validate(args) -> tuple[int, object, list]:
    scn = _load(args)
    model = scn.require_model()
    witness_issues = model.validate()
    violations = validate_periodic_inventory(model, scn.intersections)
    lines = [f"algebraic stability asserted: {model.action.algebraically_stable}"]
    if not witness_issues and not violations:
        lines.append("no violations")
    for issue in witness_issues:
        lines.append(f"witness: {issue}")
    for v in violations:
        lines.append(f"{v.kind}: {v.message}")
    return 0, {
        "witness_issues": witness_issues,
        "violations": violations,
        "algebraically_stable": model.action.algebraically_stable,
    }, ["\n".join(lines)]


def cmd_verify(args) -> tuple[int, object, list]:
    n_max = _iterate_n(args.n_max, "--n-max")
    scn = _load(args)
    checks = []
    # each germ holds its map moved to the germ's point (a map germ's is the
    # scenario map localized there), so the oracle reads it at the origin
    for label, germ in sorted(scn.germs.items()):
        for n in range(1, n_max + 1):
            report = local_index(iterate(germ, n))
            if report.branches:
                check = "index_positivity"
                oracle = fixed_index_positive(germ.map, (0, 0), n)
                agree = oracle == (report.nu_A > 0)
            else:
                check = "multiplicity"
                try:
                    oracle = fixed_multiplicity(germ.map, (0, 0), n)
                    agree = oracle == report.nu_A
                except NonIsolated:
                    oracle, agree = "non-isolated", False
            checks.append({"germ": label, "n": n, "check": check,
                           "engine": report.nu_A, "oracle": oracle,
                           "agree": agree})
    ok = all(c["agree"] for c in checks)
    return ((0 if ok else 1), {"checks": checks, "all_agree": ok},
            [(checks, ["germ", "n", "check", "engine", "oracle", "agree"])])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload, blocks = args.handler(args)
        if args.format == "json":
            text = emit_json(payload)
        else:
            text = "\n\n".join(
                block if isinstance(block, str) else render_table(*block)
                for block in blocks)
    except GermIndexError as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, ScenarioError)) else 1
    print(text)
    return code


def run() -> None:
    """The `germindex` process: main() on sys.argv, then exit with its code."""
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone; send what is still buffered to
        # devnull so that the interpreter's own flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    run()
