"""Frozen CLI output: every subcommand on every bundled fixture, in both
output formats, must print exactly the stdout stored under tests/golden/
and exit with the stored code.

The cases run in-process through germindex.cli.main.  To re-capture the
golden files after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/golden/ before committing it.
"""

import json
import sys
from pathlib import Path

import pytest

from germindex.cli import main
from germindex.scenario import FIXTURE_NAMES

GOLDEN = Path(__file__).parent / "golden"

# the germ each fixture's index subcommand reports on
INDEX_GERM = {"remark42": "origin", "remark43": "origin", "cubic-d4": "u1"}

VARIANTS = {
    "index_n1": lambda fx: ["index", "--germ", INDEX_GERM[fx], "--n", "1"],
    "index_n2": lambda fx: ["index", "--germ", INDEX_GERM[fx], "--n", "2"],
    "classify": lambda fx: ["classify"],
    "lefschetz": lambda fx: ["lefschetz", "--n-range", "1..3"],
    "count": lambda fx: ["count", "--n-range", "1..3"],
    "validate": lambda fx: ["validate"],
    "verify": lambda fx: ["verify", "--n-max", "2"],
}

CASES = [(fx, variant, fmt) for fx in FIXTURE_NAMES for variant in VARIANTS
         for fmt in ("json", "table")]


def case_name(fx: str, variant: str, fmt: str) -> str:
    return f"{fx}.{variant}.{fmt}"


def case_argv(fx: str, variant: str, fmt: str) -> list:
    return VARIANTS[variant](fx) + ["--fixture", fx, "--format", fmt]


def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fx,variant,fmt", CASES,
                         ids=[case_name(*c) for c in CASES])
def test_cli_output_matches_golden(capsys, fx, variant, fmt):
    name = case_name(fx, variant, fmt)
    code = main(case_argv(fx, variant, fmt))
    out = capsys.readouterr().out
    assert code == exit_codes()[name]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _capture() -> None:
    """Rewrite every golden file from the current code."""
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        name = case_name(*case)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = main(case_argv(*case))
        (GOLDEN / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_capture())
