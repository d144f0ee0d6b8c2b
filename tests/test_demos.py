"""Frozen demo output: each script under demos/ must print exactly the
stdout stored under tests/golden/demos/.

Each demo runs in a fresh interpreter with the package's src/ on its path.
To re-capture the golden files after an intended output change, run

    for f in demos/*.py; do
        PYTHONPATH=src python "$f" > tests/golden/demos/$(basename "$f" .py).txt
    done

and review the diff of tests/golden/demos/ before committing it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
