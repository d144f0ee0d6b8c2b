"""Module structure: the germ engine stands apart from the elimination
oracle that cross-checks it, and no module, test or demo keeps an import
it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "germindex").glob("*.py")
                 if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports (from __future__ aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_sees_names_and_attributes():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom a import b, c\n"
              "def f(x: b) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["j", "c"]


@pytest.mark.parametrize("module", MODULES + SCRIPTS,
                         ids=[p.stem for p in MODULES]
                         + [str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_the_engine_does_not_import_the_oracle():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, germindex.germs; print('germindex.oracle' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
