"""Module structure: the germ engine stands apart from the elimination
oracle that cross-checks it, no module, test or demo keeps an import it
never uses, and the package defines no name that nothing reads."""

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
# the tests are no readers: a name that only a test reads is unused API
READERS = sorted(p for d in ("src", "demos", "bench")
                 for p in (ROOT / d).rglob("*.py"))


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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(source: str) -> list[str]:
    """The module-level functions, classes and constants of a module, and
    the methods of its classes other than dunders, as "name" or
    "Class.method"."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, ast.FunctionDef) and not _dunder(f.name)]
    return [name for name in names if not _dunder(name)]


def read_names(source: str) -> set[str]:
    """Every name a source loads, and every attribute it accesses."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def dead_names(source: str, read: set[str]) -> list[str]:
    """The names `source` defines that are not in `read`; a method counts
    as read when any attribute of its name is."""
    return [name for name in defined_names(source)
            if name.rpartition(".")[2] not in read]


def test_dead_name_check_sees_loads_and_attributes():
    source = ("import os\nK = 1\n_L: int = 2\n__all__ = []\n"
              "def f():\n    return K\n"
              "class C:\n    def __init__(self):\n        pass\n"
              "    def m(self):\n        return f()\n"
              "    def n(self):\n        pass\n"
              "def g():\n    g = 1\n")
    assert defined_names(source) == ["K", "_L", "f", "C", "C.m", "C.n", "g"]
    read = read_names(source) | read_names("C().m\nos.path\n")
    # g is only stored, _L only defined, C.n never accessed
    assert dead_names(source, read) == ["_L", "C.n", "g"]


def test_every_package_name_is_read():
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))
    dead = {p.stem: dead_names(p.read_text(encoding="utf-8"), read)
            for p in MODULES}
    assert {stem: names for stem, names in dead.items() if names} == {}


def test_the_engine_does_not_import_the_oracle():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, germindex.germs; print('germindex.oracle' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"



def imported_names(source: str) -> set[str]:
    """Every component of the module paths a source imports, and every
    name it imports from a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            out.update(a.name for a in node.names)
    return out


def test_the_oracle_does_not_import_the_engine():
    # the package's __init__ loads germs, so sys.modules cannot show this:
    # the oracle's source names no germs module in any import
    for line in ("from . import germs", "from .germs import delta",
                 "import germindex.germs as g"):
        assert "germs" in imported_names(line)
    source = (ROOT / "src" / "germindex" / "oracle.py").read_text(encoding="utf-8")
    assert "germs" not in imported_names(source)
