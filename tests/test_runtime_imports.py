"""numpy stays the only runtime dependency: every absolute import in the
package names numpy or a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artdiff"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def foreign_imports(source: str) -> list[str]:
    """The top-level module of each absolute import in ``source`` that is
    neither numpy nor in the standard library; relative imports pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [top for top in (name.split(".")[0] for name in names) if top not in ALLOWED]
    return found


def test_the_package_imports_only_numpy_and_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert "promptx.py" in {path.name for path in files}    # the glob does see the package
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in files}
    assert found == {path.name: [] for path in files}


@pytest.mark.parametrize("source, found", [
    ("import scipy", ["scipy"]),
    ("import scipy.linalg as la", ["scipy"]),
    ("from scipy import stats", ["scipy"]),
    ("import os, torch", ["torch"]),
    ("def f():\n    import pandas\n", ["pandas"]),
    ("from __future__ import annotations\nimport numpy as np\nfrom numpy.linalg import norm\n"
     "from collections import Counter\nfrom . import checkpoint\nfrom .errors import ConfigError",
     []),
])
def test_foreign_imports_finds_every_third_party_import(source, found):
    assert foreign_imports(source) == found
