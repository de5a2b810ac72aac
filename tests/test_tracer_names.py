"""The bench tracer wraps program attributes by name; a rename or removal
must fail here, not only in a traced bench run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_names():
    """(module, attribute) of every SPANNED and COUNTED entry, read from the
    tracer's source without importing it."""
    names = []
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED"):
            for entry in node.value.elts:
                module, attr = (ast.literal_eval(e) for e in entry.elts[1:3])
                names.append((module, attr))
    return names


def test_tracer_table_is_found():
    names = _traced_names()
    assert len(names) > 30
    assert ("denoisers", "_attend") in names and ("denoisers", "_attend_backward") in names


@pytest.mark.parametrize("module, attr", _traced_names(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_attribute_resolves(module, attr):
    mod = importlib.import_module(f"artdiff.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))   # the tracer reads the class dict
    else:
        assert callable(getattr(mod, attr))
