"""Checks of tests/reference.py itself: what it may import, and the closed
form it gives the sampler tests."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from artdiff.numerics import RngStream
from artdiff.schedule import linear_schedule
from reference import exact_flow_endpoint

REFERENCE = Path(__file__).resolve().parent / "reference.py"


def test_reference_imports_nothing_from_the_samplers():
    # the sampler checks compare against this module, so it must not be
    # built from the code they check
    modules = set()
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    assert "artdiff.denoisers" in modules     # the walk does see the imports
    assert not [m for m in modules if m.split(".")[:2] == ["artdiff", "samplers"]]


@pytest.mark.parametrize("abar_T", [linear_schedule(1000).alpha_bar(1000),
                                    linear_schedule(2000).alpha_bar(2000), 0.5, 0.9])
def test_exact_flow_map_sends_the_marginal_to_the_data(abar_T):
    # x_T ~ N(sqrt(abar_T) mu0, (abar_T var0 + 1 - abar_T) I) lands on
    # N(mu0, var0 I): the mean maps to mu0 and each standardised draw z to
    # mu0 + sqrt(var0) z, up to rounding
    mu0, var0 = np.array([3.0, -1.0]), 0.25
    mean_T = math.sqrt(abar_T) * mu0
    sd_T = math.sqrt(abar_T * var0 + 1.0 - abar_T)
    z = RngStream(68).normal((64, 2))
    assert np.max(np.abs(exact_flow_endpoint(mean_T, mu0, var0, abar_T) - mu0)) <= 4e-15
    got = exact_flow_endpoint(mean_T + sd_T * z, mu0, var0, abar_T)
    assert np.max(np.abs(got - (mu0 + math.sqrt(var0) * z))) <= 1e-14
