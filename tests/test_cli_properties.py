"""Property tests for the CLI's output files.

They need hypothesis (the ``test`` extra) and are skipped without it.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from artdiff.cli import _write_samples_csv  # noqa: E402

FINITE_ARRAYS = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(FINITE_ARRAYS)
def test_samples_csv_fields_parse_back_to_the_same_bits(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        _write_samples_csv(path, samples)
        lines = path.read_text().splitlines()
    parsed = np.array([[float(field) for field in line.split(",")] for line in lines])
    assert parsed.shape == samples.shape
    assert parsed.tobytes() == samples.tobytes()     # bits, so -0.0 stays -0.0
