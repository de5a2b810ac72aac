"""Property tests for the checkpoint loader on crafted blobs.

Every blob keeps a valid checksum, so the loader must catch the damage in
the header, the shape table, the payload or the array content. They need
hypothesis (the ``test`` extra) and are skipped without it.
"""

import hashlib
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from artdiff.checkpoint import CheckpointError  # noqa: E402
from artdiff.denoisers import (LabelEmbedding, ToyDenoiserParams,  # noqa: E402
                               _param_shapes, load_denoiser, save_denoiser)
from artdiff.numerics import RngStream  # noqa: E402
from artdiff.schedule import linear_schedule  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def bodies(tmp_path_factory):
    """A valid denoiser checkpoint without its checksum, and a file path
    to write crafted blobs to."""
    root = tmp_path_factory.mktemp("checkpoints")
    widths = (2, 4, 4, 3)      # small, and none of them a new denoiser's 16
    size = sum(math.prod(shape) for shape in _param_shapes(*widths).values())
    params = ToyDenoiserParams(*widths, vector=RngStream(4).normal((size,)))
    save_denoiser(root / "denoiser.bin", params, linear_schedule(50),
                  LabelEmbedding.create(3, params.cond_width, 4))
    return (root / "denoiser.bin").read_bytes()[:-8], root / "crafted.bin"


def _load(bodies, body):
    """Write ``body`` with a fresh checksum and load it."""
    path = bodies[1]
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    return load_denoiser(path)


def test_unchanged_bodies_load(bodies):
    _load(bodies, bodies[0])


@PROPERTY
@given(data=st.data())
def test_truncated_blob_raises_checkpoint_error(bodies, data):
    body = bodies[0]
    cut = data.draw(st.integers(0, len(body) - 1), label="cut")
    with pytest.raises(CheckpointError):
        _load(bodies, body[:cut])


@PROPERTY
@given(extra=st.binary(min_size=1, max_size=64))
def test_extended_blob_raises_checkpoint_error(bodies, extra):
    with pytest.raises(CheckpointError):
        _load(bodies, bodies[0] + extra)


@PROPERTY
@given(data=st.data(), byte=st.integers(0, 255))
def test_byte_mutated_blob_loads_or_raises_checkpoint_error(bodies, data, byte):
    body = bytearray(bodies[0])
    body[data.draw(st.integers(0, len(body) - 1), label="where")] = byte
    try:
        _load(bodies, bytes(body))
    except CheckpointError:
        pass
