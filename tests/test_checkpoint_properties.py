"""Property tests for the checkpoint loaders on crafted blobs.

Every blob keeps a valid checksum, so the loaders must catch the damage in
the header, the shape table, the payload or the array content. They need
hypothesis (the ``test`` extra) and are skipped without it.
"""

import hashlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from artdiff.checkpoint import CheckpointError  # noqa: E402
from artdiff.denoisers import (LabelEmbedding, init_toy_denoiser,  # noqa: E402
                               load_denoiser, save_denoiser)
from artdiff.latentae import init_toy_autoencoder, load_autoencoder, save_autoencoder  # noqa: E402
from artdiff.numerics import RngStream  # noqa: E402
from artdiff.schedule import linear_schedule  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None)
KINDS = ["denoiser", "autoencoder"]
LOADERS = {"denoiser": load_denoiser, "autoencoder": load_autoencoder}


@pytest.fixture(scope="module")
def bodies(tmp_path_factory):
    """Each kind's valid checkpoint without its checksum, and a file path
    to write crafted blobs to."""
    root = tmp_path_factory.mktemp("checkpoints")
    params = init_toy_denoiser(RngStream(4), 2, width=4, time_dim=4, cond_width=3)
    save_denoiser(root / "denoiser.bin", params, linear_schedule(50),
                  LabelEmbedding.create(3, params.cond_width, 4))
    save_autoencoder(root / "autoencoder.bin", init_toy_autoencoder(RngStream(6), 2, 1))
    return {kind: (root / f"{kind}.bin").read_bytes()[:-8] for kind in KINDS}, root


def _load(bodies, kind, body):
    """Write ``body`` with a fresh checksum and load it as ``kind``."""
    blobs, root = bodies
    path = root / "crafted.bin"
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    return LOADERS[kind](path)


def test_unchanged_bodies_load(bodies):
    for kind in KINDS:
        _load(bodies, kind, bodies[0][kind])


@PROPERTY
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_truncated_blob_raises_checkpoint_error(bodies, kind, data):
    body = bodies[0][kind]
    cut = data.draw(st.integers(0, len(body) - 1), label="cut")
    with pytest.raises(CheckpointError):
        _load(bodies, kind, body[:cut])


@PROPERTY
@given(kind=st.sampled_from(KINDS), extra=st.binary(min_size=1, max_size=64))
def test_extended_blob_raises_checkpoint_error(bodies, kind, extra):
    with pytest.raises(CheckpointError):
        _load(bodies, kind, bodies[0][kind] + extra)


@PROPERTY
@given(kind=st.sampled_from(KINDS), data=st.data(), byte=st.integers(0, 255))
def test_byte_mutated_blob_loads_or_raises_checkpoint_error(bodies, kind, data, byte):
    body = bytearray(bodies[0][kind])
    body[data.draw(st.integers(0, len(body) - 1), label="where")] = byte
    try:
        _load(bodies, kind, bytes(body))
    except CheckpointError:
        pass
