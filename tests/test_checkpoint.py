import hashlib
import struct

import numpy as np
import pytest

from artdiff.checkpoint import CheckpointError, DENOISER_MAGIC, load_arrays, save_arrays
from artdiff.numerics import RngStream


def roundtrip_arrays():
    rng = RngStream(1)
    return {
        "weights": rng.normal((3, 4)),
        "bias": rng.normal((4,)),
        "scalarish": np.array(2.5),
        "meta": np.array([2.0, 16.0]),
    }


def test_roundtrip(tmp_path):
    path = tmp_path / "ck.bin"
    arrays = roundtrip_arrays()
    save_arrays(path, DENOISER_MAGIC, arrays)
    loaded = load_arrays(path, DENOISER_MAGIC)
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].shape == arr.shape


def test_save_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    arrays = roundtrip_arrays()
    save_arrays(a, DENOISER_MAGIC, arrays)
    save_arrays(b, DENOISER_MAGIC, arrays)
    assert a.read_bytes() == b.read_bytes()


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(path, DENOISER_MAGIC, roundtrip_arrays())
    with pytest.raises(CheckpointError):
        load_arrays(path, b"ARTOTHER")


def test_corrupted_payload_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(path, DENOISER_MAGIC, roundtrip_arrays())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_arrays(path, DENOISER_MAGIC)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(path, DENOISER_MAGIC, roundtrip_arrays())
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(CheckpointError):
        load_arrays(path, DENOISER_MAGIC)


def test_bad_magic_length():
    with pytest.raises(CheckpointError):
        save_arrays("/tmp/never-written.bin", b"SHORT", {})


def test_denoiser_checkpoint_roundtrip(tmp_path):
    from artdiff.denoisers import (LabelEmbedding, init_toy_denoiser,
                                   load_denoiser, save_denoiser,
                                   toy_denoiser_forward)
    from artdiff.schedule import linear_schedule

    schedule = linear_schedule(123, 2e-4, 0.01)
    params = init_toy_denoiser(RngStream(4), 2)
    embedding = LabelEmbedding.create(8, params.cond_width, 4)
    path = tmp_path / "denoiser.bin"
    save_denoiser(path, params, schedule, embedding)
    p2, s2, e2 = load_denoiser(path)
    assert s2.T == 123
    assert s2.betas[0] == pytest.approx(2e-4, rel=1e-12)
    assert np.array_equal(e2.tokens, embedding.tokens)
    xt = RngStream(5).normal((3, 2))
    assert np.array_equal(toy_denoiser_forward(p2, xt, 7),
                          toy_denoiser_forward(params, xt, 7))


# ---------------------------------------------------------------------------
# crafted shape tables with a valid checksum
# ---------------------------------------------------------------------------

def _entry(name: bytes, shape) -> bytes:
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape))


def _blob(entries, payload=b"\0" * 8) -> bytes:
    """A checkpoint body from raw table entries, with its checksum appended."""
    body = (DENOISER_MAGIC + struct.pack("<II", 1, len(entries)) + b"".join(entries)
            + payload)
    return body + hashlib.sha256(body).digest()[:8]


@pytest.mark.parametrize("blob, message", [
    (_blob([_entry(b"a", (1,)), _entry(b"b", (2, 3))[:-8]], payload=b""),
     "shape table is cut short"),
    (_blob([_entry(b"\xff\xfe", ())]), "not valid UTF-8"),
    (_blob([_entry(b"a", (2 ** 62, 4))]), "payload shorter than shape table promises"),
    (_blob([_entry(b"a", (1,) * 33)]), "33 dimensions, at most 32"),
    (_blob([_entry(b"a", (0, 2 ** 63)), _entry(b"b", ())]), "numpy cannot hold"),
], ids=["short-table", "non-utf8-name", "extent-2**62", "ndim-33",
        "empty-huge-extent"])
def test_crafted_shape_table_raises_checkpoint_error(tmp_path, blob, message):
    path = tmp_path / "crafted.bin"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError) as info:
        load_arrays(path, DENOISER_MAGIC)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_cli_crafted_shape_table_exits_1_with_one_line(tmp_path, capsys):
    from artdiff.cli import main

    path = tmp_path / "crafted.bin"
    path.write_bytes(_blob([_entry(b"\xff", ())]))
    assert main(["sample", "--checkpoint", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "UTF-8" in err


# ---------------------------------------------------------------------------
# denoiser checkpoints with a valid checksum but bad content
# ---------------------------------------------------------------------------

def _denoiser_parts():
    from artdiff.denoisers import LabelEmbedding, init_toy_denoiser
    from artdiff.schedule import linear_schedule

    params = init_toy_denoiser(RngStream(4), 2)
    return params, linear_schedule(50), LabelEmbedding.create(8, params.cond_width, 4)


def _crafted(tmp_path, **changes):
    """Save a valid denoiser checkpoint, then rewrite its arrays (None drops one)."""
    from artdiff.denoisers import save_denoiser

    path = tmp_path / "crafted.bin"
    save_denoiser(path, *_denoiser_parts())
    arrays = load_arrays(path, DENOISER_MAGIC)
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    save_arrays(path, DENOISER_MAGIC, arrays)
    return path


@pytest.mark.parametrize("changes, message", [
    ({"extra": np.zeros(3)}, "unexpected ['extra']"),
    ({"meta": None}, "missing ['meta']"),
    ({"wq": None}, "missing ['wq']"),
    ({"w_in": np.zeros((16, 3))}, "'w_in' has shape (16, 3)"),
    ({"b_out": np.zeros(3)}, "'b_out' has shape (3,)"),
    ({"meta": np.array([2.0, 16.0, 15.0, 16.0])}, "even time width"),
    ({"meta": np.array([2.0, 16.0, 16.0])}, "meta"),
    ({"label_tokens": np.zeros((8, 5))}, "label_tokens"),
    ({"schedule": np.array([50.0, 0.5, 0.1])}, "schedule"),
    ({"schedule": np.array([50.0 * 2 ** 32, 1e-4, 0.02])}, "T must be an integer in [1, "),
    ({"b_out": np.array([np.inf, 0.0])}, "'b_out' contains non-finite"),
    ({"label_tokens": np.full((8, 16), np.nan)}, "'label_tokens' contains non-finite"),
], ids=["extra-array", "no-meta", "no-wq", "w_in-shape", "b_out-shape", "odd-time-width",
        "short-meta", "token-width", "bad-schedule", "huge-T", "inf-bias", "nan-tokens"])
def test_load_denoiser_rejects_crafted_content(tmp_path, changes, message):
    from artdiff.denoisers import load_denoiser

    path = _crafted(tmp_path, **changes)
    with pytest.raises(CheckpointError) as info:
        load_denoiser(path)
    assert message in str(info.value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_save_denoiser_refuses_non_finite_weights(tmp_path, bad):
    from dataclasses import replace

    from artdiff.denoisers import save_denoiser

    params, schedule, embedding = _denoiser_parts()
    params = replace(params, vector=params.vector.copy())
    params.b_in[0, 3] = bad
    path = tmp_path / "never.bin"
    with pytest.raises(CheckpointError, match="non-finite"):
        save_denoiser(path, params, schedule, embedding)
    assert not path.exists()
