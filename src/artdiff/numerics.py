"""Float64 tensor checks, deterministic seeded random streams and the
softmax, shared by every other module.

All arrays are 64-bit floats in row-major order. Public operations never
let NaN or Inf escape: outputs are checked before they are returned.
"""

from __future__ import annotations

import hashlib

import numpy as np

Tensor = np.ndarray

_U64 = 2**64


def require_finite(x: Tensor, name: str = "value") -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite elements")


def require_same_shape(a: Tensor, b: Tensor, what: str = "operands") -> None:
    if np.shape(a) != np.shape(b):
        raise ValueError(f"shape mismatch between {what}: {np.shape(a)} vs {np.shape(b)}")


def _check_shape(shape) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    else:
        shape = tuple(map(int, shape))
    if not shape:
        raise ValueError("invalid shape: must have at least one extent")
    if min(shape) < 1:
        raise ValueError(f"invalid shape {shape}: every extent must be >= 1")
    return shape


class RngStream:
    """Counter-based deterministic random stream.

    Backed by the Philox-4x64 counter generator, keyed by SHA-256 of the
    seed together with the labels of the substream path. Identical
    (seed, call sequence) pairs reproduce identical values; ``child``
    streams are statistically independent of the parent and do not
    perturb its future output. ``draws`` counts float64 values consumed,
    which lets tests assert exactly how much randomness an algorithm used.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < _U64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self._path = tuple(_path)
        material = b"artdiff.rng\x00" + seed.to_bytes(8, "little")
        for label in self._path:
            material += b"\x1f" + label.encode("utf-8")
        key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.draws = 0

    def child(self, label: str) -> "RngStream":
        """Derive an independent labeled substream."""
        return RngStream(self.seed, self._path + (str(label),))

    def normal(self, shape, out: Tensor | None = None) -> Tensor:
        """Draw i.i.d. standard normal values of the given shape.

        ``out`` optionally is a C-contiguous float64 buffer of that shape to
        fill and return (ValueError for any other shape); the values and the
        draw count are those of a fresh draw.
        """
        shape = _check_shape(shape)
        out = self._gen.standard_normal(shape, dtype=np.float64, out=out)
        self.draws += out.size
        return out

    def uniform(self, shape) -> Tensor:
        shape = _check_shape(shape)
        out = self._gen.random(shape, dtype=np.float64)
        self.draws += out.size
        return out

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        """Uniform integers in [low, high] inclusive."""
        shape = _check_shape(shape)
        out = self._gen.integers(low, high, size=shape, endpoint=True)
        self.draws += out.size
        return out

    def __repr__(self) -> str:
        path = "/".join(self._path)
        return f"RngStream(seed={self.seed}, path={path!r}, draws={self.draws})"


def softmax(v: Tensor) -> Tensor:
    """Stable softmax along the last axis (max-subtraction form)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty input")
    require_finite(v, "softmax input")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
