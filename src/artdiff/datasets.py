"""Built-in 2D toy datasets used for denoiser and autoencoder training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import RngStream

RING_RADIUS = 2.0
RING_STD = 0.1
RING_MODES = 8


@dataclass(frozen=True)
class ToyDataset:
    """Infinite sampler of (points, labels); labels may be None."""

    name: str
    dim: int
    n_classes: int  # 0 for unlabeled datasets
    _sampler: Callable[[int, RngStream], tuple[np.ndarray, Optional[np.ndarray]]]

    def sample(self, n: int, rng: RngStream):
        return self._sampler(int(n), rng)


def ring_centers(modes: int = RING_MODES, radius: float = RING_RADIUS) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(modes) / modes
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


_RING_CENTERS = ring_centers()
_RING_CENTERS.setflags(write=False)


def _sample_ring(n: int, rng: RngStream):
    labels = rng.integers(0, RING_MODES - 1, (n,))
    points = _RING_CENTERS[labels] + RING_STD * rng.normal((n, 2))
    return points, labels


def _sample_two_moons(n: int, rng: RngStream):
    labels = rng.integers(0, 1, (n,))
    angles = math.pi * rng.uniform((n,))
    x = np.where(labels == 0, np.cos(angles), 1.0 - np.cos(angles))
    y = np.where(labels == 0, np.sin(angles), 0.5 - np.sin(angles))
    points = np.stack([x, y], axis=1) + 0.05 * rng.normal((n, 2))
    return points, labels


_LINE_DIRECTION = np.array([0.8, 0.6])
_LINE_OFFSET = np.array([0.5, -0.25])


def _sample_line(n: int, rng: RngStream):
    coeff = rng.normal((n, 1))
    points = coeff * _LINE_DIRECTION + _LINE_OFFSET
    return points, None


DATASETS: dict[str, ToyDataset] = {
    "8-gaussian-ring": ToyDataset("8-gaussian-ring", 2, RING_MODES, _sample_ring),
    "two-moons": ToyDataset("two-moons", 2, 2, _sample_two_moons),
    "line-subspace": ToyDataset("line-subspace", 2, 0, _sample_line),
}


def get_dataset(name: str) -> ToyDataset:
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; available: {known}") from None
