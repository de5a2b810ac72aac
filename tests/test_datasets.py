import numpy as np
import pytest

from artdiff.datasets import DATASETS, RING_CENTERS
from artdiff.numerics import RngStream


def test_registry_contents():
    assert set(DATASETS) == {"8-gaussian-ring", "two-moons", "line-subspace"}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_samplers_shapes_and_determinism(name):
    ds = DATASETS[name]
    x1, labels1 = ds.sample(128, RngStream(7))
    x2, labels2 = ds.sample(128, RngStream(7))
    assert x1.shape == (128, 2)
    assert np.all(np.isfinite(x1))
    assert np.array_equal(x1, x2)
    if ds.n_classes:
        assert labels1.shape == (128,)
        assert np.array_equal(labels1, labels2)
        assert labels1.min() >= 0 and labels1.max() < ds.n_classes
    else:
        assert labels1 is None


def test_ring_geometry():
    centers = RING_CENTERS
    assert centers.shape == (8, 2)
    assert not centers.flags.writeable
    radii = np.linalg.norm(centers, axis=1)
    assert np.allclose(radii, 2.0, atol=1e-12)
    # adjacent centers are far enough apart for the 0.5 assignment radius
    gaps = np.linalg.norm(centers - np.roll(centers, 1, axis=0), axis=1)
    assert gaps.min() > 1.0


def test_ring_samples_concentrate_near_centers():
    ds = DATASETS["8-gaussian-ring"]
    x, labels = ds.sample(4000, RngStream(3))
    centers = RING_CENTERS
    dist_to_own = np.linalg.norm(x - centers[labels], axis=1)
    assert np.quantile(dist_to_own, 0.99) < 0.5
    # all eight modes appear
    assert set(np.unique(labels)) == set(range(8))


def test_line_subspace_is_one_dimensional():
    ds = DATASETS["line-subspace"]
    x, _ = ds.sample(500, RngStream(4))
    centered = x - x.mean(axis=0)
    # second singular value vanishes: points lie exactly on an affine line
    s = np.linalg.svd(centered, compute_uv=False)
    assert s[1] < 1e-10 * s[0]


def test_two_moons_separation():
    ds = DATASETS["two-moons"]
    x, labels = ds.sample(2000, RngStream(5))
    top = x[labels == 0]
    bottom = x[labels == 1]
    assert len(top) > 0 and len(bottom) > 0
    assert top[:, 1].mean() > bottom[:, 1].mean()
