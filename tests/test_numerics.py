import numpy as np
import pytest

from artdiff.numerics import RngStream, softmax
from reference import sample_stats


def test_gaussian_same_seed_is_identical():
    a = RngStream(7).normal((2,))
    b = RngStream(7).normal((2,))
    assert np.array_equal(a, b)


def test_gaussian_sequence_is_deterministic():
    r1, r2 = RngStream(3), RngStream(3)
    for shape in [(4,), (2, 3), (5,)]:
        assert np.array_equal(r1.normal(shape), r2.normal(shape))


def test_child_streams_do_not_disturb_parent():
    plain = RngStream(11)
    seq_plain = [plain.normal((3,)) for _ in range(3)]
    spawning = RngStream(11)
    first = spawning.normal((3,))
    spawning.child("a").normal((100,))
    spawning.child("b")
    rest = [spawning.normal((3,)) for _ in range(2)]
    for got, want in zip([first] + rest, seq_plain):
        assert np.array_equal(got, want)


def test_child_streams_differ_from_parent_and_each_other():
    root = RngStream(1)
    a = root.child("a").normal((64,))
    b = root.child("b").normal((64,))
    p = root.normal((64,))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, p)


def test_gaussian_large_sample_moments():
    # law-of-large-numbers check against an independent reference generator
    n = 10**6
    draws = RngStream(2024).normal((n,))
    ref = np.random.default_rng(5).standard_normal(n)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var(ddof=1) - 1.0) < 0.01
    assert abs(draws.mean() - ref.mean()) < 0.01
    assert abs(draws.var(ddof=1) - ref.var(ddof=1)) < 0.02
    # z-tests at |z| < 4
    z_mean = draws.mean() * np.sqrt(n)
    z_var = (draws.var(ddof=1) - 1.0) / np.sqrt(2.0 / (n - 1))
    assert abs(z_mean) < 4.0
    assert abs(z_var) < 4.0


@pytest.mark.parametrize("shape", [(0,), (2, 0), (), (-1,)])
def test_gaussian_invalid_shapes(shape):
    with pytest.raises(ValueError):
        RngStream(0).normal(shape)


def test_draw_counter_counts_elements():
    r = RngStream(0)
    r.normal((4, 2))
    assert r.draws == 8
    r.uniform((3,))
    assert r.draws == 11


def test_sample_stats_constant_batch():
    mean, cov = sample_stats([np.array([1.0, 1.0]), np.array([1.0, 1.0])])
    assert np.array_equal(mean, [1.0, 1.0])
    assert np.array_equal(cov, np.zeros((2, 2)))


def test_sample_stats_hand_case():
    mean, cov = sample_stats([np.array([0.0, 0.0]), np.array([2.0, 0.0])])
    assert np.array_equal(mean, [1.0, 0.0])
    assert np.array_equal(cov, [[2.0, 0.0], [0.0, 0.0]])


def test_sample_stats_errors():
    with pytest.raises(ValueError):
        sample_stats([])
    with pytest.raises(ValueError):
        sample_stats([np.zeros(2)])
    with pytest.raises(ValueError):
        sample_stats([np.zeros(2), np.zeros(3)])


def test_sample_stats_matches_numpy_cov():
    rng = RngStream(9)
    batch = [rng.normal((4,)) for _ in range(50)]
    mean, cov = sample_stats(batch)
    stacked = np.stack(batch)
    assert np.allclose(mean, stacked.mean(axis=0), atol=1e-15)
    assert np.allclose(cov, np.cov(stacked.T, ddof=1), atol=1e-12)


def test_softmax_symmetry():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] > 1.0 - 1e-12
    assert out[1] < 1e-12


def test_softmax_reference_values():
    # frozen from direct evaluation of exp(v_i) / sum exp(v_j)
    out = softmax(np.array([1.0, 2.0, 3.0]))
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    assert np.allclose(out, expected, atol=1e-12)


def test_softmax_shift_invariance_and_normalization():
    rng = RngStream(4)
    for _ in range(20):
        v = rng.normal((7,)) * 10.0
        base = softmax(v)
        shifted = softmax(v + 123.456)
        assert np.all(base > 0.0)
        assert abs(base.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(base - shifted)) <= 1e-12


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        softmax(np.array([]))


def test_normal_into_a_buffer_equals_a_fresh_draw():
    filled, fresh = RngStream(21), RngStream(21)
    buf = np.full((5, 3), np.nan)
    for _ in range(3):     # the buffer is refilled; the stream advances as a fresh one does
        got = filled.normal((5, 3), out=buf)
        assert got is buf
        assert got.tobytes() == fresh.normal((5, 3)).tobytes()
        assert filled.draws == fresh.draws
    assert filled.normal((2,)).tobytes() == fresh.normal((2,)).tobytes()


@pytest.mark.parametrize("shape", [(3, 5), (15,), (5, 3, 1)])
def test_normal_rejects_a_buffer_of_the_wrong_shape(shape):
    rng = RngStream(22)
    with pytest.raises(ValueError):
        rng.normal((5, 3), out=np.empty(shape))
    assert rng.draws == 0
    assert rng.normal((5, 3)).tobytes() == RngStream(22).normal((5, 3)).tobytes()


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("kind", ["integers", "normal", "uniform"])
def test_block_draws_equal_per_step_draws(kind, batch):
    # training draws k steps' timesteps, noise and drop masks in one call;
    # that gives the values, in order, and the count of k per-step calls
    draw = {"integers": lambda rng, shape: rng.integers(1, 1000, shape),
            "normal": lambda rng, shape: rng.normal(shape),
            "uniform": lambda rng, shape: rng.uniform(shape)}[kind]
    steps = 5
    per_step, block = RngStream(23).child(kind), RngStream(23).child(kind)
    shape = (batch, 2) if kind == "normal" else (batch,)
    expect = np.stack([draw(per_step, shape) for _ in range(steps)])
    got = draw(block, (steps, *shape))
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    assert block.draws == per_step.draws == steps * np.prod(shape)
    # both streams continue alike after the block
    assert draw(block, shape).tobytes() == draw(per_step, shape).tobytes()
