import numpy as np
import pytest

from artdiff.numerics import RngStream
from artdiff.schedule import (NoiseSchedule, SamplingTimeline, linear_schedule,
                              subsequence)


def test_single_step_schedule():
    s = linear_schedule(1, 0.5, 0.5)
    assert s.betas.tolist() == [0.5]
    assert s.alphas.tolist() == [0.5]
    assert s.alpha_bars.tolist() == [0.5]
    assert s.posterior_var(1) == 0.0


def test_default_schedule_first_step():
    s = linear_schedule(1000, 1e-4, 0.02)
    assert s.alpha(1) == pytest.approx(0.9999, abs=1e-12)
    assert s.alpha_bar(1) == pytest.approx(0.9999, abs=1e-12)


def test_alpha_bar_against_independent_product():
    # explicit python-loop running product as the oracle
    s = linear_schedule(1000, 1e-4, 0.02)
    prod = 1.0
    for t in range(1, 1001):
        prod *= 1.0 - s.beta(t)
    assert abs(s.alpha_bar(1000) - prod) <= 1e-12 * abs(prod)


def test_alpha_bar_zero_convention():
    s = linear_schedule(10)
    assert s.alpha_bar(0) == 1.0


def test_tables_satisfy_invariants():
    s = linear_schedule(1000)
    ab = s.alpha_bars
    assert np.all(ab > 0.0) and np.all(ab < 1.0)
    assert np.all(np.diff(ab) < 0.0)
    # recurrence holds exactly (cumprod construction)
    recomputed = np.concatenate(([s.alphas[0]], ab[:-1] * s.alphas[1:]))
    assert np.array_equal(recomputed, ab)
    assert np.all(s.posterior_vars <= s.betas)
    assert s.posterior_var(1) == 0.0
    assert np.all(np.diff(s.betas) >= 0.0)


@pytest.mark.parametrize("T,start,end", [
    (0, 1e-4, 0.02), (10, 0.0, 0.02), (10, 1e-4, 1.0), (10, 0.02, 1e-4),
    (10, -0.1, 0.5),
])
def test_linear_schedule_rejects_bad_config(T, start, end):
    with pytest.raises(ValueError):
        linear_schedule(T, start, end)


def test_noise_schedule_rejects_bad_betas():
    with pytest.raises(ValueError):
        NoiseSchedule(betas=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        NoiseSchedule(betas=np.array([]))


def test_timestep_range_checks():
    s = linear_schedule(10)
    with pytest.raises(ValueError):
        s.beta(0)
    with pytest.raises(ValueError):
        s.beta(11)
    with pytest.raises(ValueError):
        s.alpha_bar(-1)


def test_subsequence_identity():
    s = linear_schedule(50)
    tl = subsequence(s, 50)
    assert tl.steps == tuple(range(50, 0, -1))
    assert tl.is_identity(50)


def test_subsequence_stride_rule():
    s = linear_schedule(1000)
    tl = subsequence(s, 200)
    assert tl.steps == tuple(range(1000, 4, -5))
    assert tl.steps[0] == 1000 and tl.steps[-1] == 5


def test_subsequence_degenerate():
    s = linear_schedule(17)
    assert subsequence(s, 1).steps == (17,)


def test_subsequence_rejects_out_of_range():
    s = linear_schedule(10)
    with pytest.raises(ValueError):
        subsequence(s, 11)
    with pytest.raises(ValueError):
        subsequence(s, 0)


def test_subsequence_always_yields_valid_timeline():
    # randomized property: every (T, k) pair produces a strictly decreasing
    # timeline inside 1..T with k entries
    rng = RngStream(77)
    for _ in range(200):
        T = int(rng.integers(1, 400, (1,))[0])
        k = int(rng.integers(1, T, (1,))[0])
        tl = subsequence(linear_schedule(T), k)
        assert len(tl.steps) == k
        assert tl.steps[0] == T
        assert all(1 <= x <= T for x in tl.steps)
        assert all(a > b for a, b in zip(tl.steps, tl.steps[1:]))


def test_timeline_validation():
    with pytest.raises(ValueError):
        SamplingTimeline(steps=())
    with pytest.raises(ValueError):
        SamplingTimeline(steps=(5, 5))
    with pytest.raises(ValueError):
        SamplingTimeline(steps=(3, 7))
    with pytest.raises(ValueError):
        SamplingTimeline(steps=(2, 0))


def test_timeline_pairs_end_at_zero():
    assert SamplingTimeline(steps=(9, 5, 2)).pairs() == [(9, 5), (5, 2), (2, 0)]


@pytest.mark.parametrize("T", [7, 10, 100, 999, 1000])
def test_subsequence_spreads_every_step_count_evenly(T):
    # for every n: strictly decreasing from T to T // n, neighbouring gaps
    # within one of each other, and the old stride-T//n timeline whenever
    # n divides T
    s = linear_schedule(T)
    for n in range(1, T + 1):
        steps = np.array(subsequence(s, n).steps)
        assert len(steps) == n and steps[0] == T and steps[-1] == T // n
        gaps = -np.diff(steps)
        assert np.all(gaps >= max(T // n, 1))   # no gap shorter than the last transfer
        assert np.all(np.abs(np.diff(gaps)) <= 1)
        if T % n == 0:
            assert tuple(steps) == tuple(range(T, 0, -(T // n)))[:n]


def test_subsequence_non_divisor_timeline_values():
    s = linear_schedule(1000)
    assert subsequence(s, 501).steps[-3:] == (5, 3, 1)
    assert subsequence(s, 300).steps[:4] == (1000, 997, 994, 990)
    assert subsequence(s, 300).steps[-2:] == (7, 3)
