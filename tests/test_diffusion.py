import math

import numpy as np
import pytest

from artdiff.numerics import RngStream
from artdiff.samplers import posterior_mean_from_eps
from artdiff.schedule import NoiseSchedule, linear_schedule
from reference import loss_simple, posterior_params, q_sample, q_step


class ConstantPredictor:
    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, xt, t, condition=None):
        return np.broadcast_to(self.value, np.shape(xt)).copy()


class OffsetPredictor:
    """Returns the true eps plus a constant offset (test double)."""

    def __init__(self, eps, offset):
        self.eps = eps
        self.offset = offset

    def predict(self, xt, t, condition=None):
        return self.eps + self.offset


def two_step_quarter_schedule():
    # alpha_bar_2 = 0.25 exactly
    return NoiseSchedule(betas=np.array([0.5, 0.5]))


def test_q_sample_zero_noise(default_schedule):
    x0 = np.array([1.5, -2.0])
    out = q_sample(x0, 400, np.zeros(2), default_schedule)
    assert np.allclose(out, math.sqrt(default_schedule.alpha_bar(400)) * x0,
                       atol=1e-15)


def test_q_sample_worked_example():
    s = two_step_quarter_schedule()
    out = q_sample(np.array([2.0]), 2, np.array([1.0]), s)
    assert out[0] == pytest.approx(1.86603, abs=1e-5)
    assert out[0] == pytest.approx(0.5 * 2.0 + math.sqrt(0.75) * 1.0, abs=1e-15)


def test_q_sample_terminal_step_is_mostly_noise(default_schedule):
    rng = RngStream(1)
    x0 = rng.normal((6,))
    eps = rng.normal((6,))
    out = q_sample(x0, 1000, eps, default_schedule)
    a = default_schedule.alpha_bar(1000)
    bound = math.sqrt(a) * np.abs(x0) + (1.0 - math.sqrt(1.0 - a)) * np.abs(eps)
    assert np.all(np.abs(out - eps) <= bound + 1e-12)
    assert np.max(np.abs(out - eps)) < 1e-2 * max(1.0, np.max(np.abs(x0)))


def test_q_sample_errors(default_schedule):
    with pytest.raises(ValueError):
        q_sample(np.zeros(2), 1, np.zeros(3), default_schedule)
    with pytest.raises(ValueError):
        q_sample(np.zeros(2), 0, np.zeros(2), default_schedule)
    with pytest.raises(ValueError):
        q_sample(np.zeros(2), 1001, np.zeros(2), default_schedule)


def test_q_step_tiny_beta_limit():
    s = NoiseSchedule(betas=np.array([1e-12]))
    x = np.array([3.0, -1.0])
    out = q_step(x, 1, s, RngStream(0))
    assert np.allclose(out, x, atol=1e-5)


def test_q_step_deterministic_under_seed(default_schedule):
    x = np.array([0.3, 0.7])
    a = q_step(x, 5, default_schedule, RngStream(9))
    b = q_step(x, 5, default_schedule, RngStream(9))
    assert np.array_equal(a, b)


def test_q_step_range_check(default_schedule):
    with pytest.raises(ValueError):
        q_step(np.zeros(2), 0, default_schedule, RngStream(0))


def test_forward_chain_matches_closed_form_marginals():
    # Monte Carlo: composing q_step t=1..T agrees with the q_sample jump
    s = linear_schedule(200)
    n, d = 4000, 2
    x0 = np.array([1.0, -0.5])
    rng = RngStream(42)
    x = np.tile(x0, (n, 1))
    for t in range(1, s.T + 1):
        x = q_step(x, t, s, rng)
    aT = s.alpha_bar(s.T)
    target_mean = math.sqrt(aT) * x0
    target_var = 1.0 - aT
    se_mean = math.sqrt(target_var / n)
    se_var = target_var * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(x.mean(axis=0) - target_mean) < 3 * se_mean)
    assert np.all(np.abs(x.var(axis=0, ddof=1) - target_var) < 3 * se_var)


def test_posterior_variance_worked_example():
    # alpha_bar_1 = 0.9, alpha_bar_2 = 0.8 -> beta_2 = 1/9, btilde = 1/18
    s = NoiseSchedule(betas=np.array([0.1, 1.0 - 0.8 / 0.9]))
    assert s.alpha_bar(1) == pytest.approx(0.9, abs=1e-15)
    assert s.alpha_bar(2) == pytest.approx(0.8, abs=1e-15)
    _, var = posterior_params(np.array([1.0]), np.array([0.5]), 2, s)
    assert var == pytest.approx(0.055556, abs=1e-6)
    assert var == pytest.approx(1.0 / 18.0, rel=1e-12)


def test_posterior_eps_form_zero_noise(default_schedule):
    xt = np.array([2.0, -1.0])
    mean = posterior_mean_from_eps(xt, np.zeros(2), 7, default_schedule)
    assert np.allclose(mean, xt / math.sqrt(default_schedule.alpha(7)), atol=1e-15)


def test_posterior_forms_agree(default_schedule):
    rng = RngStream(3)
    for t in [1, 2, 50, 500, 1000]:
        x0 = rng.normal((4,))
        eps = rng.normal((4,))
        xt = q_sample(x0, t, eps, default_schedule)
        mean, _ = posterior_params(x0, xt, t, default_schedule)
        mean_eps = posterior_mean_from_eps(xt, eps, t, default_schedule)
        scale = max(np.max(np.abs(mean)), 1.0)
        assert np.max(np.abs(mean - mean_eps)) <= 1e-10 * scale


def test_posterior_variance_independent_of_inputs(default_schedule):
    rng = RngStream(8)
    t = 123
    var = {posterior_params(rng.normal((3,)), rng.normal((3,)), t,
                            default_schedule)[1] for _ in range(5)}
    assert len(var) == 1


def test_posterior_at_t1_returns_x0(default_schedule):
    x0 = np.array([0.4, -0.9])
    eps = np.array([1.0, 2.0])
    xt = q_sample(x0, 1, eps, default_schedule)
    mean, var = posterior_params(x0, xt, 1, default_schedule)
    assert var == 0.0
    assert np.allclose(mean, x0, atol=1e-12)


def test_loss_simple_perfect_predictor(default_schedule):
    rng = RngStream(5)
    x0 = rng.normal((4,))
    eps = rng.normal((4,))

    class Perfect:
        def predict(self, xt, t, condition=None):
            return eps

    assert loss_simple(Perfect(), x0, 10, eps, default_schedule) == 0.0


def test_loss_simple_constant_offset(default_schedule):
    rng = RngStream(6)
    x0 = rng.normal((4,))
    eps = rng.normal((4,))
    loss = loss_simple(OffsetPredictor(eps, 1.0), x0, 10, eps, default_schedule)
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_loss_simple_zero_predictor_monte_carlo(default_schedule):
    # E ||eps||^2 / d = 1
    n, d = 100_000, 4
    rng = RngStream(13)
    x0 = np.zeros((n, d))
    eps = rng.normal((n, d))
    loss = loss_simple(ConstantPredictor(np.zeros(d)), x0, 700, eps,
                       default_schedule)
    assert loss == pytest.approx(1.0, abs=0.02)


def test_loss_simple_nonnegative_and_zero_iff_match(default_schedule):
    rng = RngStream(14)
    x0 = rng.normal((3,))
    eps = rng.normal((3,))
    for off in [0.0, 0.5, -0.2]:
        loss = loss_simple(OffsetPredictor(eps, off), x0, 20, eps, default_schedule)
        assert loss >= 0.0
        assert (loss == 0.0) == (off == 0.0)


def test_non_finite_values_cannot_escape(default_schedule):
    bad = np.array([1.0, np.nan])
    with pytest.raises(ValueError):
        q_sample(bad, 10, np.zeros(2), default_schedule)
    with pytest.raises(ValueError):
        q_step(np.array([np.inf, 0.0]), 10, default_schedule, RngStream(0))
    with pytest.raises(ValueError):
        loss_simple(ConstantPredictor(np.array([np.nan, 0.0])), np.zeros(2),
                    10, np.zeros(2), default_schedule)
