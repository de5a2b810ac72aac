import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from artdiff import samplers
from artdiff.denoisers import GaussianOracle
from artdiff.errors import ConfigError
from artdiff.numerics import RngStream
from artdiff.samplers import (SamplingPlan, cfg_combine, ddim_step, ddpm_step,
                              plms_combine, plms_sample, posterior_mean_from_eps,
                              sample)
from artdiff.schedule import SamplingTimeline, linear_schedule, subsequence
from reference import ddim_sigma, exact_flow_endpoint, predict_x0, q_sample


class FakePredictor:
    """Base of the fakes passed to ``sample``: gives them the ``prepare``
    of the predictor contract, bound to ``predict(xt, t, condition)`` at the
    prepared timesteps and, for the guidance pair, also at no condition."""

    def prepare(self, condition, timesteps):
        steps = set(timesteps)

        def predict(xt, t, cond=condition):
            if t not in steps:
                raise ValueError(f"timestep {t} is not one of the prepared timesteps")
            return self.predict(xt, t, cond)

        return SimpleNamespace(predict=predict,
                               predict_pair=lambda xt, t: (predict(xt, t, None), predict(xt, t)))


class ConstantPredictor(FakePredictor):
    def __init__(self, value):
        self.value = float(value)

    def predict(self, xt, t, condition=None):
        return np.full(np.shape(xt), self.value)


class CondSensitivePredictor(FakePredictor):
    """Unconditional branch returns 0, conditional branch returns 1."""

    def predict(self, xt, t, condition=None):
        fill = 0.0 if condition is None else 1.0
        return np.full(np.shape(xt), fill)


def make_plan(schedule, kind, steps, **kw):
    defaults = dict(shape=(2,), seed=5, batch=4, eta=0.0, guidance_scale=1.0)
    defaults.update(kw)
    return SamplingPlan(timeline=subsequence(schedule, steps), kind=kind, **defaults)


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------

def test_plan_rejects_bad_fields(default_schedule):
    tl = subsequence(default_schedule, 10)
    with pytest.raises(ConfigError):
        SamplingPlan(timeline=tl, kind="euler", shape=(2,), seed=0)
    with pytest.raises(ConfigError):
        SamplingPlan(timeline=tl, kind="ddim", shape=(2,), seed=0, eta=1.5)
    with pytest.raises(ConfigError):
        SamplingPlan(timeline=tl, kind="ddim", shape=(2,), seed=0, guidance_scale=-1.0)
    with pytest.raises(ConfigError):
        SamplingPlan(timeline=tl, kind="ddim", shape=(2,), seed=0, batch=0)
    with pytest.raises(ConfigError):
        SamplingPlan(timeline=tl, kind="ddim", shape=(0,), seed=0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_plan_rejects_non_finite_guidance_scale(default_schedule, scale):
    with pytest.raises(ConfigError, match="guidance_scale must be a finite number"):
        SamplingPlan(timeline=subsequence(default_schedule, 10), kind="ddim",
                     shape=(2,), seed=0, guidance_scale=scale)


def test_ddpm_requires_identity_timeline(default_schedule):
    plan = make_plan(default_schedule, "ddpm", 200)
    with pytest.raises(ConfigError):
        sample(ConstantPredictor(0.0), plan, default_schedule)


# ---------------------------------------------------------------------------
# predict_x0
# ---------------------------------------------------------------------------

def test_predict_x0_zero_eps(default_schedule):
    xt = np.array([1.0, -2.0])
    out = predict_x0(xt, np.zeros(2), 300, default_schedule)
    assert np.allclose(out, xt / math.sqrt(default_schedule.alpha_bar(300)), atol=1e-15)


def test_predict_x0_inverts_q_sample(default_schedule):
    rng = RngStream(2)
    for t in [1, 137, 1000]:
        x0 = rng.normal((3,))
        eps = rng.normal((3,))
        xt = q_sample(x0, t, eps, default_schedule)
        rec = predict_x0(xt, eps, t, default_schedule)
        assert np.max(np.abs(rec - x0)) <= 1e-12 * max(1.0, np.max(np.abs(x0)))


def test_predict_x0_worked_example():
    from artdiff.schedule import NoiseSchedule
    s = NoiseSchedule(betas=np.array([0.5, 0.5]))  # alpha_bar_2 = 0.25
    out = predict_x0(np.array([1.8660254037844386]), np.array([1.0]), 2, s)
    assert out[0] == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ddim_sigma
# ---------------------------------------------------------------------------

def test_ddim_sigma_eta_zero(default_schedule):
    for tc, tn in [(1000, 995), (10, 3), (1, 0)]:
        assert ddim_sigma(0.0, tc, tn, default_schedule) == 0.0


def test_ddim_sigma_eta_one_matches_posterior_var(default_schedule):
    for t in range(2, 1001):
        s2 = ddim_sigma(1.0, t, t - 1, default_schedule) ** 2
        ref = default_schedule.posterior_var(t)
        assert abs(s2 - ref) <= 1e-12 * ref


def test_ddim_sigma_linear_in_eta(default_schedule):
    full = ddim_sigma(1.0, 500, 490, default_schedule)
    half = ddim_sigma(0.5, 500, 490, default_schedule)
    assert half == pytest.approx(0.5 * full, rel=1e-15)


def test_ddim_sigma_index_validation(default_schedule):
    with pytest.raises(ValueError):
        ddim_sigma(1.0, 5, 5, default_schedule)
    with pytest.raises(ValueError):
        ddim_sigma(1.0, 5, 9, default_schedule)
    with pytest.raises(ValueError):
        ddim_sigma(-0.1, 5, 1, default_schedule)


# ---------------------------------------------------------------------------
# ddim_step
# ---------------------------------------------------------------------------

def test_ddim_step_deterministic_when_sigma_zero(default_schedule):
    rng = RngStream(3)
    xt = rng.normal((4,))
    eps = rng.normal((4,))
    r1 = RngStream(10)
    a1, _ = ddim_step(xt, eps, 500, 480, 0.0, default_schedule, r1)
    draws_after = r1.draws
    a2, _ = ddim_step(xt, eps, 500, 480, 0.0, default_schedule, r1)
    assert np.array_equal(a1, a2)
    assert r1.draws == draws_after == 0


def test_ddim_step_terminal_reconstruction(default_schedule):
    rng = RngStream(4)
    x0 = rng.normal((3,))
    eps = rng.normal((3,))
    xt = q_sample(x0, 1, eps, default_schedule)
    x_next, x0_pred = ddim_step(xt, eps, 1, 0, 0.0, default_schedule)
    assert np.max(np.abs(x_next - x0)) <= 1e-12
    assert np.array_equal(x_next, x0_pred)


def test_ddim_step_rejects_oversized_sigma(default_schedule):
    xt = np.zeros(2)
    eps = np.zeros(2)
    # 1 - abar_next < sigma^2
    with pytest.raises(ValueError):
        ddim_step(xt, eps, 10, 1, 10.0, default_schedule, RngStream(0))
    with pytest.raises(ValueError):
        ddim_step(xt, eps, 10, 1, -0.5, default_schedule, RngStream(0))


def test_ddim_step_single_step_marginal_affine_oracle(default_schedule):
    # closed-form affine-map oracle: with the Gaussian oracle predictor the
    # step is x_next = A x + b (+ sigma z); propagating the input Gaussian
    # through (A, b, sigma) predicts the output moments exactly
    mu0 = np.array([3.0, -1.0])
    var0 = 0.25
    oracle = GaussianOracle(mu0=mu0, var0=var0, schedule=default_schedule)
    t_cur, t_next = 600, 595
    s = default_schedule
    ac, an = s.alpha_bar(t_cur), s.alpha_bar(t_next)
    m_c = ac * var0 + 1.0 - ac
    sigma = ddim_sigma(1.0, t_cur, t_next, s)

    # analytic affine map of the whole step, derived independently
    coef_eps = math.sqrt(1.0 - an - sigma**2) - math.sqrt(an) * math.sqrt(1.0 - ac) / math.sqrt(ac)
    p_x = math.sqrt(1.0 - ac) / m_c            # eps-hat = p_x (x - sqrt(ac) mu0)
    A = math.sqrt(an / ac) + coef_eps * p_x
    b = (math.sqrt(an / ac) - A) * math.sqrt(ac) * mu0
    mean_in = math.sqrt(ac) * mu0
    pred_mean = A * mean_in + b
    pred_var = A * A * m_c + sigma**2

    n = 40_000
    rng = RngStream(55)
    x = mean_in + math.sqrt(m_c) * rng.normal((n, 2))
    out, _ = ddim_step(x, oracle.predict(x, t_cur), t_cur, t_next, sigma, s,
                       rng.child("step"))
    se_mean = math.sqrt(pred_var / n)
    se_var = pred_var * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(out.mean(axis=0) - pred_mean) < 4 * se_mean)
    assert np.all(np.abs(out.var(axis=0, ddof=1) - pred_var) < 4 * se_var)
    # the step moves the marginal toward the target: mean matches closed form
    target_mean = math.sqrt(an) * mu0
    assert np.linalg.norm(pred_mean - target_mean) < np.linalg.norm(mean_in - target_mean)


# ---------------------------------------------------------------------------
# ddpm_step
# ---------------------------------------------------------------------------

def test_ddpm_step_t1_is_deterministic_mean(default_schedule):
    rng = RngStream(6)
    xt = rng.normal((3,))
    pred = ConstantPredictor(0.3)
    r = RngStream(1)
    out = ddpm_step(pred, xt, 1, default_schedule, r)
    expect = posterior_mean_from_eps(xt, pred.predict(xt, 1), 1, default_schedule)
    assert np.array_equal(out, expect)
    assert r.draws == 0


def test_ddpm_step_matches_ddim_eta_one_mean(default_schedule):
    # ancestral/DDIM identity: deterministic parts agree to 1e-10
    rng = RngStream(7)
    for t in [2, 100, 777, 1000]:
        xt = rng.normal((5,))
        eps = rng.normal((5,))
        sigma = ddim_sigma(1.0, t, t - 1, default_schedule)
        mean_ddim, _ = ddim_step(xt, eps, t, t - 1, 0.0, default_schedule)
        # remove the sigma^2 reduction of the eps coefficient: recompute the
        # eta=1 mean directly from the step formula without noise
        an = default_schedule.alpha_bar(t - 1)
        x0p = predict_x0(xt, eps, t, default_schedule)
        mean_eta1 = math.sqrt(an) * x0p + math.sqrt(1.0 - an - sigma**2) * eps
        mean_ddpm = posterior_mean_from_eps(xt, eps, t, default_schedule)
        scale = max(1.0, np.max(np.abs(mean_ddpm)))
        assert np.max(np.abs(mean_eta1 - mean_ddpm)) <= 1e-10 * scale
        # and the injected variance is the ancestral posterior variance
        assert sigma**2 == pytest.approx(default_schedule.posterior_var(t), rel=1e-12)


def test_ddpm_step_seed_determinism(default_schedule):
    xt = RngStream(8).normal((4,))
    pred = ConstantPredictor(-0.2)
    a = ddpm_step(pred, xt, 500, default_schedule, RngStream(3))
    b = ddpm_step(pred, xt, 500, default_schedule, RngStream(3))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# plms_combine
# ---------------------------------------------------------------------------

def test_plms_combine_constant_sequences():
    c = np.full((2,), 3.7)
    for depth in (1, 2, 3):
        hist = [c.copy() for _ in range(depth)]
        out = plms_combine(c, hist)
        assert np.allclose(out, c, atol=1e-12)


def test_plms_combine_second_order_example():
    out = plms_combine(np.array([2.0]), [np.array([0.0])])
    assert out[0] == 3.0


def test_plms_combine_fourth_order_basis():
    out = plms_combine(np.array([1.0]), [np.zeros(1), np.zeros(1), np.zeros(1)])
    assert out[0] == pytest.approx(55.0 / 24.0, abs=0)
    # remaining basis vectors reproduce each printed coefficient
    e = np.array([1.0])
    z = np.zeros(1)
    assert plms_combine(z, [e, z, z])[0] == pytest.approx(-59.0 / 24.0, abs=0)
    assert plms_combine(z, [z, e, z])[0] == pytest.approx(37.0 / 24.0, abs=0)
    assert plms_combine(z, [z, z, e])[0] == pytest.approx(-9.0 / 24.0, abs=0)


def test_plms_combine_coefficients_sum_to_one():
    rows = [
        [Fraction(3, 2), Fraction(-1, 2)],
        [Fraction(23, 12), Fraction(-16, 12), Fraction(5, 12)],
        [Fraction(55, 24), Fraction(-59, 24), Fraction(37, 24), Fraction(-9, 24)],
    ]
    for row in rows:
        assert sum(row) == 1


def test_plms_combine_empty_history_is_misuse():
    with pytest.raises(ValueError):
        plms_combine(np.zeros(1), [])


# ---------------------------------------------------------------------------
# plms_sample and sample drivers
# ---------------------------------------------------------------------------

def test_plms_equals_ddim_for_constant_predictor(default_schedule):
    # dyadic constants keep the multistep combination arithmetic exact, so
    # equality is bitwise; arbitrary constants agree to rounding error
    for c in (0.0, 0.25, -0.5):
        pred = ConstantPredictor(c)
        for steps in (1, 3, 17, 50):
            p_plms = make_plan(default_schedule, "plms", steps, seed=9)
            p_ddim = make_plan(default_schedule, "ddim", steps, seed=9, eta=0.0)
            out_p = sample(pred, p_plms, default_schedule)
            out_d = sample(pred, p_ddim, default_schedule)
            assert np.array_equal(out_p, out_d)
    pred = ConstantPredictor(0.123)
    p_plms = make_plan(default_schedule, "plms", 50, seed=9)
    p_ddim = make_plan(default_schedule, "ddim", 50, seed=9, eta=0.0)
    a = sample(pred, p_plms, default_schedule)
    b = sample(pred, p_ddim, default_schedule)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_plms_single_step_timeline(default_schedule):
    pred = ConstantPredictor(0.5)
    plan = SamplingPlan(timeline=SamplingTimeline(steps=(1000,)), kind="plms",
                        shape=(2,), seed=21, batch=3)
    out = sample(pred, plan, default_schedule)
    xT = RngStream(21).normal((3, 2))
    expect = predict_x0(xT, pred.predict(xT, 1000), 1000, default_schedule)
    assert np.array_equal(out, expect)


def test_plms_sample_requires_plms_plan(default_schedule):
    plan = make_plan(default_schedule, "ddim", 10)
    with pytest.raises(ConfigError):
        plms_sample(ConstantPredictor(0.0), plan, default_schedule)


def test_sample_bit_identical_across_runs(default_schedule):
    oracle = GaussianOracle(mu0=np.array([1.0, 2.0]), var0=0.5,
                            schedule=default_schedule)
    for kind, steps, eta in [("ddim", 25, 1.0), ("ddim", 25, 0.0), ("plms", 25, 0.0)]:
        plan = make_plan(default_schedule, kind, steps, eta=eta, seed=31)
        a = sample(oracle, plan, default_schedule)
        b = sample(oracle, plan, default_schedule)
        assert np.array_equal(a, b)


def test_sample_ddpm_matches_identity_timeline():
    s = linear_schedule(50)
    oracle = GaussianOracle(mu0=np.zeros(2), var0=1.0, schedule=s)
    plan = SamplingPlan(timeline=subsequence(s, 50), kind="ddpm", shape=(2,),
                        seed=12, batch=6)
    a = sample(oracle, plan, s)
    b = sample(oracle, plan, s)
    assert np.array_equal(a, b)
    assert a.shape == (6, 2)


def test_sample_ddpm_matches_ancestral_step_loop(default_schedule, monkeypatch):
    # ddpm runs as the eta = 1 transfer and ignores the plan's eta; the
    # direct ancestral steps are its reference: the same draws, and the
    # same endpoint up to rounding
    streams = []

    class RecordedStream(RngStream):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    monkeypatch.setattr(samplers, "RngStream", RecordedStream)
    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25,
                            schedule=default_schedule)
    plan = SamplingPlan(timeline=subsequence(default_schedule, default_schedule.T),
                        kind="ddpm", shape=(2,), seed=41, batch=16, eta=0.0)
    got = sample(oracle, plan, default_schedule)
    rng = RngStream(plan.seed)
    want = rng.normal((16, 2))
    for t in plan.timeline.steps:
        want = ddpm_step(oracle, want, t, default_schedule, rng)
    assert [s.draws for s in streams] == [rng.draws]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_ddim_eta_zero_consumes_randomness_only_for_init(default_schedule):
    # counted through a wrapped driver: rerun the driver body manually
    oracle = GaussianOracle(mu0=np.zeros(2), var0=1.0, schedule=default_schedule)
    plan = make_plan(default_schedule, "ddim", 40, eta=0.0, batch=7, seed=2)
    rng = RngStream(plan.seed)
    x = rng.normal((plan.batch, *plan.shape))
    init_draws = rng.draws
    for t_cur, t_next in plan.timeline.pairs():
        e = oracle.predict(x, t_cur)
        x, _ = ddim_step(x, e, t_cur, t_next, 0.0, default_schedule, rng)
    assert rng.draws == init_draws == plan.batch * 2
    # and the public driver reproduces the same endpoint bit for bit
    assert np.array_equal(sample(oracle, plan, default_schedule), x)


def test_cfg_combine_examples():
    u = np.array([0.0, 2.0])
    c = np.array([1.0, 2.0])
    assert np.array_equal(cfg_combine(u, c, 1.0), c)
    assert np.array_equal(cfg_combine(u, c, 0.0), u)
    assert cfg_combine(np.zeros(1), np.ones(1), 5.0)[0] == 5.0
    with pytest.raises(ValueError):
        cfg_combine(np.zeros(2), np.zeros(3), 1.0)


def test_sample_applies_guidance(default_schedule):
    pred = CondSensitivePredictor()
    cond = np.ones((1, 4))
    base = make_plan(default_schedule, "ddim", 10, seed=77, eta=0.0)
    # scale 0 reduces to the unconditional prediction
    plan0 = make_plan(default_schedule, "ddim", 10, seed=77, eta=0.0,
                      guidance_scale=0.0)
    uncond = sample(pred, base, default_schedule, condition=None)
    guided0 = sample(pred, plan0, default_schedule, condition=cond)
    assert np.array_equal(uncond, guided0)
    # scale 1 reduces to the conditional prediction
    plan1 = make_plan(default_schedule, "ddim", 10, seed=77, eta=0.0,
                      guidance_scale=1.0)
    guided1 = sample(pred, plan1, default_schedule, condition=cond)
    assert not np.array_equal(guided1, uncond)


def exact_endpoint_moments(schedule, timeline, mu0, var0, eta):
    """Independent oracle: every sampler step with the Gaussian-oracle
    predictor is affine, x_next = A x + b + sigma z, so the endpoint
    Gaussian of the generated chain follows by propagating (mean, var)
    through the exact per-step coefficients."""
    mean = np.zeros_like(mu0)
    var = 1.0
    for t_cur, t_next in timeline.pairs():
        ac = schedule.alpha_bar(t_cur)
        an = schedule.alpha_bar(t_next)
        m_c = ac * var0 + 1.0 - ac
        sigma = ddim_sigma(eta, t_cur, t_next, schedule)
        # oracle eps is affine in x: eps = p (x - sqrt(ac) mu0)
        p = math.sqrt(1.0 - ac) / m_c
        coef_eps = math.sqrt(max(1.0 - an - sigma**2, 0.0)) \
            - math.sqrt(an) * math.sqrt(1.0 - ac) / math.sqrt(ac)
        A = math.sqrt(an / ac) + coef_eps * p
        b = (math.sqrt(an / ac) - A) * math.sqrt(ac) * mu0
        mean = A * mean + b
        var = A * A * var + sigma**2
    return mean, var


def test_sample_endpoint_matches_exact_affine_propagation(default_schedule):
    # the full 200-step eta=1 chain, checked against the analytically
    # propagated endpoint moments rather than the data prior
    mu0 = np.array([3.0, -1.0])
    var0 = 0.25
    timeline = subsequence(default_schedule, 200)
    exact_mean, exact_var = exact_endpoint_moments(default_schedule, timeline,
                                                   mu0, var0, 1.0)
    # sanity: the chain lands near (but not exactly on) the prior
    assert np.linalg.norm(exact_mean - mu0) < 1e-3
    assert 0.2 < exact_var < var0

    oracle = GaussianOracle(mu0=mu0, var0=var0, schedule=default_schedule)
    n = 20_000
    plan = SamplingPlan(timeline=timeline, kind="ddim", shape=(2,), seed=77,
                        batch=n, eta=1.0, guidance_scale=1.0)
    pts = sample(oracle, plan, default_schedule)
    se_mean = math.sqrt(exact_var / n)
    se_var = exact_var * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(pts.mean(axis=0) - exact_mean) < 4 * se_mean)
    assert np.all(np.abs(pts.var(axis=0, ddof=1) - exact_var) < 4 * se_var)


def reference_plms(predictor, schedule, timeline, x):
    """Independent multistep driver kept deliberately separate from the
    package implementation."""
    history = []
    for t_cur, t_next in timeline.pairs():
        e = predictor.predict(x, t_cur)
        if not history:
            if t_next >= 1:
                mid, _ = ddim_step(x, e, t_cur, t_next, 0.0, schedule)
                e_prime = (e + predictor.predict(mid, t_next)) / 2.0
            else:
                e_prime = e
        elif len(history) == 1:
            e_prime = (3.0 * e - history[-1]) / 2.0
        elif len(history) == 2:
            e_prime = (23.0 * e - 16.0 * history[-1] + 5.0 * history[-2]) / 12.0
        else:
            e_prime = (55.0 * e - 59.0 * history[-1] + 37.0 * history[-2]
                       - 9.0 * history[-3]) / 24.0
        x, _ = ddim_step(x, e_prime, t_cur, t_next, 0.0, schedule)
        history.append(e)
        if len(history) > 3:
            history.pop(0)
    return x


def test_plms_driver_matches_independent_reference(default_schedule):
    oracle = GaussianOracle(mu0=np.array([1.0, -2.0]), var0=0.6,
                            schedule=default_schedule)
    for steps in (1, 2, 3, 4, 9, 40):
        plan = make_plan(default_schedule, "plms", steps, seed=101, batch=8)
        got = sample(oracle, plan, default_schedule)
        want = reference_plms(oracle, default_schedule,
                              subsequence(default_schedule, steps),
                              RngStream(101).normal((8, 2)))
        assert np.array_equal(got, want)


def test_plms_tracks_fine_ddim_reference():
    # lighter version of the acceptance convergence check
    s = linear_schedule(400)
    oracle = GaussianOracle(mu0=np.array([1.5, -0.5]), var0=0.4, schedule=s)

    def endpoint(kind, k):
        plan = SamplingPlan(timeline=subsequence(s, k), kind=kind, shape=(2,),
                            seed=19, batch=64, eta=0.0)
        return sample(oracle, plan, s)

    ref = endpoint("ddim", 400)
    err_plms = np.linalg.norm(endpoint("plms", 20) - ref) / np.linalg.norm(ref)
    err_ddim = np.linalg.norm(endpoint("ddim", 20) - ref) / np.linalg.norm(ref)
    assert err_plms < err_ddim / 5


# ---------------------------------------------------------------------------
# the per-call transfer table, prepared predictors and per-step overhead
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T", [1000, 2000])
@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
def test_transfer_table_matches_scalar_expressions(T, eta):
    s = linear_schedule(T)
    x = RngStream(50).normal((3, 2))
    eps = RngStream(51).normal((3, 2))
    for timeline in (subsequence(s, 200), subsequence(s, 7), subsequence(s, T)):
        table, probe = samplers._transfer_table(timeline, s, eta)
        pairs = timeline.pairs()
        assert table.shape == (len(pairs), 5)
        for (t_cur, t_next), row in zip(pairs, table.tolist()):
            ac, an = s.alpha_bar(t_cur), s.alpha_bar(t_next)
            sigma = ddim_sigma(eta, t_cur, t_next, s)
            rem = max(1.0 - an - sigma * sigma, 0.0)
            assert row == [math.sqrt(1.0 - ac), math.sqrt(ac), math.sqrt(an),
                           math.sqrt(rem), sigma]
        an = s.alpha_bar(pairs[0][1])
        assert probe == (*table[0, :3].tolist(), math.sqrt(max(1.0 - an - 0.0 * 0.0, 0.0)), 0.0)
        # and the transfer it drives is ddim_step, bit for bit, draws included
        for i in (0, 1, 2, -3, -2, -1):
            (t_cur, t_next), coefs = pairs[i], table[i].tolist()
            r1, r2 = RngStream(52), RngStream(52)
            got = samplers._transfer(x, eps, coefs, r1)
            want = ddim_step(x, eps, t_cur, t_next, ddim_sigma(eta, t_cur, t_next, s), s, r2)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert r1.draws == r2.draws
        got = samplers._transfer(x, eps, probe, None)
        want = ddim_step(x, eps, *pairs[0], 0.0, s)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class PreparingPredictor(CondSensitivePredictor):
    """Offers ``prepare``; counts the preparations and the bound calls."""

    def __init__(self):
        self.calls = {"prepare": 0, "predict": 0, "predict_pair": 0}
        self.prepared_with = None

    def prepare(self, condition, timesteps):
        self.calls["prepare"] += 1
        self.prepared_with = tuple(timesteps)
        outer = self

        class Bound:
            def predict(self, xt, t):
                outer.calls["predict"] += 1
                return np.full(np.shape(xt), 0.0 if condition is None else 1.0)

            def predict_pair(self, xt, t):
                outer.calls["predict_pair"] += 1
                return np.zeros(np.shape(xt)), np.ones(np.shape(xt))

        return Bound()


@pytest.mark.parametrize("kind", ["ddim", "plms"])
def test_sample_prepares_the_predictor_once_per_call(default_schedule, kind):
    cond = np.ones((1, 3))
    plan = make_plan(default_schedule, kind, 10, guidance_scale=5.0)
    pred = PreparingPredictor()
    got = sample(pred, plan, default_schedule, condition=cond)
    assert np.array_equal(got, sample(CondSensitivePredictor(), plan, default_schedule, cond))
    evaluations = 11 if kind == "plms" else 10
    assert pred.calls == {"prepare": 1, "predict": 0, "predict_pair": evaluations}
    assert pred.prepared_with == plan.timeline.steps
    sample(pred, plan, default_schedule)            # unguided: the single branch
    assert pred.calls == {"prepare": 2, "predict": evaluations, "predict_pair": evaluations}
    scale1 = make_plan(default_schedule, kind, 10, guidance_scale=1.0)
    sample(pred, scale1, default_schedule, cond)    # scale 1: the conditional branch alone
    assert pred.calls == {"prepare": 3, "predict": 2 * evaluations,
                          "predict_pair": evaluations}


def test_sample_checks_prediction_shape(default_schedule):
    class WrongShape(FakePredictor):
        def predict(self, xt, t, condition=None):
            return np.zeros((1, 2))

    with pytest.raises(ValueError, match="prediction and state"):
        sample(WrongShape(), make_plan(default_schedule, "ddim", 5), default_schedule)


def test_guided_sample_has_no_per_step_overhead(monkeypatch):
    # a count guard, no timing: in one 200-step guided call the per-call
    # work (time features, the condition check, schedule lookups) must not
    # run once per step
    from artdiff import denoisers, numerics
    from artdiff.schedule import NoiseSchedule

    counts = {"time_embedding": 0, "check_condition_tokens": 0, "check_step": 0,
              "require_finite": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(denoisers, "time_embedding")
    counted(denoisers, "check_condition_tokens")
    counted(NoiseSchedule, "check_step")
    counted(numerics, "require_finite")
    monkeypatch.setattr(denoisers, "require_finite", numerics.require_finite)
    monkeypatch.setattr(samplers, "require_finite", numerics.require_finite)

    s = linear_schedule(1000)
    params = denoisers.init_toy_denoiser(RngStream(53), 2)
    cond = RngStream(54).normal((1, 16))
    plan = SamplingPlan(timeline=subsequence(s, 200), kind="ddim", shape=(2,), seed=55,
                        batch=1, eta=1.0, guidance_scale=5.0)
    sample(denoisers.ToyDenoiser(params), plan, s, cond)
    assert counts["time_embedding"] == 1
    assert counts["check_condition_tokens"] == 1
    assert counts["check_step"] == 0
    # per step: the denoiser output and the state; once: the condition
    assert counts["require_finite"] == 2 * 200 + 1


@pytest.mark.parametrize("kind", ["ddim", "plms"])
def test_oracle_sample_schedule_lookups_do_not_grow_with_steps(monkeypatch, kind):
    # a count guard, no timing: the prepared oracle reads the schedule table
    # once per call, so a 200-step call makes as many check_step calls as a
    # 2-step one; its guidance pair is one prediction twice
    from artdiff.schedule import NoiseSchedule

    calls = []
    check_step = NoiseSchedule.check_step
    monkeypatch.setattr(NoiseSchedule, "check_step",
                        lambda self, *a, **k: calls.append(1) or check_step(self, *a, **k))
    s = linear_schedule(1000)
    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25, schedule=s)
    counts = {}
    for steps in (2, 200):
        plan = SamplingPlan(timeline=subsequence(s, steps), kind=kind, shape=(2,), seed=56,
                            batch=3, eta=1.0, guidance_scale=5.0)
        calls.clear()
        guided = sample(oracle, plan, s, np.ones((1, 4)))
        counts[steps] = len(calls)
        assert np.array_equal(guided, sample(oracle, plan, s))
    assert counts[200] == counts[2]


# ---------------------------------------------------------------------------
# the loop's buffers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_transfer_into_buffers_equals_fresh_arrays(sigma):
    # the loop's x_next buffer is the state itself, read before it is written
    x = RngStream(60).normal((7, 2))
    eps = RngStream(61).normal((7, 2))
    coefs = (0.8, 0.6, 0.7, 0.5, sigma)
    r1, r2 = RngStream(62), RngStream(62)
    want = samplers._transfer(x, eps, coefs, r1)
    state = x.copy()
    buffers = (state, np.empty_like(x), np.empty_like(x), np.empty_like(x))
    got = samplers._transfer(state, eps, coefs, r2, buffers)
    assert got[0] is state and got[1] is buffers[1]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert r1.draws == r2.draws


def test_transfer_into_buffers_allocates_nothing():
    # numpy reports its buffers to tracemalloc, so the traced peak of an
    # eta-1 transfer at B=20000, noise draw included, stays below one
    # (B, d) array
    import tracemalloc

    x = RngStream(63).normal((20000, 2))
    eps = RngStream(64).normal((20000, 2))
    rng = RngStream(65)
    buffers = (x, np.empty_like(x), np.empty_like(x), np.empty_like(x))
    coefs = (0.8, 0.6, 0.7, 0.5, 0.1)
    samplers._transfer(x, eps, coefs, rng, buffers)
    tracemalloc.start()
    try:
        samplers._transfer(x, eps, coefs, rng, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_sample_returns_its_state_and_keeps_each_prediction():
    # plms keeps the predictions it was given; a predictor that records
    # them sees none of them overwritten by the loop's buffers
    class Recording(FakePredictor):
        def __init__(self):
            self.seen = []

        def predict(self, xt, t, condition=None):
            eps = 0.1 * xt + 0.01 * t
            self.seen.append((xt, eps, eps.copy()))
            return eps

    s = linear_schedule(100)
    pred = Recording()
    sample(pred, SamplingPlan(timeline=subsequence(s, 10), kind="plms", shape=(2,),
                              seed=66, batch=5), s)
    assert len(pred.seen) == 11
    for _, eps, copy in pred.seen:
        assert eps.tobytes() == copy.tobytes()
    # the warm-up probe is a fresh array; the state is one buffer
    states = [xt for xt, _, _ in pred.seen]
    assert states[1] is not states[0] and all(xt is states[0] for xt in states[2:])


def _ddim_errors_against_the_exact_flow(seed, step_counts):
    """Relative L2 error of the eta = 0 ddim endpoint (T = 1000, batch 256)
    against the closed-form flow map from the same x_T, per step count."""
    s = linear_schedule(1000)
    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25, schedule=s)
    x_T = RngStream(seed).normal((256, 2))      # the plan's first draw
    exact = exact_flow_endpoint(x_T, oracle.mu0, oracle.var0, s.alpha_bar(s.T))
    errors = {}
    for steps in step_counts:
        plan = SamplingPlan(timeline=subsequence(s, steps), kind="ddim", shape=(2,),
                            seed=seed, batch=256, eta=0.0)
        errors[steps] = np.linalg.norm(sample(oracle, plan, s) - exact) / np.linalg.norm(exact)
    return errors


def test_ddim_past_a_divisor_step_count_stays_as_accurate():
    # 501 steps of T = 1000 used to end at t = 500 and jump to t = 0 in one
    # transfer; the evenly spread timeline ends at t = 1
    errors = _ddim_errors_against_the_exact_flow(67, (500, 501))
    assert errors[500] < 1e-2
    assert errors[501] <= 1.5 * errors[500]


def test_ddim_converges_at_first_order_to_the_exact_flow():
    # eta = 0 ddim integrates the probability-flow ODE at first order, so
    # halving the step count doubles its error against the closed form
    errors = _ddim_errors_against_the_exact_flow(123, (500, 1000))
    assert 1.8 <= errors[500] / errors[1000] <= 2.2
