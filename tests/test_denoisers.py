import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from artdiff import denoisers
from artdiff.checkpoint import write_file
from artdiff.cli import _fmt, main
from artdiff.datasets import DATASETS
from artdiff.denoisers import (COND_WIDTH, TIME_DIM, GaussianOracle, LabelEmbedding,
                               ToyDenoiser, TrainConfig, _loss_and_grad,
                               denoiser_bytes, init_toy_denoiser, load_denoiser,
                               time_embedding, toy_denoiser_forward, train)
from artdiff.errors import TrainingDivergedError
from artdiff.numerics import RngStream, softmax
from artdiff.samplers import cfg_combine
from artdiff.schedule import linear_schedule
from reference import cross_attention, label_memory, loss_simple, q_sample, toy_guidance_pair


def loop_attention_reference(queries, memory):
    """Independent loop-based attention with identity projections."""
    dk = len(queries[0])
    out = []
    for q in queries:
        scores = [sum(qi * mi for qi, mi in zip(q, m)) / math.sqrt(dk)
                  for m in memory]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        z = sum(exps)
        weights = [e / z for e in exps]
        out.append([sum(w * m[j] for w, m in zip(weights, memory))
                    for j in range(len(memory[0]))])
    return np.array(out)


def identity_weights(width):
    """A stand-alone attention weight set: the four projections, identities."""
    eye = np.eye(width)
    return SimpleNamespace(wq=eye, wk=eye, wv=eye, wo=eye)


class ReferenceAdam:
    """Per-array Adam over a dict of named arrays: the update that the flat
    vectorised update in ``train`` must reproduce bit for bit."""

    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.t = 0

    def update(self, arrays, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        out = {}
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            out[k] = arrays[k] - lr * mhat / (np.sqrt(vhat) + self.eps)
        return out


def zero_grads(params):
    """A gradient of params' layout, for ``_loss_and_grad`` to write into."""
    return replace(params, vector=np.zeros_like(params.vector))


def from_arrays(params, arrays):
    """Same widths, the weights built from named arrays in checkpoint shapes."""
    return replace(params, vector=np.concatenate([arrays[name].ravel()
                                                  for name in params.arrays()]))


def reference_train(params, dataset, config, schedule, label_embedding=None):
    """Training loop with one named array per weight: time features computed
    per step, a per-array optimizer update and new params every step."""
    rng = RngStream(config.seed)
    rng_data, rng_t = rng.child("data"), rng.child("timesteps")
    rng_eps, rng_drop = rng.child("noise"), rng.child("drop")
    adam = ReferenceAdam(params.arrays()) if config.optimizer == "adam" else None
    losses = np.zeros(config.steps)
    for step in range(config.steps):
        x0, labels = dataset.sample(config.batch_size, rng_data)
        b = x0.shape[0]
        t = rng_t.integers(1, schedule.T, (b,))
        eps = rng_eps.normal(x0.shape)
        a = schedule.alpha_bars[t - 1][:, None]
        xt = np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps
        memory = keep = None
        if label_embedding is not None and labels is not None:
            memory = label_memory(label_embedding, labels)
            keep = (rng_drop.uniform((b,)) >= config.drop_prob).astype(np.float64)[:, None]
        grads = zero_grads(params)
        losses[step] = _loss_and_grad(params, grads, xt, time_embedding(t),
                                      eps, memory, keep)
        arrays, grads = params.arrays(), grads.arrays()
        if adam is not None:
            arrays = adam.update(arrays, grads, config.learning_rate)
        else:
            arrays = {k: arrays[k] - config.learning_rate * grads[k] for k in grads}
        params = from_arrays(params, arrays)
    return params, losses


# ---------------------------------------------------------------------------
# Gaussian oracle
# ---------------------------------------------------------------------------

def test_oracle_unit_prior_simplification(default_schedule):
    oracle = GaussianOracle(mu0=np.zeros(2), var0=1.0, schedule=default_schedule)
    rng = RngStream(1)
    for t in [1, 400, 1000]:
        xt = rng.normal((5, 2))
        expect = math.sqrt(1.0 - default_schedule.alpha_bar(t)) * xt
        assert np.allclose(oracle.predict(xt, t), expect, atol=1e-12)


def test_oracle_point_mass_recovers_noise_exactly(default_schedule):
    mu0 = np.array([2.0, -3.0])
    oracle = GaussianOracle(mu0=mu0, var0=0.0, schedule=default_schedule)
    rng = RngStream(2)
    for t in [1, 250, 999]:
        eps = rng.normal((1, 2))
        xt = q_sample(mu0[None, :], t, eps, default_schedule)
        rec = oracle.predict(xt, t)
        assert np.max(np.abs(rec - eps)) <= 1e-10


@pytest.mark.parametrize("shape", [(2,), (1, 3), (1, 1, 2)])
def test_oracle_refuses_a_state_that_is_not_batch_by_width(default_schedule, shape):
    # a state is (batch, width), as the toy takes it; a (2,) row does not
    # broadcast into one
    oracle = GaussianOracle(mu0=np.array([2.0, -3.0]), var0=0.5, schedule=default_schedule)
    with pytest.raises(ValueError, match=r"is not \(batch, 2\)"):
        oracle.predict(np.zeros(shape), 10)
    with pytest.raises(ValueError, match=r"is not \(batch, 2\)"):
        oracle.prepare(np.ones((1, 4)), (10,), 5.0).predict(np.zeros(shape), 10)


def test_oracle_matches_monte_carlo_regression(default_schedule):
    # regress the true eps on xt; the fitted slope must match the oracle's
    # linear coefficient within 3 standard errors
    t = 600
    var0 = 0.7
    a = default_schedule.alpha_bar(t)
    n = 100_000
    rng = RngStream(3)
    x0 = math.sqrt(var0) * rng.normal((n, 1))
    eps = rng.normal((n, 1))
    xt = q_sample(x0, t, eps, default_schedule)
    slope = float((xt * eps).sum() / (xt * xt).sum())
    m_t = a * var0 + 1.0 - a
    oracle_slope = math.sqrt(1.0 - a) / m_t
    resid = eps - slope * xt
    se = math.sqrt(float((resid**2).mean()) / float((xt * xt).sum()))
    assert abs(slope - oracle_slope) < 3 * se


def test_oracle_beats_zero_predictor(default_schedule):
    mu0 = np.zeros(3)
    oracle = GaussianOracle(mu0=mu0, var0=1.0, schedule=default_schedule)

    class Zero:
        def predict(self, xt, t, condition=None):
            return np.zeros_like(xt)

    rng = RngStream(4)
    n = 10_000
    x0 = rng.normal((n, 3))
    eps = rng.normal((n, 3))
    for t in [100, 900]:
        assert loss_simple(oracle, x0, t, eps, default_schedule) \
            <= loss_simple(Zero(), x0, t, eps, default_schedule)


def test_oracle_output_is_mse_stationary(default_schedule):
    # no perturbation direction of the oracle output lowers the Monte Carlo
    # eps-regression error
    t = 350
    var0 = 0.5
    oracle = GaussianOracle(mu0=np.ones(2), var0=var0, schedule=default_schedule)
    rng = RngStream(5)
    n = 10_000
    x0 = np.ones(2) + math.sqrt(var0) * rng.normal((n, 2))
    eps = rng.normal((n, 2))
    xt = q_sample(x0, t, eps, default_schedule)
    base_pred = oracle.predict(xt, t)
    base_mse = float(np.mean((base_pred - eps) ** 2))
    dir_rng = RngStream(6)
    for _ in range(20):
        direction = dir_rng.normal((2,))
        direction /= np.linalg.norm(direction)
        for delta in (0.05, -0.05):
            mse = float(np.mean((base_pred + delta * direction - eps) ** 2))
            assert mse >= base_mse


def test_oracle_rejects_negative_variance(default_schedule):
    with pytest.raises(ValueError):
        GaussianOracle(mu0=np.zeros(1), var0=-0.1, schedule=default_schedule)


@pytest.mark.parametrize("mu0, var0, message", [
    ([0.0, 1.0], math.nan, "var0 must be a finite number"),
    ([0.0, 1.0], math.inf, "var0 must be a finite number"),
    ([math.nan, 1.0], 0.25, "mu0 contains non-finite"),
    ([1.0, -math.inf], 0.25, "mu0 contains non-finite"),
], ids=["nan-var0", "inf-var0", "nan-mu0", "inf-mu0"])
def test_oracle_rejects_non_finite_inputs(default_schedule, mu0, var0, message):
    # refused when built, not at the first sampling step
    with pytest.raises(ValueError, match=message):
        GaussianOracle(mu0=np.array(mu0), var0=var0, schedule=default_schedule)


def _closed_form_oracle(oracle, xt, t):
    """The oracle's noise prediction, written out with one schedule lookup."""
    a = oracle.schedule.alpha_bar(t)
    x0_mean = (math.sqrt(a) * oracle.var0 * xt + (1.0 - a) * oracle.mu0) \
        / (a * oracle.var0 + 1.0 - a)
    return (xt - math.sqrt(a) * x0_mean) / math.sqrt(1.0 - a)


@pytest.mark.parametrize("batch", [1, 2000])
def test_prepared_oracle_matches_predict_bit_for_bit(default_schedule, batch):
    from artdiff.schedule import subsequence

    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25, schedule=default_schedule)
    x = RngStream(7).normal((batch, 2))
    for timeline in (subsequence(default_schedule, 200),
                     subsequence(default_schedule, default_schedule.T)):
        bound = oracle.prepare(None, timeline.steps)
        for t in timeline.steps:
            got = bound.predict(x, t)
            assert got.tobytes() == oracle.predict(x, t).tobytes()
            assert got.tobytes() == _closed_form_oracle(oracle, x, t).tobytes()
    # the condition and the scale are ignored: both guidance branches are
    # the prediction, so the guided estimate is too
    guided = oracle.prepare(np.ones((1, 4)), (10,), 5.0).predict(x, 10)
    assert guided.tobytes() == oracle.predict(x, 10).tobytes()


def test_prepared_oracle_predictions_never_alias_its_workspace(default_schedule):
    # plms keeps earlier predictions, so a later call must not overwrite
    # them: each result stays bit-identical to a copy taken when returned
    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25, schedule=default_schedule)
    steps = (900, 400, 120, 3)
    bound = oracle.prepare(None, steps)
    guided = oracle.prepare(np.ones((1, 4)), steps, 5.0)
    rng = RngStream(8)
    kept = []
    for i, batch in enumerate((20000, 1, 7, 20000)):
        x = rng.child(f"x{i}").normal((batch, 2))
        for t in steps:
            for result in (bound.predict(x, t), guided.predict(x, t)):
                kept.append((result, result.copy()))
            assert result.tobytes() == _closed_form_oracle(oracle, x, t).tobytes()
    for binding in (bound, guided):
        assert sorted(binding._workspace) == [(1, 2), (7, 2), (20000, 2)]
    for result, copy in kept:
        assert result.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(result, buf) for binding in (bound, guided)
                       for ws in binding._workspace.values() for buf in ws)


def test_prepared_oracle_allocates_only_its_prediction(default_schedule):
    # a repeat B=20000 prediction writes its stages into the workspace;
    # numpy reports its buffers to tracemalloc, so the traced peak stays
    # below two (B, d) arrays: the returned prediction is the only one
    import tracemalloc

    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25, schedule=default_schedule)
    bound = oracle.prepare(None, (500, 499))
    x = RngStream(9).normal((20000, 2))
    bound.predict(x, 500)     # allocates the workspace
    tracemalloc.start()
    try:
        bound.predict(x, 499)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes


@pytest.mark.parametrize("var0", [0.25, 1, 0.0])
def test_prepared_oracle_factors_equal_the_scalar_expressions(default_schedule, var0):
    # the factor table comes from one numpy pass over alpha_bar; np.sqrt is
    # correctly rounded like math.sqrt, so every factor keeps its bits
    oracle = GaussianOracle(mu0=np.zeros(2), var0=var0, schedule=default_schedule)
    steps = list(range(default_schedule.T, 0, -1)) + [5, 5]
    want = {}
    for t in steps:
        a = default_schedule.alpha_bar(t)
        want[t] = (math.sqrt(a) * var0, 1.0 - a, a * var0 + 1.0 - a,
                   math.sqrt(a), math.sqrt(1.0 - a))
    assert oracle.prepare(None, steps)._factors == want


def test_prepared_oracle_rejects_unprepared_and_out_of_range_timesteps(default_schedule):
    oracle = GaussianOracle(mu0=np.zeros(2), var0=1.0, schedule=default_schedule)
    with pytest.raises(ValueError, match="timestep 7"):
        oracle.prepare(None, (10, 5)).predict(np.zeros((2, 2)), 7)
    for steps in ((0, 5), (default_schedule.T + 1,)):
        with pytest.raises(ValueError, match="timesteps must lie in"):
            oracle.prepare(None, steps)


# ---------------------------------------------------------------------------
# time embedding
# ---------------------------------------------------------------------------

def test_time_embedding_at_zero():
    emb = time_embedding(0)
    half = TIME_DIM // 2
    assert np.array_equal(emb[0::2], np.zeros(half))
    assert np.array_equal(emb[1::2], np.ones(half))
    assert np.linalg.norm(emb) == pytest.approx(math.sqrt(half), rel=1e-15)


def test_time_embedding_no_collisions():
    embs = time_embedding(np.arange(1, 1001, dtype=np.float64))
    assert embs.shape == (1000, TIME_DIM)
    distinct = {embs[i].tobytes() for i in range(1000)}
    assert len(distinct) == 1000
    # stronger: minimal pairwise distance over a subsample is positive
    sub = embs[::25]
    d = np.linalg.norm(sub[:, None] - sub[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-3


# ---------------------------------------------------------------------------
# cross attention
# ---------------------------------------------------------------------------

def test_attention_single_memory_token():
    rng = RngStream(7)
    w = identity_weights(4)
    token = rng.normal((1, 4))
    queries = rng.normal((3, 4))
    out = cross_attention(queries, token, w)
    for row in out:
        assert np.allclose(row, token[0], atol=1e-14)


def test_attention_identical_keys_average_values():
    # keys equal -> weights 1/2 each -> output is the mean of the values
    w = SimpleNamespace(wq=np.eye(2), wk=np.zeros((2, 2)), wv=np.eye(2), wo=np.eye(2))
    memory = np.array([[1.0, 5.0], [3.0, -1.0]])
    out = cross_attention(np.array([[0.4, -0.2]]), memory, w)
    assert np.allclose(out[0], memory.mean(axis=0), atol=1e-14)


def test_attention_two_query_three_memory_hand_case():
    # frozen from the loop reference below (identity projections)
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    memory = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    out = cross_attention(queries, memory, identity_weights(2))
    frozen = np.array([[2.35422, 3.05236], [2.56055, 3.50329]])
    assert np.allclose(out, frozen, atol=5e-6)
    assert np.allclose(out, loop_attention_reference(queries, memory), atol=1e-12)


def test_attention_weights_nonnegative_rows_sum_one():
    rng = RngStream(8)
    p = init_toy_denoiser(rng, 2)
    from artdiff.denoisers import _attend, _project
    h = rng.normal((6, 16))
    mem = rng.normal((6, 3, 16))
    _, cache = _attend(h, *_project(mem, p), p)
    weights = cache[4]
    assert np.all(weights >= 0.0)
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12


def test_attention_permutation_invariance():
    rng = RngStream(9)
    p = init_toy_denoiser(rng, 2)
    q = rng.normal((4, 16))
    mem = rng.normal((5, 16))
    base = cross_attention(q, mem, p)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(5)
        out = cross_attention(q, mem[perm], p)
        assert np.max(np.abs(out - base)) <= 5e-14


def test_attention_rejects_empty_memory():
    with pytest.raises(ValueError):
        cross_attention(np.zeros((1, 2)), np.zeros((0, 2)), identity_weights(2))


# ---------------------------------------------------------------------------
# toy denoiser forward
# ---------------------------------------------------------------------------

def test_forward_zero_params_zero_output(default_schedule):
    p = init_toy_denoiser(RngStream(10), 2)
    zeroed = replace(p, vector=np.zeros_like(p.vector))
    xt = RngStream(11).normal((5, 2))
    out = toy_denoiser_forward(zeroed, xt, 500)
    assert np.array_equal(out, np.zeros((5, 2)))
    out_c = toy_denoiser_forward(zeroed, xt, 500, condition=np.ones((2, 16)))
    assert np.array_equal(out_c, np.zeros((5, 2)))


def test_forward_shape_contract_over_random_draws():
    rng = RngStream(12)
    for i in range(100):
        p = init_toy_denoiser(rng.child(f"p{i}"), 2)
        xt = rng.normal((3, 2))
        out = toy_denoiser_forward(p, xt, int(rng.integers(1, 1000, (1,))[0]))
        assert out.shape == xt.shape
        assert np.all(np.isfinite(out))
    # a single sample is a one-row batch; a 1D vector is refused
    with pytest.raises(ValueError, match=r"not \(batch, 2\)"):
        toy_denoiser_forward(p, np.zeros(2), 5)


def test_forward_deterministic():
    p = init_toy_denoiser(RngStream(13), 2)
    xt = RngStream(14).normal((4, 2))
    cond = RngStream(15).normal((3, 16))
    a = toy_denoiser_forward(p, xt, 123, cond)
    b = toy_denoiser_forward(p, xt, 123, cond)
    assert np.array_equal(a, b)


def test_forward_width_mismatch():
    p = init_toy_denoiser(RngStream(16), 2)
    with pytest.raises(ValueError):
        toy_denoiser_forward(p, np.zeros((4, 3)), 10)


def test_condition_changes_output():
    p = init_toy_denoiser(RngStream(17), 2)
    xt = RngStream(18).normal((4, 2))
    plain = toy_denoiser_forward(p, xt, 77)
    conditioned = toy_denoiser_forward(p, xt, 77, RngStream(19).normal((1, 16)))
    assert not np.array_equal(plain, conditioned)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences_spot_check(default_schedule):
    # full-parameter sweep lives in the acceptance suite; here a randomly
    # chosen subset of 60 coordinates per configuration keeps things fast
    rng = RngStream(20)
    p = init_toy_denoiser(rng.child("init"), 2)
    x0 = rng.child("x").normal((4, 2))
    t = np.array([3, 77, 500, 998])
    eps = rng.child("e").normal((4, 2))
    a = default_schedule.alpha_bars[t - 1][:, None]
    xt = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
    temb = time_embedding(t)
    for mem, mask in [(None, None),
                      (rng.child("m").normal((4, 1, 16)), np.array([[1.0], [0.0], [1.0], [1.0]]))]:
        grads, scratch = zero_grads(p), zero_grads(p)
        _loss_and_grad(p, grads, xt, temb, eps, mem, mask)
        gvec = grads.vector
        vec = p.vector
        coords = RngStream(21).integers(0, vec.size - 1, (60,))
        h = 1e-4
        for i in coords:
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            lp = _loss_and_grad(replace(p, vector=vp), scratch, xt, temb, eps, mem, mask)
            lm = _loss_and_grad(replace(p, vector=vm), scratch, xt, temb, eps, mem, mask)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gvec[i]) <= 1e-4 * max(abs(fd), abs(gvec[i]), 1e-6)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_zero_steps_is_identity(default_schedule):
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(22), 2)
    cfg = TrainConfig(steps=0, batch_size=8, seed=1)
    trained, losses = train(p, ds, cfg, default_schedule)
    assert losses.size == 0
    for name, arr in p.arrays().items():
        assert np.array_equal(arr, trained.arrays()[name])


def test_train_single_sgd_step_matches_hand_update(default_schedule):
    # replay the training loop's draws and apply the update by hand
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(23), 2)
    cfg = TrainConfig(steps=1, batch_size=6, learning_rate=0.05, seed=9,
                      optimizer="sgd")
    trained, losses = train(p, ds, cfg, default_schedule)

    rng = RngStream(9)
    x0, _ = ds.sample(6, rng.child("data"))
    t = rng.child("timesteps").integers(1, default_schedule.T, (6,))
    eps = rng.child("noise").normal((6, 2))
    a = default_schedule.alpha_bars[t - 1][:, None]
    xt = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
    grads = zero_grads(p)
    loss = _loss_and_grad(p, grads, xt, time_embedding(t), eps, None, None)
    assert losses[0] == loss
    for name, arr in p.arrays().items():
        expect = arr - 0.05 * grads.arrays()[name]
        assert np.array_equal(trained.arrays()[name], expect)


def test_train_two_adam_steps_match_hand_update(default_schedule):
    # replay two conditional steps' draws and apply a dict-based Adam by hand
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(24), 2)
    emb = LabelEmbedding.create(8, 2)
    cfg = TrainConfig(steps=2, batch_size=6, learning_rate=0.01, seed=4, drop_prob=0.5)
    trained, losses = train(p, ds, cfg, default_schedule, emb)

    rng = RngStream(4)
    streams = [rng.child(n) for n in ("data", "timesteps", "noise", "drop")]
    adam = ReferenceAdam(p.arrays())
    expect = p
    for step in range(2):
        x0, labels = ds.sample(6, streams[0])
        t = streams[1].integers(1, default_schedule.T, (6,))
        eps = streams[2].normal((6, 2))
        keep = (streams[3].uniform((6,)) >= 0.5).astype(np.float64)
        a = default_schedule.alpha_bars[t - 1][:, None]
        xt = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
        grads = zero_grads(expect)
        loss = _loss_and_grad(expect, grads, xt, time_embedding(t), eps,
                              label_memory(emb, labels), keep[:, None])
        assert losses[step] == loss
        expect = from_arrays(expect, adam.update(expect.arrays(), grads.arrays(), 0.01))
    for name, arr in expect.arrays().items():
        assert np.array_equal(trained.arrays()[name], arr), name


@pytest.mark.parametrize("variant", ["cond-adam", "uncond-adam", "cond-sgd"])
def test_train_matches_reference_loop(default_schedule, variant):
    # the later runs cross two block boundaries of the timestep, noise and
    # drop draws and end in a short block: at an odd batch, and at a batch
    # large enough to cut the block to two steps
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(26), 2)
    emb = None if variant.startswith("uncond") else LabelEmbedding.create(8, 3)
    large = denoisers.TRAIN_BLOCK_ROWS // 2 - 1
    for steps, batch in ((25, 16), (2 * denoisers.TRAIN_BLOCK + 3, 7), (5, large)):
        cfg = TrainConfig(steps=steps, batch_size=batch, learning_rate=0.01, seed=8,
                          drop_prob=0.2, optimizer=variant.split("-")[1])
        trained, losses = train(p, ds, cfg, default_schedule, emb)
        expect, expect_losses = reference_train(p, ds, cfg, default_schedule, emb)
        assert np.array_equal(losses, expect_losses), steps
        for name, arr in expect.arrays().items():
            assert np.array_equal(trained.arrays()[name], arr), (steps, name)


@pytest.mark.parametrize("variant", ["cond-adam", "uncond-adam", "cond-sgd"])
def test_toy_train_outputs_match_reference_loop_bytes(tmp_path, variant):
    argv = ["toy-train", "--dataset", "8-gaussian-ring", "--steps", "30", "--batch", "16",
            "--lr", "0.01", "--seed", "3", "--timesteps", "200", "--drop_prob", "0.1",
            "--optimizer", variant.split("-")[1], "--out", str(tmp_path / "cli")]
    conditional = not variant.startswith("uncond")
    assert main(argv + ["--conditional"] * conditional) == 0

    schedule = linear_schedule(200)
    p = init_toy_denoiser(RngStream(3).child("init"), 2)
    emb = LabelEmbedding.create(8, 3) if conditional else None
    cfg = TrainConfig(steps=30, batch_size=16, learning_rate=0.01, seed=3, drop_prob=0.1,
                      optimizer=variant.split("-")[1])
    expect, losses = reference_train(p, DATASETS["8-gaussian-ring"], cfg, schedule, emb)
    loss_csv = "\n".join(["step,loss"] + [f"{i},{_fmt(v)}" for i, v in enumerate(losses)])
    assert (tmp_path / "cli" / "checkpoint.bin").read_bytes() == \
        denoiser_bytes(tmp_path / "ref.bin", expect, schedule, emb)
    assert (tmp_path / "cli" / "loss.csv").read_text() == loss_csv + "\n"


def test_time_table_rows_match_time_embedding(default_schedule, monkeypatch):
    T = default_schedule.T
    table = time_embedding(np.arange(1, T + 1))
    for t in range(1, T + 1):
        assert np.array_equal(table[t - 1], time_embedding(t)), t
    # per-sample t in training reads the table, built once per train call
    calls = []
    original = denoisers.time_embedding
    monkeypatch.setattr(denoisers, "time_embedding",
                        lambda t: calls.append(np.shape(t)) or original(t))
    train(init_toy_denoiser(RngStream(27), 2), DATASETS["8-gaussian-ring"],
          TrainConfig(steps=5, batch_size=4), default_schedule)
    assert calls == [(T,)]


def test_param_views_share_the_flat_vector(tmp_path):
    p = init_toy_denoiser(RngStream(28), 2)
    shapes = denoisers._param_shapes(p.data_width, p.width)
    # the views tile the vector exactly once, in layout order; a bias is a row
    p.vector[:] = np.arange(p.vector.size)
    offset = 0
    for name, shape in shapes.items():
        view = getattr(p, name)
        assert view.shape == (shape if len(shape) == 2 else (1,) + shape), name
        assert np.array_equal(view.ravel(), np.arange(offset, offset + view.size)), name
        offset += view.size
    assert offset == p.vector.size
    p.vector[-2] = -1.0                     # writes reach the views
    assert p.b_out[0, 0] == -1.0
    # arrays() gives the checkpoint shapes: biases 1-D
    assert {n: a.shape for n, a in p.arrays().items()} == shapes
    # a checkpoint round trip returns an equal vector
    write_file(tmp_path / "p.bin", denoiser_bytes(tmp_path / "p.bin", p, linear_schedule(10)))
    assert np.array_equal(load_denoiser(tmp_path / "p.bin")[0].vector, p.vector)
    for bad in (p.vector[:-1], np.append(p.vector, 0.0), p.vector.astype(np.float32),
                p.vector.tolist()):
        with pytest.raises(ValueError):
            replace(p, vector=bad)


def test_loss_and_grad_writes_every_gradient_slot():
    # a gradient pre-filled with NaN comes out bit-identical to a zeroed one,
    # so every slot, the attention's included, is written on every call
    rng = RngStream(29)
    p = init_toy_denoiser(rng.child("init"), 2)
    xt = rng.child("x").normal((4, 2))
    eps = rng.child("e").normal((4, 2))
    temb = time_embedding(np.array([3, 77, 500, 998]))
    table, labels = rng.child("tokens").normal((8, 16)), np.array([5, 0, 5, 7])
    for mem, lab in ((None, None), (rng.child("m1").normal((4, 1, 16)), None),
                     (rng.child("m2").normal((4, 2, 16)), None), (table, labels)):
        zeroed, nans = zero_grads(p), replace(p, vector=np.full(p.vector.size, np.nan))
        mask = None if mem is None else np.ones((4, 1))
        loss = _loss_and_grad(p, zeroed, xt, temb, eps, mem, mask, labels=lab)
        assert _loss_and_grad(p, nans, xt, temb, eps, mem, mask, labels=lab) == loss
        assert zeroed.vector.tobytes() == nans.vector.tobytes()


def test_loss_and_grad_takes_the_mask_as_one_column():
    # with memory the mask is the (B, 1) column training passes: no
    # all-ones mask stands in for None, and a (B,) mask is not reshaped
    rng = RngStream(29)
    p = init_toy_denoiser(rng.child("init"), 2)
    xt, eps = rng.child("x").normal((4, 2)), rng.child("e").normal((4, 2))
    temb = time_embedding(np.array([3, 77, 500, 998]))
    mem = rng.child("m").normal((4, 1, 16))
    assert math.isfinite(_loss_and_grad(p, zero_grads(p), xt, temb, eps, mem, np.ones((4, 1))))
    with pytest.raises(TypeError):
        _loss_and_grad(p, zero_grads(p), xt, temb, eps, mem, None)
    with pytest.raises(ValueError):
        _loss_and_grad(p, zero_grads(p), xt, temb, eps, mem, np.ones(4))


@pytest.mark.parametrize("masks", ["kept", "dropped", "mixed"])
@pytest.mark.parametrize("batch", [1, 2, 7, 63, 64])
def test_label_form_gradient_bytes_equal_per_row_memory(default_schedule, batch, masks):
    # training hands in the token table and the labels; the loss and every
    # gradient byte must equal those of per-row (B, 1, dc) memory
    rng = RngStream(56)
    p = init_toy_denoiser(rng.child("init"), 2)
    emb = LabelEmbedding.create(8, 3)
    for draw in range(4):
        r = rng.child(f"draw-{draw}")
        labels = r.integers(0, 7, (batch,))
        temb = time_embedding(r.integers(1, default_schedule.T, (batch,)))
        xt, eps = r.normal((batch, 2)), r.normal((batch, 2))
        keep = {"kept": np.ones(batch), "dropped": np.zeros(batch),
                "mixed": (r.uniform((batch,)) >= 0.5).astype(np.float64)}[masks]
        got, want = zero_grads(p), zero_grads(p)
        loss = _loss_and_grad(p, got, xt, temb, eps, emb.tokens, keep[:, None], labels=labels)
        ref_loss = _loss_and_grad(p, want, xt, temb, eps, label_memory(emb, labels),
                                  keep[:, None])
        assert loss == ref_loss
        assert got.vector.tobytes() == want.vector.tobytes()


def test_conditional_train_projects_no_per_row_memory(default_schedule, monkeypatch):
    # training hands the projection the (n_classes, dc) token table once a
    # step, never a per-row (B, n, dc) memory
    project, shapes = denoisers._project, []

    def table_only(memory, w, labels=None):
        assert np.ndim(memory) == 2, "training projected per-row memory"
        shapes.append(np.shape(memory))
        return project(memory, w, labels)

    monkeypatch.setattr(denoisers, "_project", table_only)
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(57), 2)
    emb = LabelEmbedding.create(8, 1)
    for optimizer in ("adam", "sgd"):
        cfg = TrainConfig(steps=3, batch_size=16, seed=2, drop_prob=0.1, optimizer=optimizer)
        train(p, ds, cfg, default_schedule, emb)
    assert shapes == [(8, COND_WIDTH)] * 6


def test_train_reduces_loss_on_ring(default_schedule):
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(0).child("init"), 2)
    cfg = TrainConfig(steps=2000, batch_size=64, learning_rate=1e-3, seed=0)
    _, losses = train(p, ds, cfg, default_schedule)
    assert losses[-200:].mean() < 0.7 * losses[:200].mean()


def test_train_detects_divergence(default_schedule):
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(25), 2)
    cfg = TrainConfig(steps=100, batch_size=8, learning_rate=1e14, seed=0,
                      optimizer="sgd")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(p, ds, cfg, default_schedule)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(drop_prob=1.5)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lion")


def test_label_embedding_shapes_and_determinism():
    e1 = LabelEmbedding.create(8, 4)
    e2 = LabelEmbedding.create(8, 4)
    assert np.array_equal(e1.tokens, e2.tokens)
    assert e1.condition(3).shape == (1, 16)
    mem = label_memory(e1, np.array([0, 7, 2]))
    assert mem.shape == (3, 1, 16)
    assert np.array_equal(mem[1, 0], e1.tokens[7])


@pytest.mark.parametrize("label", [-1, 8])    # -1 would index the last token
def test_label_embedding_refuses_label_outside_table(label):
    emb = LabelEmbedding.create(8, 4)
    assert np.array_equal(emb.condition(np.int64(7))[0], emb.tokens[7])
    with pytest.raises(ValueError, match=r"label must lie in \[0, 8\), got " + str(label)):
        emb.condition(label)


def test_toy_denoiser_predictor_facade(default_schedule):
    p = init_toy_denoiser(RngStream(26), 2)
    pred = ToyDenoiser(p)
    xt = RngStream(27).normal((3, 2))
    assert np.array_equal(pred.predict(xt, 10), toy_denoiser_forward(p, xt, 10))


# ---------------------------------------------------------------------------
# fused guidance pair, shared-memory attention, scalar-t features
# ---------------------------------------------------------------------------

def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("batch", [1, 2000])
def test_fused_guidance_pair_matches_two_forward_calls(batch):
    rng = RngStream(40)
    p = init_toy_denoiser(rng.child("init"), 2)
    cond = rng.child("c").normal((1, 16))
    xt = rng.child("x").normal((batch, 2))
    for t in (1, 37, 999):
        # scale 0 gives the unconditional branch, 1 the conditional one
        uncond, conditioned, guided = (ToyDenoiser(p).prepare(cond, (t,), scale).predict(xt, t)
                                       for scale in (0.0, 1.0, 5.0))
        ref_u = toy_denoiser_forward(p, xt, t)
        ref_c = toy_denoiser_forward(p, xt, t, cond)
        assert uncond.shape == conditioned.shape == xt.shape
        assert _rel_err(uncond, ref_u) <= 1e-12
        assert _rel_err(conditioned, ref_c) <= 1e-12
        assert _rel_err(guided, cfg_combine(ref_u, ref_c, 5.0)) <= 1e-12


@pytest.mark.parametrize("scale", [0.0, 1.0, 5.0])
def test_one_row_guided_prediction_is_cfg_combine_bit_for_bit(monkeypatch, scale):
    # at one row the binding combines its two head rows on Python floats:
    # the bits of cfg_combine of those rows, over random rows and over head
    # rows whose difference overflows to inf (nan once scaled by 0)
    rng = RngStream(56)
    p = init_toy_denoiser(rng.child("init"), 2)
    cond = rng.child("c").normal((1, 16))
    for i in range(20):
        x = rng.child(f"x{i}").normal((1, 2)) * 10.0 ** (i % 5 - 2)
        t = 1 + 47 * i
        u, c = toy_guidance_pair(p, x, t, cond)
        got = ToyDenoiser(p).prepare(cond, (t,), scale).predict(x, t)
        assert got.shape == (1, 2) and got.tobytes() == cfg_combine(u, c, scale).tobytes()
    heads = [np.array([[-1e308, 1e308], [1e308, -1e308]]),
             np.array([[1.7e308, -3.0], [-1.7e308, 2.5e-308]])]
    heads += [np.clip(rng.child(f"h{i}").normal((2, 2)), -3.5, 3.5) * 5e307 for i in range(20)]
    bound = ToyDenoiser(p).prepare(cond, (5,), scale)
    x = rng.child("x").normal((1, 2))
    overflowed = 0
    for head in heads:
        monkeypatch.setattr(denoisers, "_head", lambda *a, **k: (None, None, head.copy()))
        got = bound.predict(x, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            want = cfg_combine(head[:1], head[1:], scale)
        assert got.shape == (1, 2) and got.tobytes() == want.tobytes()
        overflowed += not np.all(np.isfinite(want))
    assert overflowed >= 2


def test_attend_shared_memory_matches_per_row_memory():
    from artdiff.denoisers import _attend, _project

    rng = RngStream(42)
    p = init_toy_denoiser(rng.child("init"), 2)
    h = rng.child("h").normal((50, 16))
    mem = rng.child("m").normal((3, 16))
    out, cache = _attend(h, *_project(mem, p), p)
    ref, ref_cache = _attend(h, *_project(np.broadcast_to(mem, (50, 3, 16)), p),
                             p)
    assert _rel_err(out, ref) <= 1e-12
    assert _rel_err(cache[4], ref_cache[4]) <= 1e-12     # attention weights


def test_scalar_t_features_match_per_row_features():
    # a prepared predictor hands the trunk one shared (1, width) time term,
    # features times w_time.T, for the whole batch; it gives the trunk of one
    # term per sample. The width is not TIME_DIM, so features passed where
    # the trunk takes terms fail on shape
    from artdiff.denoisers import _trunk

    rng = RngStream(43)
    p = init_toy_denoiser(rng.child("init"), 2, width=24)
    assert p.width != TIME_DIM
    x = rng.child("x").normal((40, 2))
    for t in (1, 500, 1000):
        temb, ref_temb = time_embedding(t)[None], time_embedding(np.full(40, t))
        assert np.array_equal(np.broadcast_to(temb, ref_temb.shape), ref_temb)
        h1, _, h2 = _trunk(p, x, np.dot(temb, p.w_time.T))
        ref_h1, _, ref_h2 = _trunk(p, x, np.dot(ref_temb, p.w_time.T))
        assert _rel_err(h1, ref_h1) <= 1e-12
        assert _rel_err(h2, ref_h2) <= 1e-12


def test_gradients_with_scalar_t_match_per_row():
    # one scalar t's feature row broadcast over the batch reaches the
    # backward pass as per-row time features
    rng = RngStream(44)
    p = init_toy_denoiser(rng.child("init"), 2)
    xt = rng.child("x").normal((5, 2))
    eps = rng.child("e").normal((5, 2))
    mem = np.broadcast_to(rng.child("m").normal((2, 16)), (5, 2, 16))
    mask = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
    grads, ref_grads = zero_grads(p), zero_grads(p)
    loss = _loss_and_grad(p, grads, xt, np.broadcast_to(time_embedding(300), (5, TIME_DIM)),
                          eps, mem, mask)
    ref_loss = _loss_and_grad(p, ref_grads, xt, time_embedding(np.full(5, 300)), eps,
                              mem, mask)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, g in ref_grads.arrays().items():
        assert np.allclose(grads.arrays()[name], g, rtol=1e-12, atol=1e-15), name


# ---------------------------------------------------------------------------
# the prepared predictor of one sampling call
# ---------------------------------------------------------------------------

def _reference_forward(p, xt, t, cond):
    """The training forward (fresh time features, softmax attention)."""
    temb = time_embedding(t)[None]
    h2 = denoisers._trunk(p, xt, denoisers._product(len(temb))(temb, p.w_time.T))[-1]
    if cond is not None:
        h2 = h2 + denoisers._attend(h2, *denoisers._project(cond, p), p)[0]
    return denoisers._head(p, h2)[-1]


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 64, 2000, 2050])
def test_prepared_predictor_matches_forward_bit_for_bit(default_schedule, batch):
    # the workspace tiles the biases and keeps contiguous FF transposes; a
    # one-row stage keeps the transposed views, since gemv rounds by layout.
    # The guided estimate is cfg_combine's roundings of its two branches;
    # at 2050 rows a branch its head runs in three tiles, unguided in two
    from artdiff.schedule import subsequence

    rng = RngStream(45)
    p = init_toy_denoiser(rng.child("init"), 2)
    cond = rng.child("c").normal((1, 16))
    steps = subsequence(default_schedule, 200).steps
    bound = ToyDenoiser(p).prepare(cond, steps)
    plain = ToyDenoiser(p).prepare(None, steps)
    guided = ToyDenoiser(p).prepare(cond, steps, 5.0)
    x = rng.child("x").normal((batch, 2))
    for t in steps if batch < 2000 else steps[::25]:    # 8 steps at 2000 rows
        single = toy_denoiser_forward(p, x, t, cond)
        uncond = toy_denoiser_forward(p, x, t)
        assert np.array_equal(bound.predict(x, t), single)
        assert np.array_equal(single, _reference_forward(p, x, t, cond))
        assert np.array_equal(plain.predict(x, t), uncond)
        assert np.array_equal(uncond, _reference_forward(p, x, t, None))
        got = guided.predict(x, t)
        assert got.tobytes() == cfg_combine(*toy_guidance_pair(p, x, t, cond), 5.0).tobytes()
        if batch > 1:   # at one row the forward pass's head is gemv, the guided one's gemm
            assert got.tobytes() == cfg_combine(uncond, single, 5.0).tobytes()
    # a single sample is a one-row batch; a 1D vector is refused
    for run in (bound.predict, guided.predict):
        with pytest.raises(ValueError, match=r"not \(batch, 2\)"):
            run(x[0], steps[3])


def test_prepared_predictor_rejects_unprepared_timestep_and_missing_condition():
    p = init_toy_denoiser(RngStream(46), 2)
    bound = ToyDenoiser(p).prepare(None, (10, 5))
    with pytest.raises(ValueError, match="timestep 7"):
        bound.predict(np.zeros((2, 2)), 7)
    with pytest.raises(ValueError, match="needs a condition"):
        ToyDenoiser(p).prepare(None, (10, 5), 5.0)
    with pytest.raises(ValueError, match="width"):
        ToyDenoiser(p).prepare(np.zeros((1, 3)), (10,))


@pytest.mark.parametrize("columns", [1, 2, 4, 16, 64])
def test_time_feature_table_rows_equal_scalar_features(columns):
    # a prepared predictor reads one table of every timestep's features,
    # made from a (steps, 1) column, training one made from a vector and
    # toy_denoiser_forward a one-row table; in every shape of the timesteps
    # each row equals the scalar features
    t = np.arange(1, 2049, dtype=np.float64).reshape(-1, columns)
    table = time_embedding(t).reshape(-1, TIME_DIM)
    for t in range(1, 2049):
        assert np.array_equal(table[t - 1], time_embedding(t))


@pytest.mark.parametrize("data_width", [2, 16, 64])
@pytest.mark.parametrize("width", [1, 3, 16, 17, 64])
def test_prepared_time_terms_equal_per_step_products(default_schedule, width, data_width):
    # a binding forms every timestep's time term in one stacked matmul; each
    # row must be byte for byte the one-row product a step would form, so a
    # numpy or BLAS build whose stacked matmul rounds differently fails here.
    # The data width moves w_time within the flat vector
    from artdiff.schedule import subsequence

    size = sum(math.prod(s) for s in denoisers._param_shapes(data_width, width).values())
    p = denoisers.ToyDenoiserParams(data_width, width,
                                    RngStream(48).child(f"{width}-{data_width}").normal((size,)))
    for steps in ((1,), subsequence(default_schedule, 200).steps, range(1, 1001)):
        terms = denoisers.PreparedToyDenoiser(p, None, steps)._time_terms
        for t in steps:
            want = np.dot(time_embedding(t)[None], p.w_time.T)
            assert terms[t].tobytes() == want.tobytes(), (width, data_width, t)


@pytest.mark.parametrize("n_tokens", [1, 3])
def test_prepared_attention_equals_fresh_attend(n_tokens):
    # the prepared predictor keeps a one-token output per batch size; it
    # equals a fresh _attend exactly, also when it is reused
    rng = RngStream(47)
    p = init_toy_denoiser(rng.child("init"), 2)
    memory = rng.child("m").normal((n_tokens, 16))
    bound = ToyDenoiser(p).prepare(memory, (1,))
    for i, batch in enumerate((1, 7, 2000, 7, 1)):
        h = rng.child(f"h{i}").normal((batch, 16))
        fresh = denoisers._attend(h, *denoisers._project(memory, p), p)[0]
        assert np.array_equal(bound._attention(h), fresh)


def test_prepared_predictions_never_alias_the_workspace():
    # plms keeps earlier predictions, so a later call must not overwrite
    # them: each result stays bit-identical to a copy taken when returned
    rng = RngStream(51)
    p = init_toy_denoiser(rng.child("init"), 2)
    cond = rng.child("c").normal((1, 16))
    steps = (900, 400, 120, 3)
    bound = ToyDenoiser(p).prepare(cond, steps)
    guided = ToyDenoiser(p).prepare(cond, steps, 5.0)
    kept = []
    for i, batch in enumerate((2000, 1, 7, 2000)):
        x = rng.child(f"x{i}").normal((batch, 2))
        for t in steps:
            for result in (bound.predict(x, t), guided.predict(x, t)):
                kept.append((result, result.copy()))
    workspaces = {**bound._workspace, **guided._workspace}   # B rows, and 2B guided
    assert sorted(workspaces) == [1, 2, 7, 14, 2000, 4000]
    for rows, ws in workspaces.items():
        assert ws.buffers.shape == (3, rows, p.width)
    for result, copy in kept:
        assert result.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(result, ws.buffers)
                       for ws in workspaces.values())


def test_prepared_pair_allocates_no_batch_sized_temporaries():
    # a repeat guided pair at B=2000 writes its (2B, width) stages into the
    # workspace; numpy reports its buffers to tracemalloc, so the traced
    # peak stays below one such buffer
    import tracemalloc

    rng = RngStream(52)
    p = init_toy_denoiser(rng.child("init"), 2)
    bound = ToyDenoiser(p).prepare(rng.child("c").normal((1, 16)), (10, 9), 5.0)
    x = rng.child("x").normal((2000, 2))
    bound.predict(x, 10)     # allocates the workspace
    tracemalloc.start()
    try:
        bound.predict(x, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(x) * p.width * 8


@pytest.mark.parametrize("total", [2048, 2050, 4000, 4002, 6000])
def test_head_tiles_give_the_bytes_of_one_tile(monkeypatch, total):
    # the head runs in tiles of at most HEAD_ROWS rows; predict at `total`
    # rows and a guided batch of total / 2 rows a branch give the bytes of
    # one tile
    rng = RngStream(56)
    p = init_toy_denoiser(rng.child("init"), 2)
    cond = rng.child("c").normal((1, 16))
    x = rng.child("x").normal((total, 2))

    def bindings():
        return ToyDenoiser(p).prepare(cond, (600, 7)), ToyDenoiser(p).prepare(cond, (600, 7), 5.0)

    def run(bound, guided):
        return [bound.predict(x, 600), guided.predict(x[:total // 2], 7),
                bound.predict(x, 7), guided.predict(x[:total // 2], 600)]

    tiling = bindings()
    tiled = run(*tiling)
    copies = [result.copy() for result in tiled]
    run(*tiling)      # later calls through the same workspaces
    for bound in tiling:
        assert sorted(bound._workspace) == [total]
        assert len(bound._workspace[total].head) == -(-total // denoisers.HEAD_ROWS)
    for result, copy in zip(tiled, copies):
        assert result.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(result, bound._workspace[total].buffers)
                       for bound in tiling)
    monkeypatch.setattr(denoisers, "HEAD_ROWS", 10**9)
    one_tile = bindings()
    for got, want in zip(tiled, run(*one_tile)):
        assert got.tobytes() == want.tobytes()
    for bound in one_tile:
        assert len(bound._workspace[total].head) == 1


FORWARD_ROWS = (1, 2, 7, 64, 2000, denoisers.DOT_ROWS - 1, denoisers.DOT_ROWS)


@pytest.mark.parametrize("rows", FORWARD_ROWS)
def test_dot_gives_the_bits_of_matmul_at_every_forward_product(rows):
    # every forward product, with the right-hand weight as a transposed
    # view and as a contiguous copy, fresh and into a buffer
    rng = RngStream(54)
    p = init_toy_denoiser(rng.child("init"), 2)
    for name in ("w_in", "w_time", "ff1_w1", "ff1_w2", "ff2_w1", "ff2_w2", "w_out"):
        weight = getattr(p, name)
        left = rng.child(name).normal((rows, weight.shape[1]))
        for right in (weight.T, np.ascontiguousarray(weight.T)):
            want = np.matmul(left, right)
            assert np.dot(left, right).tobytes() == want.tobytes()
            out = np.empty_like(want)
            assert np.dot(left, right, out=out) is out
            assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", FORWARD_ROWS)
def test_forward_bytes_do_not_depend_on_the_product_function(monkeypatch, rows):
    # the workspace picks np.dot below DOT_ROWS rows, np.matmul at and
    # above; a forward that takes np.matmul everywhere gives the same bytes
    rng = RngStream(55)
    p = init_toy_denoiser(rng.child("init"), 2)
    cond = rng.child("c").normal((1, 16))
    x = rng.child("x").normal((rows, 2))
    ws = denoisers._Workspace(p, rows)
    for *_, head_ops in ws.head:    # each head tile's operands
        assert head_ops[-1] is ws.trunk[-1] is \
            (np.dot if rows < denoisers.DOT_ROWS else np.matmul)

    def run():
        bound = ToyDenoiser(p).prepare(cond, (600, 7))
        guided = ToyDenoiser(p).prepare(cond, (600, 7), 5.0)
        outs = [bound.predict(x, 600), guided.predict(x, 7), toy_denoiser_forward(p, x, 7)]
        grads = replace(p, vector=np.empty_like(p.vector))
        loss = _loss_and_grad(p, grads, x, time_embedding(np.full(rows, 7)),
                              x[:, ::-1], cond[None].repeat(rows, 0), np.ones((rows, 1)))
        return [a.tobytes() for a in outs] + [grads.vector.tobytes(), loss]

    got = run()
    monkeypatch.setattr(denoisers, "_product", lambda rows: np.matmul)
    assert run() == got


def test_project_skips_the_key_of_one_token():
    # one token's key is never read, so it is not projected
    rng = RngStream(53)
    w = init_toy_denoiser(rng.child("init"), 2)
    for memory in (rng.child("s").normal((1, 16)), rng.child("r").normal((5, 1, 16))):
        k, v = denoisers._project(memory, w)
        assert k is None and v.shape[-2] == 1
    k, v = denoisers._project(rng.child("m").normal((3, 16)), w)
    assert k.shape == v.shape == (3, 16)


# ---------------------------------------------------------------------------
# one-token attention: the softmax over one key is exactly 1
# ---------------------------------------------------------------------------

def _softmax_attend_reference(h, memory, w):
    """The general softmax attention, shared (n, dc) or per-row (B, n, dc)
    memory: (out, q, k, v, weights, z)."""
    q = h @ w.wq.T
    if memory.ndim == 2:
        k, v = memory @ w.wk.T, memory @ w.wv.T
        weights = softmax((q @ k.T) / math.sqrt(w.wq.shape[0]))
        z = weights @ v
    else:
        k = np.einsum("bnd,wd->bnw", memory, w.wk)
        v = np.einsum("bnd,wd->bnw", memory, w.wv)
        weights = softmax(np.einsum("bw,bnw->bn", q, k) / math.sqrt(w.wq.shape[0]))
        z = np.einsum("bn,bnw->bw", weights, v)
    return z @ w.wo.T, q, k, v, weights, z


def _softmax_attend_backward_reference(g_out, h, memory, q, k, v, weights, z, w):
    """Closed-form gradients of the per-row softmax attention:
    (dh, d_wq, d_wk, d_wv, d_wo)."""
    d_wo = g_out.T @ z
    dz = g_out @ w.wo
    d_weights = np.einsum("bw,bnw->bn", dz, v)
    dv = np.einsum("bn,bw->bnw", weights, dz)
    ds = (d_weights - (d_weights * weights).sum(axis=1, keepdims=True)) * weights
    ds = ds / math.sqrt(w.wq.shape[0])
    dq = np.einsum("bn,bnw->bw", ds, k)
    dkk = np.einsum("bn,bw->bnw", ds, q)
    return (dq @ w.wq, dq.T @ h, np.einsum("bnw,bnd->wd", dkk, memory),
            np.einsum("bnw,bnd->wd", dv, memory), d_wo)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
@pytest.mark.parametrize("batch", [1, 9])
def test_one_token_attend_equals_softmax_reference(shared, batch):
    rng = RngStream(48)
    p = init_toy_denoiser(rng.child("init"), 2)
    h = rng.child("h").normal((batch, 16))
    memory = rng.child("m").normal((1, 16) if shared else (batch, 1, 16))
    out, cache = denoisers._attend(h, *denoisers._project(memory, p), p)
    ref = _softmax_attend_reference(h, memory, p)
    assert np.array_equal(out, ref[0])
    assert np.array_equal(cache[-1], ref[-1])       # z = v in every row
    assert cache[1] is None and cache[4] is None    # no query, no scores


def test_one_token_attend_backward_is_exact():
    # per-row (B, 1, dc) memory, and the label form: a token table and labels
    rng = RngStream(49)
    p = init_toy_denoiser(rng.child("init"), 2)
    h = rng.child("h").normal((12, 16))
    g_out = rng.child("g").normal((12, 16))
    table, labels = rng.child("t").normal((5, 16)), rng.child("l").integers(0, 4, (12,))
    for given, lab in ((rng.child("m").normal((12, 1, 16)), None), (table, labels)):
        memory = given if lab is None else table[labels][:, None, :]
        _, cache = denoisers._attend(h, *denoisers._project(given, p, lab), p, lab)
        # the gradients are written over NaN, so every slot is seen to be written
        d_w = replace(p, vector=np.full_like(p.vector, np.nan))
        dh = denoisers._attend_backward(g_out, cache, given, p, d_w, lab)
        _, q, k, v, weights, z = _softmax_attend_reference(h, memory, p)
        ref = _softmax_attend_backward_reference(g_out, h, memory, q, k, v, weights, z, p)
        assert dh is None                                # exactly zero, so not formed
        assert np.all(ref[0] == 0.0)
        for got, want in zip((d_w.wq, d_w.wk), ref[1:3]):
            assert got.shape == want.shape and not np.any(got)
            assert np.all(want == 0.0)
        assert np.array_equal(d_w.wv, ref[3])
        assert np.array_equal(d_w.wo, ref[4])


@pytest.mark.parametrize("optimizer,lr", [("adam", 1e-3), ("sgd", 0.05)])
def test_conditional_training_leaves_query_and_key_weights_unchanged(default_schedule,
                                                                      optimizer, lr):
    ds = DATASETS["8-gaussian-ring"]
    p = init_toy_denoiser(RngStream(50), 2)
    emb = LabelEmbedding.create(8, 5)
    cfg = TrainConfig(steps=200, batch_size=32, learning_rate=lr, seed=6, drop_prob=0.1,
                      optimizer=optimizer)
    trained, _ = train(p, ds, cfg, default_schedule, emb)
    assert np.array_equal(trained.wq, p.wq) and np.array_equal(trained.wk, p.wk)
    assert not np.array_equal(trained.wv, p.wv) and not np.array_equal(trained.wo, p.wo)
