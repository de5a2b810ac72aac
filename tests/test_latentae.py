import math
from dataclasses import replace

import numpy as np
import pytest

from artdiff.datasets import get_dataset
from artdiff.errors import TrainingDivergedError
from artdiff.latentae import (AeTrainConfig, MomentPair, ToyAutoencoderParams,
                              _ae_loss_and_grad, decode, encode_moments,
                              gan_loss_component, init_toy_autoencoder,
                              kl_loss, recon_loss, reparam_sample,
                              train_toy_ae)
from artdiff.numerics import RngStream


def test_moment_pair_validation():
    with pytest.raises(ValueError):
        MomentPair(mu=np.zeros(2), logvar=np.zeros(3))
    with pytest.raises(ValueError):
        MomentPair(mu=np.array([np.nan]), logvar=np.zeros(1))


def test_encode_zero_weights():
    p = ToyAutoencoderParams(data_width=2, latent_width=1,
                             w_enc=np.zeros((2, 2)), b_enc=np.zeros(2),
                             w_dec=np.zeros((2, 1)), b_dec=np.zeros(2))
    m = encode_moments(np.array([1.0, 2.0]), p)
    assert np.array_equal(m.mu, [0.0])
    assert np.array_equal(m.logvar, [0.0])


def test_encode_splits_into_halves():
    rng = RngStream(1)
    p = init_toy_autoencoder(rng, data_width=4, latent_width=3)
    m = encode_moments(rng.normal((5, 4)), p)
    assert m.mu.shape == (5, 3)
    assert m.logvar.shape == (5, 3)


def test_encode_fixed_matrix_hand_case():
    # width-2 input, latent width 1: rows of w_enc are (mu | logvar)
    w = np.array([[1.0, 2.0], [0.5, -1.0]])
    b = np.array([0.25, 0.75])
    p = ToyAutoencoderParams(data_width=2, latent_width=1, w_enc=w, b_enc=b,
                             w_dec=np.zeros((2, 1)), b_dec=np.zeros(2))
    m = encode_moments(np.array([1.0, 2.0]), p)
    # hand: mu = 1*1 + 2*2 + 0.25 = 5.25 ; logvar = 0.5 - 2 + 0.75 = -0.75
    assert m.mu[0] == pytest.approx(5.25, abs=1e-15)
    assert m.logvar[0] == pytest.approx(-0.75, abs=1e-15)


def test_encode_width_mismatch():
    p = init_toy_autoencoder(RngStream(2), 2, 1)
    with pytest.raises(ValueError):
        encode_moments(np.zeros(3), p)


def test_reparam_collapses_when_logvar_tiny():
    m = MomentPair(mu=np.array([1.0, -2.0]), logvar=np.full(2, -1e3))
    out = reparam_sample(m, RngStream(3))
    assert np.array_equal(out, m.mu)


def test_reparam_unit_variance_monte_carlo():
    m = MomentPair(mu=np.zeros(100_000), logvar=np.zeros(100_000))
    out = reparam_sample(m, RngStream(4))
    assert out.var(ddof=1) == pytest.approx(1.0, abs=0.02)
    assert out.mean() == pytest.approx(0.0, abs=0.02)


def test_reparam_deterministic_under_seed():
    m = MomentPair(mu=np.zeros(4), logvar=np.ones(4))
    assert np.array_equal(reparam_sample(m, RngStream(5)),
                          reparam_sample(m, RngStream(5)))


def test_kl_loss_fixed_points():
    assert kl_loss(MomentPair(mu=np.zeros(3), logvar=np.zeros(3))) == 0.0
    assert kl_loss(MomentPair(mu=np.array([1.0]), logvar=np.array([0.0]))) \
        == pytest.approx(0.5, abs=1e-12)
    assert kl_loss(MomentPair(mu=np.array([0.0]), logvar=np.array([1.0]))) \
        == pytest.approx((math.e - 2.0) / 2.0, abs=1e-12)


def test_kl_loss_nonnegative_zero_iff_standard():
    rng = RngStream(6)
    for _ in range(50):
        m = MomentPair(mu=rng.normal((4,)), logvar=rng.normal((4,)))
        val = kl_loss(m)
        assert val > 0.0
    assert kl_loss(MomentPair(mu=np.zeros(4), logvar=np.zeros(4))) == 0.0


def test_recon_loss_examples_and_oracle():
    assert recon_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert recon_loss(np.array([0.0]), np.array([2.0])) == 4.0
    rng = RngStream(7)
    x = rng.normal((6,))
    y = rng.normal((6,))
    naive = 0.0
    for a, b in zip(x, y):
        naive += (a - b) ** 2
    assert recon_loss(x, y) == pytest.approx(naive, abs=1e-12)
    assert recon_loss(x, y) == recon_loss(y, x)
    with pytest.raises(ValueError):
        recon_loss(np.zeros(2), np.zeros(3))


def test_gan_loss_component_values():
    near_perfect = gan_loss_component(np.array([1.0 - 1e-12]), np.array([1e-12]))
    assert abs(near_perfect) < 1e-9
    both_half = gan_loss_component(np.array([0.5]), np.array([0.5]))
    assert both_half == pytest.approx(2.0 * math.log(0.5), abs=1e-12)
    assert both_half == pytest.approx(-1.386294, abs=1e-6)


def test_gan_loss_monotone_in_d_real():
    fake = np.array([0.3])
    prev = -np.inf
    for dr in (0.1, 0.4, 0.9):
        val = gan_loss_component(np.array([dr]), fake)
        assert val > prev
        prev = val


def test_gan_loss_clamped_upper_bound():
    rng = RngStream(8)
    for _ in range(100):
        d_real = rng.uniform((4,))
        d_fake = rng.uniform((4,))
        assert gan_loss_component(d_real, d_fake) <= 0.0
    # exact boundary inputs survive the clamp
    assert gan_loss_component(np.array([1.0]), np.array([0.0])) <= 0.0


def test_ae_gradients_match_finite_differences():
    p = init_toy_autoencoder(RngStream(9), 2, 1)
    x, _ = get_dataset("line-subspace").sample(8, RngStream(10))
    loss, grads = _ae_loss_and_grad(p, x, 1e-3)
    h = 1e-6
    for name, arr in p.arrays().items():
        flat_grad = grads[name].ravel()
        for i in range(arr.size):
            ap = {k: v.copy() for k, v in p.arrays().items()}
            am = {k: v.copy() for k, v in p.arrays().items()}
            ap[name].ravel()[i] += h
            am[name].ravel()[i] -= h
            lp, _ = _ae_loss_and_grad(replace(p, **ap), x, 1e-3)
            lm, _ = _ae_loss_and_grad(replace(p, **am), x, 1e-3)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - flat_grad[i]) <= 1e-6 * max(abs(fd), abs(flat_grad[i]), 1e-6)


def test_train_zero_steps_unchanged():
    p = init_toy_autoencoder(RngStream(11), 2, 1)
    trained, losses = train_toy_ae(p, get_dataset("line-subspace"),
                                   AeTrainConfig(steps=0, seed=1))
    assert losses.size == 0
    for name, arr in p.arrays().items():
        assert np.array_equal(arr, trained.arrays()[name])


def test_subspace_recovery_and_monotone_loss():
    ds = get_dataset("line-subspace")
    p = init_toy_autoencoder(RngStream(5).child("ae"), 2, 1)
    cfg = AeTrainConfig(steps=3000, batch_size=256, learning_rate=0.02, seed=5,
                        kl_weight=1e-3)
    trained, losses = train_toy_ae(p, ds, cfg)
    x, _ = ds.sample(2000, RngStream(99))
    xhat = decode(encode_moments(x, trained).mu, trained)
    assert float(np.mean((x - xhat) ** 2)) < 0.01
    assert np.max(np.abs(x - xhat)) < 0.1
    ma = np.convolve(losses, np.ones(20) / 20, mode="valid")
    assert np.all(np.diff(ma) <= 1e-12)


def test_train_divergence_detection():
    ds = get_dataset("line-subspace")
    p = init_toy_autoencoder(RngStream(12), 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train_toy_ae(p, ds, AeTrainConfig(steps=200, learning_rate=1e12, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        AeTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AeTrainConfig(kl_weight=-1.0)


@pytest.mark.parametrize("field", ["learning_rate", "kl_weight"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        AeTrainConfig(**{field: value})
