"""Autoencoder loss formulas (reconstruction, diagonal-Gaussian KL, the GAN
component) as pure functions, plus a toy affine encoder/decoder whose
training outcome has an analytic reference (linear subspace recovery)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingDivergedError
from .numerics import RngStream, Tensor, require_finite, require_same_shape

_PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class MomentPair:
    """Mean and log-variance of a diagonal Gaussian over the latent."""

    mu: Tensor
    logvar: Tensor

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        logvar = np.asarray(self.logvar, dtype=np.float64)
        require_same_shape(mu, logvar, "mu and logvar")
        require_finite(mu, "mu")
        require_finite(logvar, "logvar")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "logvar", logvar)


@dataclass(frozen=True)
class ToyAutoencoderParams:
    """Affine encoder producing stacked (mu, logvar) and an affine decoder."""

    data_width: int
    latent_width: int
    w_enc: np.ndarray  # (2 * latent, data)
    b_enc: np.ndarray  # (2 * latent,)
    w_dec: np.ndarray  # (data, latent)
    b_dec: np.ndarray  # (data,)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w_enc": self.w_enc, "b_enc": self.b_enc,
                "w_dec": self.w_dec, "b_dec": self.b_dec}


def _ae_shapes(data_width: int, latent_width: int) -> dict[str, tuple[int, ...]]:
    return {"w_enc": (2 * latent_width, data_width), "b_enc": (2 * latent_width,),
            "w_dec": (data_width, latent_width), "b_dec": (data_width,)}


def init_toy_autoencoder(rng: RngStream, data_width: int,
                         latent_width: int) -> ToyAutoencoderParams:
    """Gaussian fan-in initialization of both matrices, zero biases."""
    widths = dict(data_width=int(data_width), latent_width=int(latent_width))
    arrays = {name: np.zeros(shape) if len(shape) == 1
              else rng.normal(shape) / math.sqrt(shape[1])
              for name, shape in _ae_shapes(**widths).items()}
    return ToyAutoencoderParams(**widths, **arrays)


def encode_moments(x: Tensor, params: ToyAutoencoderParams) -> MomentPair:
    """Affine encoding split channel-wise into mean and log-variance halves."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.data_width:
        raise ValueError(f"input width {x.shape[-1]} does not match encoder width "
                         f"{params.data_width}")
    raw = x @ params.w_enc.T + params.b_enc
    half = params.latent_width
    return MomentPair(mu=raw[..., :half], logvar=raw[..., half:])


def decode(z: Tensor, params: ToyAutoencoderParams) -> Tensor:
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != params.latent_width:
        raise ValueError("latent width mismatch")
    return z @ params.w_dec.T + params.b_dec


def reparam_sample(m: MomentPair, rng: RngStream) -> Tensor:
    """mu + exp(logvar / 2) * standard normal draw."""
    return m.mu + np.exp(0.5 * m.logvar) * rng.normal(m.mu.shape)


def kl_loss(m: MomentPair) -> float:
    """KL against the standard normal, summed over every latent element:
    sum (mu^2 + sigma^2 - 1 - log sigma^2) / 2."""
    var = np.exp(m.logvar)
    return float(np.sum(m.mu * m.mu + var - 1.0 - m.logvar) / 2.0)


def recon_loss(x: Tensor, x_hat: Tensor) -> float:
    """Squared reconstruction error summed over elements."""
    require_same_shape(x, x_hat, "x and x_hat")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(x_hat, dtype=np.float64)
    return float(np.sum(diff * diff))


def gan_loss_component(d_real, d_fake) -> float:
    """Batch mean of log D(x) + log(1 - D(x_hat)).

    Discriminator outputs are probabilities; values at the boundary are
    clamped 1e-12 inside (0, 1) before the logs.
    """
    d_real = np.clip(np.asarray(d_real, dtype=np.float64), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    d_fake = np.clip(np.asarray(d_fake, dtype=np.float64), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    require_same_shape(d_real, d_fake, "d_real and d_fake")
    return float(np.mean(np.log(d_real) + np.log(1.0 - d_fake)))


@dataclass(frozen=True)
class AeTrainConfig:
    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 0.01
    seed: int = 0
    kl_weight: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning rate must be a finite number > 0, "
                             f"got {self.learning_rate}")
        if not (math.isfinite(self.kl_weight) and self.kl_weight >= 0.0):
            raise ValueError(f"kl_weight must be a finite number >= 0, got {self.kl_weight}")


def _ae_loss_and_grad(params: ToyAutoencoderParams, x: np.ndarray,
                      kl_weight: float):
    """Loss and gradients on the exact training objective.

    The reconstruction term is the closed-form expectation of
    ||x - decode(reparam_sample(moments))||^2 over the reparameterization
    draw, which for an affine decoder is
    ||x - decode(mu)||^2 + sum_j var_j ||w_dec[:, j]||^2. Using the exact
    expectation keeps training deterministic.
    """
    b = x.shape[0]
    half = params.latent_width
    raw = x @ params.w_enc.T + params.b_enc
    mu, logvar = raw[:, :half], raw[:, half:]
    var = np.exp(logvar)
    x_hat = mu @ params.w_dec.T + params.b_dec
    diff = x_hat - x

    col_sq = np.sum(params.w_dec * params.w_dec, axis=0)  # ||w_dec[:, j]||^2
    recon = np.sum(diff * diff, axis=1) + var @ col_sq
    kl = np.sum(mu * mu + var - 1.0 - logvar, axis=1) / 2.0
    loss = float(np.mean(recon + kl_weight * kl))

    g_xhat = 2.0 * diff / b
    g_wdec = g_xhat.T @ mu + 2.0 * params.w_dec * var.mean(axis=0)
    g_bdec = g_xhat.sum(axis=0)
    g_mu = g_xhat @ params.w_dec + kl_weight * mu / b
    g_logvar = (var * col_sq + kl_weight * (var - 1.0) / 2.0) / b
    g_raw = np.concatenate([g_mu, g_logvar], axis=1)
    g_wenc = g_raw.T @ x
    g_benc = g_raw.sum(axis=0)
    grads = {"w_enc": g_wenc, "b_enc": g_benc, "w_dec": g_wdec, "b_dec": g_bdec}
    return loss, grads


def train_toy_ae(params: ToyAutoencoderParams, dataset,
                 config: AeTrainConfig) -> tuple[ToyAutoencoderParams, np.ndarray]:
    """Full-batch gradient descent on recon + kl_weight * kl over a fixed
    training set of config.batch_size points; returns params and the
    per-step loss curve."""
    rng = RngStream(config.seed)
    x, _ = dataset.sample(config.batch_size, rng.child("data"))
    arrays = {k: np.array(v, dtype=np.float64) for k, v in params.arrays().items()}
    params = replace(params, **arrays)     # copies, updated in place below
    losses = np.zeros(config.steps)
    for step in range(config.steps):
        loss, grads = _ae_loss_and_grad(params, x, config.kl_weight)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"autoencoder loss became non-finite at step {step}")
        losses[step] = loss
        for k, g in grads.items():
            arrays[k] -= config.learning_rate * g
    return params, losses
