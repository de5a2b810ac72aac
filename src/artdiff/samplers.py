"""Reverse-process generation: one sampling loop for the ancestral (DDPM),
DDIM and pseudo linear multistep (PLMS) samplers, plus classifier-free
guidance combination.

Every sampler is the DDIM transfer in one loop over the timeline: predict
the noise, pass it through the sampler's rule, move from t_cur to t_next.
ddim uses the plan's eta. ddpm is eta = 1 on the identity timeline, which
injects exactly the ancestral posterior variance. plms is eta = 0; its
rule is a pseudo improved Euler warmup for the first transfer, then
Adams-Bashforth combinations of the last 2/3/4 noise predictions.
Timelines may be strided; the indices t+1, t+2, ... refer to previously
visited timeline entries, not arithmetic neighbours. The final transfer
targets the virtual step t = 0 where alpha_bar is 1, so with sigma = 0 it
returns the denoised observation exactly.

A sampling call works out everything that does not depend on the state
before its loop: a table of every transfer's coefficients (sigma and the
square roots of abar and of the remainder 1 - abar_next - sigma^2), and
the predictor bound to the call's condition and timeline by
``prepare(condition, timesteps)``, the one way ``sample`` queries a
predictor: each step takes the bound ``predict(xt, t)``, or under guidance
``cfg_combine`` of the bound ``predict_pair(xt, t)``, then the transfer
and one finiteness check of the state.

The loop allocates its buffers once per call: the state, x0_pred, one
scratch term and one noise block. Each transfer writes its stages into
them with the same operations in the same order as the fresh-array form,
so the bits do not depend on which form ran. The noise of the transfers
with sigma > 0 is drawn a block of steps at a time (at most
``SAMPLE_BLOCK_ROWS`` sample rows, at least one step) in one
``RngStream.normal`` call: one draw of k x B values gives the values of k
draws of B, in order, so the noise and the stream's draw count are those
of one draw per transfer. The plms warm-up probe is a fresh transfer and
never overwrites the state. Predictions are never written to: plms keeps
the last three.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import RngStream, Tensor, require_finite, require_same_shape
from .schedule import NoiseSchedule, SamplingTimeline

SAMPLER_KINDS = ("ddpm", "ddim", "plms")

# Inference defaults reported for the full-scale model.
DEFAULT_ETA = 1.0
DEFAULT_STEPS = 200
DEFAULT_GUIDANCE_SCALE = 5.0

# ``sample`` draws the noise of as many transfers at once as fit in this
# many sample rows, and of at least one
SAMPLE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SamplingPlan:
    """Everything a sampling run depends on, fixed up front."""

    timeline: SamplingTimeline
    kind: str
    shape: tuple[int, ...]
    seed: int
    batch: int = 1
    eta: float = DEFAULT_ETA
    guidance_scale: float = DEFAULT_GUIDANCE_SCALE

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta must lie in [0, 1]")
        if not (math.isfinite(self.guidance_scale) and self.guidance_scale >= 0.0):
            raise ConfigError(f"guidance_scale must be a finite number >= 0, "
                              f"got {self.guidance_scale}")
        if int(self.batch) < 1:
            raise ConfigError("batch must be a positive integer")
        shape = tuple(int(s) for s in self.shape)
        if len(shape) == 0 or any(s < 1 for s in shape):
            raise ConfigError(f"invalid sample shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "batch", int(self.batch))
        object.__setattr__(self, "seed", int(self.seed))


def _transfer(xt: np.ndarray, eps: np.ndarray, coefs, noise: np.ndarray | None, out=None
              ) -> tuple[np.ndarray, np.ndarray]:
    """The DDIM transfer sqrt(abar_next) x0_pred + sqrt(rem) eps, plus sigma
    times the standard normal draw ``noise`` when sigma > 0; returns
    (x_next, x0_pred).

    ``coefs`` is (sqrt(1 - abar_cur), sqrt(abar_cur), sqrt(abar_next),
    sqrt(rem), sigma) with rem = 1 - abar_next - sigma^2. ``noise`` has
    xt's shape, is scaled by sigma in place, and is not read when sigma is
    0. ``out`` optionally holds three buffers of xt's shape that x_next,
    x0_pred and a scratch term are written into; x_next may be xt itself,
    which is read only before it is written. Without ``out`` each is a
    fresh array. Either way the operations and their order are those of
    x0_pred = (xt - sqrt(1 - abar_cur) eps) / sqrt(abar_cur) and the
    expression above, so the bits are the same.
    """
    sqrt_1m_ac, sqrt_ac, sqrt_an, sqrt_rem, sigma = coefs
    x_next, x0_pred, scratch = out if out is not None else (None, None, None)
    scratch = np.multiply(sqrt_1m_ac, eps, out=scratch)
    np.subtract(xt, scratch, out=scratch)
    x0_pred = np.divide(scratch, sqrt_ac, out=x0_pred)
    x_next = np.multiply(sqrt_an, x0_pred, out=x_next)
    np.multiply(sqrt_rem, eps, out=scratch)
    x_next += scratch
    if sigma > 0.0:
        noise *= sigma
        x_next += noise
    return x_next, x0_pred


def _step_noise(rng: RngStream, sigmas, shape: tuple[int, ...]):
    """The noise of each transfer in turn: None where sigma is 0, else a
    view of ``shape`` into one block buffer allocated once. The draws of a
    block of k transfers come from one ``rng.normal((k, *shape))`` call,
    with k at most ``SAMPLE_BLOCK_ROWS // shape[0]`` and at least 1; a
    block is drawn when its first transfer is reached."""
    left = sum(sigma > 0.0 for sigma in sigmas)
    block = np.empty((min(left, max(1, SAMPLE_BLOCK_ROWS // shape[0])), *shape))
    rows = iter(())
    for sigma in sigmas:
        if sigma > 0.0:
            row = next(rows, None)
            if row is None:
                k = min(len(block), left)
                left -= k
                rows = iter(rng.normal((k, *shape), out=block[:k]))
                row = next(rows)
            yield row
        else:
            yield None


def ddim_step(xt: Tensor, eps: Tensor, t_cur: int, t_next: int, sigma: float,
              schedule: NoiseSchedule, rng: RngStream | None = None
              ) -> tuple[Tensor, Tensor]:
    """One DDIM transfer from t_cur to t_next; returns (x_next, x0_pred).

    ``sample`` reads its transfers from ``_transfer_table``; this scalar
    form is the reference they are checked against, with sigma from the
    tests' ``ddim_sigma`` (tests/reference.py). No randomness is consumed
    when sigma = 0.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    require_same_shape(xt, eps, "xt and eps")
    ac = schedule.alpha_bar(schedule.check_step(t_cur))
    an = schedule.alpha_bar(schedule.check_step(t_next, low=0))
    rem = 1.0 - an - sigma * sigma
    if rem < -1e-12:
        raise ValueError(f"invalid sigma {sigma}: 1 - abar_next - sigma^2 is negative")
    coefs = (math.sqrt(1.0 - ac), math.sqrt(ac), math.sqrt(an), math.sqrt(max(rem, 0.0)), sigma)
    xt = np.asarray(xt, dtype=np.float64)
    noise = None
    if sigma > 0.0:
        if rng is None:
            raise ValueError("sigma > 0 requires an RngStream")
        noise = rng.normal(xt.shape)
    x_next, x0_pred = _transfer(xt, np.asarray(eps, dtype=np.float64), coefs, noise)
    require_finite(x_next, "ddim_step output")
    return x_next, x0_pred


def _transfer_table(timeline: SamplingTimeline, schedule: NoiseSchedule, eta: float):
    """The coefficients of every transfer of the timeline, computed once.

    Returns an (n, 5) array with one ``_transfer`` coefficient row per pair
    of ``timeline.pairs()``, at noise scale
    eta * sqrt((1 - abar_next) / (1 - abar_cur)) * sqrt(1 - abar_cur / abar_next),
    and the coefficients of the first transfer at sigma = 0 (the plms
    probe). The values come from the same elementwise operations, in the
    same order, as the scalar ``ddim_sigma`` of tests/reference.py and
    ``ddim_step``, so they equal theirs bit for bit.
    """
    abar = np.concatenate(([1.0], schedule.alpha_bars))   # abar[0] = 1 at the virtual t = 0
    ac = abar[list(timeline.steps)]
    an = abar[list(timeline.steps[1:]) + [0]]
    sigma = eta * np.sqrt((1.0 - an) / (1.0 - ac)) * np.sqrt(1.0 - ac / an)
    rem = 1.0 - an - sigma * sigma
    if np.any(rem < -1e-12):
        raise ValueError(f"invalid eta {eta}: 1 - abar_next - sigma^2 is negative")
    table = np.stack([np.sqrt(1.0 - ac), np.sqrt(ac), np.sqrt(an),
                      np.sqrt(np.maximum(rem, 0.0)), sigma], axis=1)
    probe = (*table[0, :3].tolist(), math.sqrt(1.0 - float(an[0])), 0.0)   # 1 - abar_next - 0^2
    return table, probe


def posterior_mean_from_eps(xt: Tensor, eps: Tensor, t: int,
                            schedule: NoiseSchedule) -> Tensor:
    """Posterior mean in noise form: (x_t - (1-alpha_t)/sqrt(1-abar_t) * eps) / sqrt(alpha_t)."""
    require_same_shape(xt, eps, "xt and eps")
    a = schedule.alpha(t)
    abar = schedule.alpha_bar(t)
    xt = np.asarray(xt, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    return (xt - (1.0 - a) / math.sqrt(1.0 - abar) * eps) / math.sqrt(a)


def ddpm_step(predictor, xt: Tensor, t: int, schedule: NoiseSchedule,
              rng: RngStream, condition=None) -> Tensor:
    """Ancestral reverse step from N(posterior mean, posterior variance).

    ``sample`` runs ddpm as the eta = 1 DDIM transfer; this direct form is
    the reference it is checked against. At t = 1 the posterior variance
    is zero and the step is the pure mean; no randomness is consumed there.
    """
    t = schedule.check_step(t)
    eps = predictor.predict(xt, t, condition)
    require_same_shape(eps, xt, "prediction and xt")
    mean = posterior_mean_from_eps(xt, eps, t, schedule)
    var = schedule.posterior_var(t)
    if var > 0.0:
        mean = mean + math.sqrt(var) * rng.normal(np.shape(mean))
    require_finite(mean, "ddpm_step output")
    return mean


def plms_combine(e_t: Tensor, history) -> Tensor:
    """Adams-Bashforth combination of the newest prediction with history.

    History is a sequence ordered newest first; supported depths are 1, 2,
    and 3:
      1: (3 e_t - e_{t+1}) / 2
      2: (23 e_t - 16 e_{t+1} + 5 e_{t+2}) / 12
      3: (55 e_t - 59 e_{t+1} + 37 e_{t+2} - 9 e_{t+3}) / 24
    """
    entries = tuple(history)
    e_t = np.asarray(e_t, dtype=np.float64)
    for h in entries:
        if getattr(h, "shape", None) != e_t.shape:   # the full check, for its message
            require_same_shape(e_t, h, "e_t and history entry")
    if len(entries) == 1:
        return (3.0 * e_t - entries[0]) / 2.0
    if len(entries) == 2:
        return (23.0 * e_t - 16.0 * entries[0] + 5.0 * entries[1]) / 12.0
    if len(entries) == 3:
        return (55.0 * e_t - 59.0 * entries[0] + 37.0 * entries[1] - 9.0 * entries[2]) / 24.0
    raise ValueError(f"history depth must be 1..3, got {len(entries)}")


def cfg_combine(eps_uncond: Tensor, eps_cond: Tensor, scale: float) -> Tensor:
    """Guided prediction: eps_uncond + scale * (eps_cond - eps_uncond)."""
    u = np.asarray(eps_uncond, dtype=np.float64)
    c = np.asarray(eps_cond, dtype=np.float64)
    if u.shape != c.shape:
        require_same_shape(u, c, "unconditional and conditional eps")
    return u + float(scale) * (c - u)


def plms_sample(predictor, plan: SamplingPlan, schedule: NoiseSchedule,
                condition=None) -> Tensor:
    """``sample`` for a plan whose kind must be 'plms'."""
    if plan.kind != "plms":
        raise ConfigError("plms_sample requires a plan with kind='plms'")
    return sample(predictor, plan, schedule, condition)


def sample(predictor, plan: SamplingPlan, schedule: NoiseSchedule,
           condition=None) -> Tensor:
    """Draw x_T from the plan's seed and run the configured sampler.

    The predictor is bound once with ``prepare``. Guidance combines its pair
    at every step when a condition is present and guidance_scale differs
    from 1. ddpm ignores the plan's eta.
    Randomness enters through the x_T draw and, when sigma > 0, the
    transfer's noise, drawn a block of transfers at a time (see the module
    docstring). The plms warmup re-evaluates the predictor at the next
    timeline entry; when the first transfer targets t = 0 no re-evaluation
    is possible, so the plain prediction is used. Fully deterministic given
    (plan, predictor, condition). The prediction's shape is checked on
    the first step, the state's finiteness on every step. A diverging run
    raises no numpy overflow warning; its first non-finite state raises
    ValueError.
    """
    if max(plan.timeline.steps) > schedule.T:
        raise ConfigError("timeline indices exceed the schedule length")
    if plan.kind == "ddpm" and not plan.timeline.is_identity(schedule.T):
        raise ConfigError("ddpm requires the full identity timeline (T, T-1, ..., 1)")
    eta = {"ddpm": 1.0, "ddim": plan.eta, "plms": 0.0}[plan.kind]
    table, probe_coefs = _transfer_table(plan.timeline, schedule, eta)
    rng = RngStream(plan.seed)
    x = rng.normal((plan.batch, *plan.shape))
    buffers = (x, np.empty_like(x), np.empty_like(x))   # state first
    bound = predictor.prepare(condition, plan.timeline.steps)
    scale = plan.guidance_scale
    if condition is None or scale == 1.0:
        predict = bound.predict
    else:
        def predict(xt, t):
            return cfg_combine(*bound.predict_pair(xt, t), scale)
    history: deque = deque(maxlen=3)   # plms noise predictions, newest first
    noises = _step_noise(rng, table[:, 4].tolist(), x.shape)
    steps = zip(plan.timeline.pairs(), table.tolist(), noises)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, ((t_cur, t_next), coefs, noise) in enumerate(steps):
            eps = predict(x, t_cur)
            if i == 0:
                require_same_shape(eps, x, "prediction and state")
            e = eps
            if plan.kind == "plms":
                if history:
                    e = plms_combine(eps, history)
                elif t_next >= 1:
                    probe, _ = _transfer(x, eps, probe_coefs, None)   # fresh: x stays the state
                    e = 0.5 * (eps + predict(probe, t_next))
                history.appendleft(eps)
            _transfer(x, e, coefs, noise, buffers)
            require_finite(x, "sample state")
    return x
