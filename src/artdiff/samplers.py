"""Reverse-process generation: one sampling loop for the ancestral (DDPM),
DDIM and pseudo linear multistep (PLMS) samplers, plus ``cfg_combine``,
the classifier-free guidance combination that a guided binding applies.

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
before its loop, in whole-array passes: a table of every transfer's
coefficients (sigma and the square roots of abar and of the remainder
1 - abar_next - sigma^2), turned into Python floats with one ``tolist``, and
the predictor bound to the call's condition, timeline and guidance scale
by ``prepare(condition, timesteps, scale)``, the one way ``sample``
queries a predictor: each step takes one noise estimate from the bound
``predict(xt, t)``, guided by the binding when a scale is bound, then the
transfer and one finiteness check of the state.

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

The state is a (batch, width) array. A state of one row takes the same
loop on Python floats (``_run_row``): the plms combinations, the warm-up
probe and the transfer, noise included, are one expression per element,
and each step writes its floats back into the (1, width) state array that
the predictor reads and the finiteness check sees. Its noise comes as
Python floats too: ``_step_noise`` turns each drawn block into floats with
one ``tolist``, so a step reads its noise without a numpy call. The plms
combinations are one table, ``_ADAMS_BASHFORTH``, whose expressions both
loops apply. At one row numpy's per-call dispatch costs more than the
arithmetic. The bits are those of the array loop: each Python float
operation is one correctly rounded float64 operation, as each binary ufunc
is, the expressions take the array form's operations in its order, and
neither form fuses or reassociates them. No BLAS runs in either transfer.
Two rows and more keep the array loop (``_run_rows``).
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
    width: int
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
        if int(self.width) < 1:
            raise ConfigError("width must be a positive integer")
        object.__setattr__(self, "width", int(self.width))
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


def _step_noise(rng: RngStream, sigmas: list, shape: tuple[int, ...]):
    """The noise of each transfer in turn: None where sigma is 0, else a
    view of ``shape`` into one block buffer allocated once, or at one row
    (``shape[0] == 1``) that row's values as a list of Python floats, from
    one ``tolist`` of the block. The draws of a block of k transfers come
    from one ``rng.normal((k, *shape))`` call, with k at most
    ``SAMPLE_BLOCK_ROWS // shape[0]`` and at least 1; a block is drawn when
    its first transfer is reached."""
    left = len(sigmas) - sigmas.count(0.0)      # no sigma is negative
    block = np.empty((min(left, max(1, SAMPLE_BLOCK_ROWS // shape[0])), *shape))
    rows = iter(())
    for sigma in sigmas:
        if sigma > 0.0:
            row = next(rows, None)
            if row is None:
                k = min(len(block), left)
                left -= k
                drawn = rng.normal((k, *shape), out=block[:k])
                rows = iter(drawn[:, 0].tolist() if shape[0] == 1 else drawn)
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
    eta * sqrt((1 - abar_next) / (1 - abar_cur)) * sqrt(1 - abar_cur / abar_next).
    The values come from the same elementwise operations, in the
    same order, as the scalar ``ddim_sigma`` of tests/reference.py and
    ``ddim_step``, so they equal theirs bit for bit.
    """
    abar = np.concatenate(([1.0], schedule.alpha_bars))   # abar[0] = 1 at the virtual t = 0
    a = abar[list(timeline.steps + (0,))]
    ac, an = a[:-1], a[1:]
    table = np.empty((len(ac), 5))
    sqrt_1m_ac, sqrt_ac, sqrt_an, sqrt_rem, sigma = table.T
    np.multiply(eta, np.sqrt((1.0 - an) / (1.0 - ac)), out=sigma)
    sigma *= np.sqrt(1.0 - ac / an)
    rem = 1.0 - an - sigma * sigma
    if (rem < -1e-12).any():
        raise ValueError(f"invalid eta {eta}: 1 - abar_next - sigma^2 is negative")
    np.sqrt(1.0 - ac, out=sqrt_1m_ac)
    np.sqrt(ac, out=sqrt_ac)
    np.sqrt(an, out=sqrt_an)
    np.sqrt(np.maximum(rem, 0.0, out=rem), out=sqrt_rem)
    return table


def ddpm_step(predictor, xt: Tensor, t: int, schedule: NoiseSchedule,
              rng: RngStream, condition=None) -> Tensor:
    """Ancestral reverse step from N(posterior mean, posterior variance),
    the mean (x_t - (1 - alpha_t) / sqrt(1 - abar_t) eps) / sqrt(alpha_t).

    ``sample`` runs ddpm as the eta = 1 DDIM transfer; this direct form, on
    a one-step binding's eps, is its reference. At t = 1 the posterior
    variance is zero and the step is the pure mean, drawing no randomness.
    """
    t = schedule.check_step(t)
    eps = predictor.prepare(condition, (t,)).predict(xt, t)
    require_same_shape(eps, xt, "prediction and xt")
    a, abar = schedule.alpha(t), schedule.alpha_bar(t)
    xt, eps = np.asarray(xt, dtype=np.float64), np.asarray(eps, dtype=np.float64)
    mean = (xt - (1.0 - a) / math.sqrt(1.0 - abar) * eps) / math.sqrt(a)
    var = schedule.posterior_var(t)
    if var > 0.0:
        mean = mean + math.sqrt(var) * rng.normal(np.shape(mean))
    require_finite(mean, "ddpm_step output")
    return mean


# The Adams-Bashforth combination of the newest prediction e_t with a
# history of depth 1, 2 or 3 (newest first), at index depth - 1; each
# expression works on arrays and on floats alike
_ADAMS_BASHFORTH = (
    lambda e_t, e1: (3.0 * e_t - e1) / 2.0,
    lambda e_t, e1, e2: (23.0 * e_t - 16.0 * e1 + 5.0 * e2) / 12.0,
    lambda e_t, e1, e2, e3: (55.0 * e_t - 59.0 * e1 + 37.0 * e2 - 9.0 * e3) / 24.0,
)


def plms_combine(e_t: Tensor, history) -> Tensor:
    """Adams-Bashforth combination of the newest prediction with history,
    a sequence ordered newest first of depth 1, 2 or 3 (``_ADAMS_BASHFORTH``)."""
    entries = tuple(history)
    e_t = np.asarray(e_t, dtype=np.float64)
    for h in entries:
        if getattr(h, "shape", None) != e_t.shape:   # the full check, for its message
            require_same_shape(e_t, h, "e_t and history entry")
    if not 1 <= len(entries) <= 3:
        raise ValueError(f"history depth must be 1..3, got {len(entries)}")
    return _ADAMS_BASHFORTH[len(entries) - 1](e_t, *entries)


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

    The predictor is bound once with ``prepare``, with the plan's
    guidance_scale when a condition is present and the scale differs from
    1, so that every step's estimate is guided. ddpm ignores the plan's eta.
    Randomness enters through the x_T draw and, when sigma > 0, the
    transfer's noise, drawn a block of transfers at a time (see the module
    docstring). The plms warmup re-evaluates the predictor at the next
    timeline entry; when the first transfer targets t = 0 no re-evaluation
    is possible, so the plain prediction is used. Fully deterministic given
    (plan, predictor, condition); a one-row state runs on Python floats
    with the array loop's bits (see the module docstring). The
    prediction's shape is checked on the first step (at one row, on every
    step), the state's finiteness on every step. A diverging run raises no
    numpy overflow warning; its first non-finite state raises ValueError.
    """
    if max(plan.timeline.steps) > schedule.T:
        raise ConfigError("timeline indices exceed the schedule length")
    if plan.kind == "ddpm" and not plan.timeline.is_identity(schedule.T):
        raise ConfigError("ddpm requires the full identity timeline (T, T-1, ..., 1)")
    eta = {"ddpm": 1.0, "ddim": plan.eta, "plms": 0.0}[plan.kind]
    table = _transfer_table(plan.timeline, schedule, eta)
    rng = RngStream(plan.seed)
    x = rng.normal((plan.batch, plan.width))
    scale = float(plan.guidance_scale)
    bound = predictor.prepare(condition, plan.timeline.steps,
                              None if condition is None or scale == 1.0 else scale)
    rows = table.tolist()
    noises = _step_noise(rng, [row[4] for row in rows], x.shape)
    steps = zip(plan.timeline.pairs(), rows, noises)
    run = _run_row if plan.batch == 1 else _run_rows
    with np.errstate(over="ignore", invalid="ignore"):
        run(x, steps, bound.predict, plan.kind == "plms")
    return x


def _run_rows(x, steps, predict, plms: bool) -> None:
    """``sample``'s loop over the state x, in place: the steps' arithmetic
    on whole arrays, through ``_transfer`` into buffers allocated once."""
    buffers = (x, np.empty_like(x), np.empty_like(x))   # state first
    history: deque = deque(maxlen=3)   # plms noise predictions, newest first
    for i, ((t_cur, t_next), coefs, noise) in enumerate(steps):
        eps = predict(x, t_cur)
        if i == 0:
            require_same_shape(eps, x, "prediction and state")
        e = eps
        if plms:
            if history:
                e = plms_combine(eps, history)
            elif t_next >= 1:
                # plms runs at sigma 0, so the step's own coefficients
                # serve the probe; a fresh transfer, x stays the state
                probe, _ = _transfer(x, eps, coefs, None)
                e = 0.5 * (eps + predict(probe, t_next))
            history.appendleft(eps)
        _transfer(x, e, coefs, noise, buffers)
        require_finite(x, "sample state")


def _run_row(x, steps, predict, plms: bool) -> None:
    """``_run_rows`` for a state of one row: each step's arithmetic on
    Python floats, one expression per element, written back into x.

    The predictor still sees the (1, width) state array, and the probe is a
    fresh array. The plms combinations and the transfer take the
    operations of ``plms_combine`` and ``_transfer`` in their order, and a
    Python float operation rounds as the float64 ufunc does, once per
    operation, so every value has the bits of the array loop. Every
    prediction's shape is checked.
    """
    state = x[0]                # x's one row as a view, written every step

    def floats(xt, t) -> list:
        eps = predict(xt, t)
        if eps.shape != x.shape:
            require_same_shape(eps, x, "prediction and state")
        return eps[0].tolist()

    xs = state.tolist()
    history: deque = deque(maxlen=3)   # plms noise predictions, newest first
    for (t_cur, t_next), coefs, noise in steps:
        eps = floats(x, t_cur)
        e = eps
        if plms:
            if history:
                e = list(map(_ADAMS_BASHFORTH[len(history) - 1], eps, *history))
            elif t_next >= 1:
                probe = np.array([_transfer_row(xs, eps, coefs, None)])
                e = [0.5 * (a + b) for a, b in zip(eps, floats(probe, t_next))]
            history.appendleft(eps)
        xs = _transfer_row(xs, e, coefs, noise)
        state[:] = xs
        require_finite(x, "sample state")


def _transfer_row(xs: list, es: list, coefs, noise) -> list:
    """``_transfer``'s x_next for one row of floats: the same operations in
    the same order, the noise floats scaled by sigma and added when sigma > 0."""
    sqrt_1m_ac, sqrt_ac, sqrt_an, sqrt_rem, sigma = coefs
    if sigma > 0.0:
        return [sqrt_an * ((x - sqrt_1m_ac * e) / sqrt_ac) + sqrt_rem * e + z * sigma
                for x, e, z in zip(xs, es, noise)]
    return [sqrt_an * ((x - sqrt_1m_ac * e) / sqrt_ac) + sqrt_rem * e for x, e in zip(xs, es)]
