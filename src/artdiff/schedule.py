"""Variance schedules for the forward noising chain and sampling timelines.

Timesteps are 1-based: t runs over 1..T, with the convention alpha_bar(0) = 1
so the posterior variance at t = 1 is exactly zero and the final reverse step
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_T = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02
MAX_T = 1_000_000   # bounds what a flag or checkpoint can allocate; alpha_bar underflows
                    # far below it at the default betas


@dataclass(frozen=True)
class NoiseSchedule:
    """Beta schedule with its derived alpha, alpha-bar, and posterior-variance tables."""

    betas: np.ndarray  # betas[t-1] is the step-t variance increment

    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)
    posterior_vars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a nonempty vector")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("every beta must lie strictly inside (0, 1)")
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        if np.any(alpha_bars <= 0.0) or np.any(alpha_bars >= 1.0):
            raise ValueError("alpha_bar left (0, 1); schedule too long or betas invalid")
        prev = np.concatenate(([1.0], alpha_bars[:-1]))
        posterior = (1.0 - prev) / (1.0 - alpha_bars) * betas
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        object.__setattr__(self, "posterior_vars", posterior)
        for arr in (betas, alphas, alpha_bars, posterior):
            arr.setflags(write=False)

    @property
    def T(self) -> int:
        return int(self.betas.size)

    def check_step(self, t: int, low: int = 1) -> int:
        t = int(t)
        if not low <= t <= self.T:
            raise ValueError(f"timestep {t} out of range [{low}, {self.T}]")
        return t

    def beta(self, t: int) -> float:
        return float(self.betas[self.check_step(t) - 1])

    def alpha(self, t: int) -> float:
        return float(self.alphas[self.check_step(t) - 1])

    def alpha_bar(self, t: int) -> float:
        """Cumulative product of alphas up to t, with alpha_bar(0) = 1."""
        t = self.check_step(t, low=0)
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])

    def posterior_var(self, t: int) -> float:
        return float(self.posterior_vars[self.check_step(t) - 1])


@dataclass(frozen=True)
class SamplingTimeline:
    """Strictly decreasing timestep indices visited by a sampler, from 1..T."""

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(int(s) for s in self.steps)
        if len(steps) == 0:
            raise ValueError("timeline must be nonempty")
        if any(s < 1 for s in steps):
            raise ValueError("timeline indices must be >= 1")
        if any(a <= b for a, b in zip(steps, steps[1:])):
            raise ValueError("timeline must be strictly decreasing")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    def pairs(self) -> list[tuple[int, int]]:
        """(t_current, t_next) transfer pairs, ending at the virtual t = 0."""
        nxt = self.steps[1:] + (0,)
        return list(zip(self.steps, nxt))

    def is_identity(self, T: int) -> bool:
        return self.steps == tuple(range(T, 0, -1))


def linear_schedule(T: int = DEFAULT_T,
                    beta_start: float = DEFAULT_BETA_START,
                    beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """Linearly interpolated betas from beta_start (t=1) to beta_end (t=T)."""
    T = int(T)
    if not 1 <= T <= MAX_T:
        raise ValueError(f"T must be an integer in [1, {MAX_T}], got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(betas=np.linspace(beta_start, beta_end, T))


def subsequence(schedule: NoiseSchedule, num_steps: int) -> SamplingTimeline:
    """Evenly spread descending timeline of num_steps indices from T down to
    s = T // num_steps.

    Entry i is T - (i (T - s)) // (num_steps - 1), so neighbouring gaps
    differ by at most one and none is shorter than the last transfer, from
    s to the virtual t = 0. When num_steps divides T this is the stride-s
    timeline T, T - s, ..., s; one step gives (T,).
    """
    num_steps = int(num_steps)
    T = schedule.T
    if not 1 <= num_steps <= T:
        raise ValueError(f"num_steps must lie in [1, {T}], got {num_steps}")
    if num_steps == 1:
        return SamplingTimeline(steps=(T,))
    span = T - T // num_steps
    return SamplingTimeline(steps=tuple(T - (i * span) // (num_steps - 1)
                                        for i in range(num_steps)))
