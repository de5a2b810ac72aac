"""Noise predictors: the exact Gaussian-data oracle and a small trainable
conditional denoiser with sinusoidal time features and one cross-attention
block over condition tokens, plus its training loop.

The trainable network is intentionally tiny: input projection, additive
time features ``TIME_DIM`` wide, a residual tanh stage, a residual
single-head cross-attention insertion over condition tokens ``COND_WIDTH``
wide (identity when unconditioned), a second residual tanh stage, and an
output projection. There is one attention, ``_attend``, which training and
inference both take. Gradients are computed in closed form and are checked
against finite differences in the test suite.

Both predictors keep one contract, ``EpsilonPredictor``: ``prepare``
binds one sampling call's condition, timesteps and guidance scale, and the
binding's ``predict`` gives one estimate, guided or not, per step. The
single-evaluation ``predict`` methods and ``toy_denoiser_forward`` are
one-step bindings, kept because the bench's tracer wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Protocol

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigError, TrainingDivergedError
from .numerics import RngStream, Tensor, require_finite, softmax
from .schedule import NoiseSchedule, linear_schedule

ConditionTokens = np.ndarray  # (n_tokens, token_width), frozen float64

# A forward product of fewer rows than this goes through ``np.dot``, one of
# at least this many through ``np.matmul``: the same bits, at a different
# dispatch cost. Timed for a (rows, 16) x (16, 16) product into a buffer
# (median of 15; numpy 2.4 with OpenBLAS, 2-vCPU shared x86-64): np.dot
# 1.2 against 1.8 us at 1 row, 1.2 against 2.2 at 2, 1.3 against 1.8 at 64,
# 5.4 against 5.6 at 256; about even at 320 and 384 (7.0/7.2 and 7.8/7.7);
# np.matmul ahead from 512 rows on (10.2 against 9.7 at 512, 34 against 28
# at 2000, 102 against 65 at 4000).
DOT_ROWS = 384

# The prepared denoiser runs its head (second FF block and output
# projection) in equal row tiles of at most this many rows. Past about 3000
# rows a (rows, 16) x (16, 16) product into a buffer costs more per row
# (median of 40 best-of-20 timings; numpy 2.4 with OpenBLAS, 2-vCPU shared
# x86-64, 4 MB L2): 8.8-9.9 ns a row at 1000-3000 rows, 13.7 at 4000; with
# one OpenBLAS thread 12.5-13.7 against 25.5. The whole head took 428 us
# at 4000 rows and 328 us as two 2000-row tiles, with the same bits.
HEAD_ROWS = 2048

# The widths of the time features and of a condition token; a checkpoint
# that records other widths is refused.
TIME_DIM = COND_WIDTH = 16

OPTIMIZERS = ("adam", "sgd")   # the update rules ``train`` knows


def _product(rows: int):
    """The product function for a left operand of ``rows`` rows."""
    return np.dot if rows < DOT_ROWS else np.matmul


class EpsilonPredictor(Protocol):
    """A noise predictor over a (batch, width) array of states xt, queried
    only through ``prepare(condition, timesteps, scale)``: a sampling call
    binds it once, ``ddpm_step`` to its one step, and each step takes one
    estimate with xt's shape from the bound ``predict(xt, t)``, which raises
    ValueError at a timestep not bound. Without a scale it is the noise
    estimate at the condition (none: unconditional), deterministic per
    (xt, t, condition); with one it is the classifier-free guidance
    estimate ``cfg_combine(u, c, scale)`` of the unconditional and
    conditional estimates, and a scale without a condition raises
    ValueError."""

    def prepare(self, condition: Optional[ConditionTokens], timesteps,
                scale: Optional[float] = None):
        ...


def _prepared(table: dict, t):
    """The entry a prepared predictor keeps for timestep t."""
    try:
        return table[t]
    except KeyError:
        raise ValueError(f"timestep {t} is not one of the prepared timesteps") from None


def check_condition_tokens(condition: ConditionTokens) -> ConditionTokens:
    cond = np.asarray(condition, dtype=np.float64)
    if cond.ndim != 2 or cond.shape[0] < 1 or cond.shape[1] < 1:
        raise ValueError("condition tokens must be a nonempty (n_tokens, width) array")
    require_finite(cond, "condition tokens")
    return cond


# ---------------------------------------------------------------------------
# Gaussian oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianOracle:
    """Exact posterior-mean noise predictor for data ~ N(mu0, var0 * I).

    E[x0 | xt] = (sqrt(abar_t) var0 xt + (1 - abar_t) mu0) / (abar_t var0 + 1 - abar_t)
    and the implied noise is (xt - sqrt(abar_t) E[x0|xt]) / sqrt(1 - abar_t).
    """

    mu0: Tensor
    var0: float
    schedule: NoiseSchedule

    def __post_init__(self):
        if not (math.isfinite(self.var0) and self.var0 >= 0.0):
            raise ValueError(f"var0 must be a finite number >= 0, got {self.var0}")
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=np.float64))
        require_finite(self.mu0, "mu0")

    def predict(self, xt: Tensor, t: int, condition=None) -> Tensor:
        t = self.schedule.check_step(t)
        return self.prepare(None, (t,)).predict(xt, t)

    def prepare(self, condition, timesteps, scale=None) -> "PreparedGaussianOracle":
        """This oracle bound to the timesteps of one sampling call. The
        condition and the guidance scale are ignored: both branches are
        one prediction, so the guided estimate is that prediction."""
        return PreparedGaussianOracle(self, timesteps)


class PreparedGaussianOracle:
    """A ``GaussianOracle`` bound to the timesteps of one sampling call:
    alpha_bar is read from the schedule's table and the factors of the
    posterior mean are computed once per timestep.

    A state is a (batch, mu0.size) array, as the toy's is (batch, width);
    another shape raises ValueError. Each state shape gets a workspace on
    first use: mu0 tiled to that shape and one scratch buffer. The prior
    term is (1 - abar) times the tile, elementwise the same product as
    (1 - abar) mu0 broadcast over the rows, so the add that follows runs
    over equal shapes. Every stage is written in place; the returned
    prediction is a fresh array that never aliases the workspace, because
    plms keeps past predictions.
    """

    def __init__(self, oracle: GaussianOracle, timesteps):
        steps = [int(t) for t in timesteps]
        schedule, var0 = oracle.schedule, oracle.var0
        if any(not 1 <= t <= schedule.T for t in steps):
            raise ValueError(f"timesteps must lie in [1, {schedule.T}]")
        self._mu0 = oracle.mu0.ravel()
        # one elementwise pass per factor; np.sqrt is correctly rounded, as
        # math.sqrt is, so each entry has the bits of the scalar expression
        a = schedule.alpha_bars[np.asarray(steps, dtype=np.int64) - 1]
        sqrt_a = np.sqrt(a)
        factors = (sqrt_a * var0, 1.0 - a, a * var0 + 1.0 - a, sqrt_a, np.sqrt(1.0 - a))
        self._factors = dict(zip(steps, zip(*(f.tolist() for f in factors))))
        self._workspace: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def predict(self, xt: Tensor, t) -> Tensor:
        sqrt_a_var0, one_m_a, denom, sqrt_a, sqrt_1ma = _prepared(self._factors, t)
        xt = _as_batch(xt, self._mu0.size)
        ws = self._workspace.get(xt.shape)
        if ws is None:
            tile = np.broadcast_to(self._mu0, xt.shape).copy()   # C order, as xt
            ws = self._workspace[xt.shape] = (tile, np.empty_like(tile))
        tile, scratch = ws
        prior = np.multiply(one_m_a, tile, out=scratch)
        eps = np.multiply(sqrt_a_var0, xt)
        eps += prior
        eps /= denom                                   # E[x0 | xt]
        np.multiply(sqrt_a, eps, out=scratch)
        np.subtract(xt, scratch, out=eps)
        eps /= sqrt_1ma
        return eps


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def time_embedding(t) -> Tensor:
    """Sinusoidal features, ``TIME_DIM`` wide: interleaved (sin(t w_k),
    cos(t w_k)) pairs with w_k geometrically spaced from 1 down to 1/10000."""
    half = TIME_DIM // 2
    freqs = 10.0 ** (-4.0 * np.arange(half) / (half - 1))
    t_arr = np.asarray(t, dtype=np.float64)
    angles = t_arr[..., None] * freqs
    out = np.empty(angles.shape[:-1] + (TIME_DIM,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def _project(memory: np.ndarray, params: ToyDenoiserParams, labels=None):
    """Keys and values (k, v) of condition memory, projected by the params'
    wk and wv: (n, W) each from shared (n, dc) memory, (B, n, W) each from
    per-row (B, n, dc) memory. With ``labels``, memory is a table of
    one-token conditions, (n_classes, dc), and v is its (n_classes, W)
    value table, formed by an einsum: a row gathered from it has the bits
    of the per-row einsum of that token. One token's key is never read
    (see ``_attend``), so k is None then."""
    if labels is not None:
        return None, np.einsum("nd,wd->nw", memory, params.wv)

    def project(weight):
        if memory.ndim == 2:
            return memory @ weight.T
        return np.einsum("bnd,wd->bnw", memory, weight)

    return (project(params.wk) if memory.shape[-2] > 1 else None), project(params.wv)


def _attend(h: np.ndarray, k: Optional[np.ndarray], v: np.ndarray, params: ToyDenoiserParams,
            labels=None):
    """Single-query attention, with the params' wq and wo, of each row of
    h (B, W) over projected keys and values, (n, W) shared by every row or
    (B, n, W) one set per row. With ``labels`` (B,), row i has one token of
    its own and v is a table of one value per class, (n_classes, W): the
    row's value is v[labels[i]].

    A softmax over one key is exactly 1, so with one token (labels, or
    n == 1 read from v) each row's attention z is its one value, no query
    or score is formed and k is not read. Returns the projected attention
    output (B, W) and a cache for backward.
    """
    q = weights = None
    if labels is not None:
        z = v.take(labels, axis=0)      # a row gather; take is the cheaper call
    elif v.shape[-2] == 1:
        z = np.repeat(v, len(h), axis=0) if v.ndim == 2 else v[:, 0]
    else:
        q = h @ params.wq.T                                      # (B, W)
        weights = softmax((k @ q[:, :, None])[..., 0] / math.sqrt(params.wq.shape[0]))
        z = (weights[:, None, :] @ v)[:, 0]
    out = z @ params.wo.T
    cache = (h, q, k, v, weights, z)
    return out, cache


def _attend_backward(g_out: np.ndarray, cache, memory: np.ndarray, params: ToyDenoiserParams,
                     grads: ToyDenoiserParams, labels=None) -> Optional[np.ndarray]:
    """Gradients of ``_attend`` over per-row (B, n, dc) memory, or with
    ``labels`` over the (n_classes, dc) table of one-token conditions that
    v was projected from. d_wq, d_wk, d_wv and d_wo are written into the
    views of ``grads``; dh is returned.

    With one token the scores do not depend on h, wq or wk, so their
    gradients are exact zeros: d_wq and d_wk are filled with 0.0 and dh is
    not formed, None is returned. d_wv is then the 2-D einsum over each
    row's token, which has the bits of the per-row 3-D einsum."""
    h, q, k, v, weights, z = cache
    np.dot(g_out.T, z, out=grads.wo)
    dz = np.dot(g_out, params.wo)
    if weights is None:
        rows = memory.take(labels, axis=0) if labels is not None else memory[:, 0]
        np.einsum("bw,bd->wd", dz, rows, out=grads.wv)
        grads.wq.fill(0.0)
        grads.wk.fill(0.0)
        return None
    d_weights = np.einsum("bw,bnw->bn", dz, v)
    dv = np.einsum("bn,bw->bnw", weights, dz)
    ds = (d_weights - (d_weights * weights).sum(axis=1, keepdims=True)) * weights
    ds = ds / math.sqrt(params.wq.shape[0])
    dq = np.einsum("bn,bnw->bw", ds, k)
    dkk = np.einsum("bn,bw->bnw", ds, q)
    grads.wq[...] = dq.T @ h
    grads.wk[...] = np.einsum("bnw,bnd->wd", dkk, memory)
    grads.wv[...] = np.einsum("bnw,bnd->wd", dv, memory)
    return dq @ params.wq


# ---------------------------------------------------------------------------
# Toy denoiser
# ---------------------------------------------------------------------------

def _param_shapes(data_width: int, width: int) -> dict[str, tuple[int, ...]]:
    """The layout table: every weight array's name and checkpoint shape, in
    the order the arrays tile the flat parameter vector."""
    w, d = width, data_width
    return {
        "w_in": (w, d), "b_in": (w,), "w_time": (w, TIME_DIM),
        "ff1_w1": (w, w), "ff1_b1": (w,), "ff1_w2": (w, w), "ff1_b2": (w,),
        "wq": (w, w), "wk": (w, COND_WIDTH), "wv": (w, COND_WIDTH), "wo": (w, w),
        "ff2_w1": (w, w), "ff2_b1": (w,), "ff2_w2": (w, w), "ff2_b2": (w,),
        "w_out": (d, w), "b_out": (d,),
    }


@dataclass(frozen=True)
class ToyDenoiserParams:
    """All weights of the toy conditional denoiser in one flat float64
    ``vector``. Each named weight (``params.w_in``, ...) is a view into it,
    cut in the order of the layout table ``_param_shapes``, so writing to
    ``vector`` updates every view. A bias is viewed as a (1, width) row:
    at one row numpy then adds it by its same-shape path instead of a
    broadcast. A gradient has the same form: its ``vector`` is the flat
    gradient."""

    data_width: int
    width: int
    vector: np.ndarray

    def __post_init__(self):
        shapes = self._layout()
        size = sum(math.prod(shape) for shape in shapes.values())
        vec = self.vector
        if not isinstance(vec, np.ndarray) or vec.dtype != np.float64 or vec.shape != (size,):
            raise ValueError(f"parameter vector must be float64 of shape ({size},)")
        end = 0
        for name, shape in shapes.items():
            start, end = end, end + math.prod(shape)
            object.__setattr__(self, name, vec[start:end].reshape(shape if len(shape) == 2
                                                                  else (1,) + shape))

    def _layout(self) -> dict[str, tuple[int, ...]]:
        return _param_shapes(self.data_width, self.width)

    def arrays(self) -> dict[str, np.ndarray]:
        """The named weights in checkpoint shapes (biases 1-D), as views."""
        return {name: getattr(self, name).reshape(shape) for name, shape in self._layout().items()}


def init_toy_denoiser(rng: RngStream, data_width: int, width: int = 16) -> ToyDenoiserParams:
    """Gaussian fan-in initialization of every weight matrix, zero biases."""
    data_width, width = int(data_width), int(width)
    vector = np.concatenate([np.zeros(shape) if len(shape) == 1
                             else (rng.normal(shape) / math.sqrt(shape[1])).ravel()
                             for shape in _param_shapes(data_width, width).values()])
    return ToyDenoiserParams(data_width, width, vector)


def _as_batch(xt, width: int) -> np.ndarray:
    """xt as a float64 (batch, width) array; another shape raises ValueError."""
    x = np.asarray(xt, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"input of shape {x.shape} is not (batch, {width})")
    return x


def _trunk(params: ToyDenoiserParams, x: np.ndarray, time_term: np.ndarray, ops=None):
    """Input projection, time term and the first FF block: (h1, a1, h2).

    ``time_term`` is the time features (``time_embedding``) times
    w_time.T, added to h1: one (1, width) row shared by every row of x,
    or one row per row of x. Sampling binds it once per call
    (``PreparedToyDenoiser``); training forms it per step
    (``_loss_and_grad``).
    ``ops`` optionally holds a workspace's operands for this stage (see
    ``_Workspace``): three (rows, width) buffers that h1, a1 and h2 are
    written into, the biases b_in, ff1_b1 and ff1_b2, the right-hand FF
    weights ff1_w1.T and ff1_w2.T, and the product function for its rows.
    Without it each stage is a fresh array, each bias a (1, width) row,
    each weight a transposed view, and the product function is chosen from
    x's rows (``_product``).
    """
    h1, a1, h2, b_in, b1, b2, w1, w2, mm = ops if ops is not None else (
        None, None, None, params.b_in, params.ff1_b1, params.ff1_b2,
        params.ff1_w1.T, params.ff1_w2.T, _product(len(x)))
    h1 = mm(x, params.w_in.T, out=h1)
    h1 += b_in
    h1 += time_term
    a1 = mm(h1, w1, out=a1)
    a1 += b1
    np.tanh(a1, out=a1)
    h2 = mm(a1, w2, out=h2)
    np.add(h1, h2, out=h2)
    h2 += b2
    return h1, a1, h2


def _head(params: ToyDenoiserParams, h3: np.ndarray, ops=None, out=None):
    """Second FF block and output projection: (a2, h4, prediction).

    ``ops`` optionally holds a workspace's operands for this stage: two
    (rows, width) buffers that a2 and h4 are written into, the biases
    ff2_b1, ff2_b2 and b_out, the right-hand FF weights ff2_w1.T and
    ff2_w2.T, and the product function for its rows; without it, as in
    ``_trunk``. The prediction is written into ``out`` when given, else
    into a fresh array; never into the workspace.
    """
    a2, h4, b1, b2, b_out, w1, w2, mm = ops if ops is not None else (
        None, None, params.ff2_b1, params.ff2_b2, params.b_out,
        params.ff2_w1.T, params.ff2_w2.T, _product(len(h3)))
    a2 = mm(h3, w1, out=a2)
    a2 += b1
    np.tanh(a2, out=a2)
    h4 = mm(a2, w2, out=h4)
    np.add(h3, h4, out=h4)
    h4 += b2
    out = mm(h4, params.w_out.T, out=out)
    out += b_out
    return a2, h4, out


class _Workspace:
    """The operands of the forward stages for a batch of rows, or of its two
    guidance branches: three (branches x rows, width) buffers, h3 the
    third, each bias tiled to the rows its stage runs on (a one-row stage
    adds the (1, width) bias view, already of its shape), the FF weights
    as right-hand operands, and the product function for the stage's rows
    (``_product``), picked once. The trunk runs on the first rows; its
    h2 + attention goes to ``cond``, the second half of h3 under guidance
    and all of h3, h2 itself, without.

    The head runs on all the rows, in k = ceil(rows / ``HEAD_ROWS``) tiles
    of equal size, cut at i * rows // k: ``head`` holds each tile's (start,
    stop, h3 rows, operands). A guided batch of 2000 rows runs it as its
    two halves. Tiles of one size share their bias tiles.

    A tiled bias makes each bias add same-shape, which numpy runs about
    twice as fast at 2000 rows as the broadcast of a (1, width) row, with
    the same sums. Each FF weight is kept as a C-contiguous copy of its
    transpose, which matmul reads about twice as fast as the transposed
    view and which gives the same bits at two rows and more. A one-row
    stage keeps the view: numpy sends a one-row product to gemv, whose
    rounding depends on the layout. Below ``DOT_ROWS`` rows a stage's
    products go through ``np.dot``, which dispatches in about 1.2 us against
    matmul's 1.8-2.2 us at one or two rows and gives the same bits for the
    views and the copies alike. The operand tuples are made once, because
    at one row making a view costs as much as the arithmetic it serves."""

    # per stage: the buffers it writes, its biases, its FF weights
    TRUNK = (3, ("b_in", "ff1_b1", "ff1_b2"), ("ff1_w1", "ff1_w2"))
    HEAD = (2, ("ff2_b1", "ff2_b2", "b_out"), ("ff2_w1", "ff2_w2"))

    def __init__(self, params: ToyDenoiserParams, rows: int, branches: int = 1):
        self.params = params
        total = branches * rows
        self.buffers = np.empty((3, total, params.width))
        self.h3 = self.buffers[2]
        self.cond = self.h3[total - rows:]
        self._biases: dict[tuple[str, int], np.ndarray] = {}
        self.trunk = self._operands(self.TRUNK, rows)
        k = -(-total // HEAD_ROWS)
        cuts = [i * total // k for i in range(k + 1)]
        self.head = tuple((lo, hi, self.h3[lo:hi], self._operands(self.HEAD, hi - lo, lo))
                          for lo, hi in zip(cuts, cuts[1:]))

    def _operands(self, stage, rows: int, start: int = 0) -> tuple:
        """The stage's buffers cut to rows from start, its biases tiled to
        rows, its right-hand FF weights and its product function, in the
        order ``_trunk`` and ``_head`` unpack them."""
        n_buffers, biases, weights = stage
        params = self.params
        return (*(buf[start:start + rows] for buf in self.buffers[:n_buffers]),
                *(self._bias(name, rows) for name in biases),
                *(getattr(params, name).T if rows == 1
                  else np.ascontiguousarray(getattr(params, name).T) for name in weights),
                _product(rows))

    def _bias(self, name: str, rows: int) -> np.ndarray:
        """The bias row ``name`` repeated to rows, made once per size; at
        one row, the (1, width) bias view itself."""
        if rows == 1:
            return getattr(self.params, name)
        if (name, rows) not in self._biases:
            self._biases[name, rows] = np.repeat(getattr(self.params, name), rows, axis=0)
        return self._biases[name, rows]


class PreparedToyDenoiser:
    """The toy denoiser bound to one condition (or none), one set of
    timesteps and, under classifier-free guidance, one scale: the inference
    wiring every toy prediction takes.

    The condition is checked and projected to keys and values once. A
    one-token condition's attention output does not depend on h2, so it is
    kept per batch size. The time terms of all the timesteps are bound
    once: one ``time_embedding`` call gives their feature rows as a
    (steps, 1, TIME_DIM) table, and one ``np.matmul`` of it by w_time.T
    forms every (1, width) term. Each row of that stacked product is the
    one-row gemv that ``np.dot`` runs on the step's feature row, so a term
    has the bits of the per-step product. Only those timesteps may be
    queried. Without a scale ``predict`` gives the bound condition's
    branch; with one, which needs a condition, the guided estimate
    u + scale (c - u). Both branches see the same (xt, t), so the trunk
    and the attention run once on the batch, and only the second FF block
    and the output projection (the head) run on the stacked
    [h2, h2 + attention] rows. The combine runs in place in the
    conditional half of the fresh prediction, c -= u, c *= scale,
    c += u: float addition and multiplication commute bit for bit, so
    these are ``cfg_combine``'s three roundings in its order. At one row
    it runs on Python floats instead, (c - u) * scale + u per element into
    a fresh (1, width) array: each float operation rounds once as the
    float64 ufunc does, so the bits are the same, without three ufunc
    calls a step.

    The trunk and the head write their stages into a ``_Workspace`` per
    row count, made on first use and reused by every later call with that
    count (a guided batch of B rows takes the 2B entry). Each head tile
    writes its rows of one fresh prediction; a single tile's own fresh
    prediction is used as it is. The returned predictions never alias the
    workspace, so a caller may keep them across calls.
    """

    def __init__(self, params: ToyDenoiserParams, condition: Optional[ConditionTokens],
                 timesteps, scale: Optional[float] = None):
        self.params = params
        self._kv = None
        if condition is not None:
            memory = check_condition_tokens(condition)
            if memory.shape[1] != COND_WIDTH:
                raise ValueError(f"condition tokens have width {memory.shape[1]}, "
                                 f"expected {COND_WIDTH}")
            self._kv = _project(memory, params)
        elif scale is not None:
            raise ValueError("a guidance scale needs a condition")
        self._scale = None if scale is None else float(scale)
        self._one_token_out: dict[int, np.ndarray] = {}   # batch size -> output
        self._workspace: dict[int, _Workspace] = {}       # rows -> buffers
        steps = [int(t) for t in timesteps]
        table = time_embedding(np.asarray(steps, dtype=np.float64)[:, None])
        terms = np.matmul(table, params.w_time.T)    # per row np.dot's one-row gemv
        self._time_terms = dict(zip(steps, terms))   # t -> its (1, width) row, a view

    def predict(self, xt: Tensor, t) -> Tensor:
        params, scale = self.params, self._scale
        x = _as_batch(xt, params.data_width)
        rows = len(x)
        time_term = _prepared(self._time_terms, t)
        branches = 1 if scale is None else 2
        ws = self._workspace.get(branches * rows)
        if ws is None:
            ws = self._workspace[branches * rows] = _Workspace(params, rows, branches)
        h2 = _trunk(params, x, time_term, ws.trunk)[-1]
        if self._kv is not None:
            np.add(h2, self._attention(h2), out=ws.cond)
        if len(ws.head) == 1:   # one tile: the head's own fresh prediction
            out = _head(params, ws.h3, ws.head[0][-1])[-1]
        else:
            out = np.empty((len(ws.h3), params.data_width))
            for lo, hi, h3, ops in ws.head:
                _head(params, h3, ops, out[lo:hi])
        require_finite(out, "denoiser output")
        if scale is None:
            return out
        if rows == 1:   # on floats: the two rows' values, combined as below
            u, c = out.tolist()
            return np.array([[(ci - ui) * scale + ui for ui, ci in zip(u, c)]])
        u, c = out[:rows], out[rows:]
        c -= u
        c *= scale
        c += u
        return c

    def _attention(self, h2: np.ndarray) -> np.ndarray:
        k, v = self._kv
        if len(v) > 1:
            return _attend(h2, k, v, self.params)[0]
        if len(h2) not in self._one_token_out:
            self._one_token_out[len(h2)] = _attend(h2, k, v, self.params)[0]
        return self._one_token_out[len(h2)]


def toy_denoiser_forward(params: ToyDenoiserParams, xt: Tensor, t: int,
                         condition: Optional[ConditionTokens] = None) -> Tensor:
    """Noise prediction with xt's shape at timestep t; condition may be
    absent. One call of ``PreparedToyDenoiser`` bound to (t,)."""
    return PreparedToyDenoiser(params, condition, (t,)).predict(xt, t)


def _loss_and_grad(params: ToyDenoiserParams, grads: ToyDenoiserParams, xt: np.ndarray,
                   temb: np.ndarray, eps: np.ndarray, memory, cond_mask, labels=None) -> float:
    """Mean-squared noise-prediction loss, by one forward and one backward
    pass. Every array's gradient is written into ``grads`` (the attention's
    as zeros without condition memory): its ``vector`` is the flat gradient.

    ``memory`` is per-row (B, n, dc) float64 memory or, with ``labels``
    (B,), the (n_classes, dc) table of one-token conditions that training
    hands in: row i's condition is memory[labels[i]], the same bits as
    per-row memory holding that token. With memory, ``cond_mask`` is the
    (B, 1) float64 column that scales each row's attention output
    (training's drop mask). ``temb`` holds each row's time features,
    (B, TIME_DIM): the trunk's time term is formed from them here, per
    step, with the product function of their rows, and the backward reads
    them for w_time's gradient.

    The backward's products use ``np.dot``, which gives the bits of
    ``np.matmul`` at these shapes (batch 1 to 4096 checked) with less
    dispatch per call. The forward's ``_trunk`` and ``_head`` are sampling's
    and pick their product function from the rows (``_product``): ``np.dot``
    at training's batch of 64, ``np.matmul`` at sampling's thousands of
    rows, where it is the faster of the two.
    """
    x = _as_batch(xt, params.data_width)
    h1, a1, h2 = _trunk(params, x, _product(len(temb))(temb, params.w_time.T))
    h3 = h2
    if memory is not None:
        attn_out, attn_cache = _attend(h2, *_project(memory, params, labels), params, labels)
        h3 = h2 + cond_mask * attn_out
    a2, h4, out = _head(params, h3)
    eps = np.asarray(eps, dtype=np.float64).reshape(out.shape)
    g_out = out - eps
    sq = g_out * g_out
    loss = float(np.add.reduce(sq, axis=None) / sq.size)    # np.mean's sum and divide
    g_out *= 2.0
    g_out /= g_out.size

    np.dot(g_out.T, h4, out=grads.w_out)
    np.add.reduce(g_out, axis=0, keepdims=True, out=grads.b_out)
    gh4 = np.dot(g_out, params.w_out)

    np.dot(gh4.T, a2, out=grads.ff2_w2)
    np.add.reduce(gh4, axis=0, keepdims=True, out=grads.ff2_b2)
    gz2 = np.dot(gh4, params.ff2_w2)
    gz2 *= 1.0 - a2 * a2
    np.dot(gz2.T, h3, out=grads.ff2_w1)
    np.add.reduce(gz2, axis=0, keepdims=True, out=grads.ff2_b1)
    gh3 = np.dot(gz2, params.ff2_w1)
    gh3 += gh4

    if memory is not None:
        g_attn = cond_mask * gh3
        dh = _attend_backward(g_attn, attn_cache, memory, params, grads, labels)
        gh2 = gh3 if dh is None else gh3 + dh
    else:
        for slot in (grads.wq, grads.wk, grads.wv, grads.wo):
            slot.fill(0.0)
        gh2 = gh3

    np.dot(gh2.T, a1, out=grads.ff1_w2)
    np.add.reduce(gh2, axis=0, keepdims=True, out=grads.ff1_b2)
    gz1 = np.dot(gh2, params.ff1_w2)
    gz1 *= 1.0 - a1 * a1
    np.dot(gz1.T, h1, out=grads.ff1_w1)
    np.add.reduce(gz1, axis=0, keepdims=True, out=grads.ff1_b1)
    gh1 = np.dot(gz1, params.ff1_w1)
    gh1 += gh2

    np.dot(gh1.T, temb, out=grads.w_time)
    np.dot(gh1.T, x, out=grads.w_in)
    np.add.reduce(gh1, axis=0, keepdims=True, out=grads.b_in)
    return loss


class ToyDenoiser:
    """EpsilonPredictor facade over a fixed parameter set."""

    def __init__(self, params: ToyDenoiserParams):
        self.params = params

    def predict(self, xt: Tensor, t: int, condition: Optional[ConditionTokens] = None) -> Tensor:
        return toy_denoiser_forward(self.params, xt, t, condition)

    def prepare(self, condition: Optional[ConditionTokens], timesteps,
                scale: Optional[float] = None) -> PreparedToyDenoiser:
        """This denoiser bound to one condition, the timesteps of one
        sampling call and a guidance scale or none; see
        ``PreparedToyDenoiser``."""
        return PreparedToyDenoiser(self.params, condition, timesteps, scale)


# ---------------------------------------------------------------------------
# Condition encoding and training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelEmbedding:
    """Fixed (untrained) map from label indices to single condition tokens."""

    tokens: np.ndarray  # (n_classes, COND_WIDTH)

    @classmethod
    def create(cls, n_classes: int, seed: int) -> "LabelEmbedding":
        tokens = RngStream(seed).child("label-embedding").normal((n_classes, COND_WIDTH))
        tokens.setflags(write=False)
        return cls(tokens=tokens)

    def condition(self, label: int) -> ConditionTokens:
        label = int(label)
        if not 0 <= label < len(self.tokens):
            raise ValueError(f"label must lie in [0, {len(self.tokens)}), got {label}")
        return self.tokens[label][None, :]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"  # one of OPTIMIZERS
    drop_prob: float = 0.0   # condition-drop probability for guidance training

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning rate must be a finite number > 0, "
                              f"got {self.learning_rate}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigError("drop probability must lie in [0, 1]")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError("optimizer must be " + " or ".join(map(repr, OPTIMIZERS)))
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")


def denoiser_bytes(path, params: ToyDenoiserParams, schedule: NoiseSchedule,
                   label_embedding: Optional[LabelEmbedding] = None) -> bytes:
    """The checkpoint file of a denoiser: parameters, widths, the
    linear-schedule constants, and the frozen label tokens when training
    was conditional. Non-finite values are refused with a CheckpointError
    that names ``path``, the file the bytes are meant for."""
    arrays = params.arrays()
    arrays["meta"] = np.array([params.data_width, params.width, TIME_DIM, COND_WIDTH],
                              dtype=np.float64)
    arrays["schedule"] = np.array([schedule.T, float(schedule.betas[0]),
                                   float(schedule.betas[-1])])
    if label_embedding is not None:
        arrays["label_tokens"] = label_embedding.tokens
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ckpt.CheckpointError(f"{path}: refusing to save non-finite values in {name!r}")
    return ckpt.encode_arrays(arrays)


def load_denoiser(path):
    """Returns (params, schedule, label_embedding or None).

    The array set (the layout's names, ``meta``, ``schedule`` and optional
    ``label_tokens``), every value, the widths in ``meta`` (the time and
    condition widths must be ``TIME_DIM`` and ``COND_WIDTH``) and every
    shape against them are checked; any failure raises CheckpointError.
    """
    arrays = ckpt.load_arrays(path)

    def bad(message: str) -> ckpt.CheckpointError:
        return ckpt.CheckpointError(f"{path}: {message}")

    def whole_positive(value: float) -> bool:
        return value >= 1 and value.is_integer()

    required = {"meta", "schedule", *_param_shapes(0, 0)}   # names only
    missing = sorted(required - set(arrays))
    unexpected = sorted(set(arrays) - required - {"label_tokens"})
    if missing or unexpected:
        raise bad(f"wrong array set: missing {missing}, unexpected {unexpected}")
    # every array is a view into one payload copy (``load_arrays``), which
    # they fill: one pass over it checks them all
    if not np.logical_and.reduce(np.isfinite(arrays["meta"].base)):
        name = next(name for name, arr in arrays.items() if not np.all(np.isfinite(arr)))
        raise bad(f"array {name!r} contains non-finite values")
    meta = arrays["meta"].tolist() if arrays["meta"].shape == (4,) else []
    if meta[2:] != [TIME_DIM, COND_WIDTH] or not all(map(whole_positive, meta[:2])):
        raise bad(f"meta must hold two positive integer widths, then {TIME_DIM} and {COND_WIDTH}")
    widths = [int(v) for v in meta[:2]]
    shapes = _param_shapes(*widths)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise bad(f"array {name!r} has shape {arrays[name].shape}, meta implies {shape}")
    tokens = arrays.get("label_tokens")
    if tokens is not None and (tokens.ndim != 2 or tokens.shape[0] < 1
                               or tokens.shape[1] != COND_WIDTH):
        raise bad(f"label_tokens has shape {tokens.shape}, expected (n, {COND_WIDTH})")
    consts = arrays["schedule"].tolist() if arrays["schedule"].shape == (3,) else []
    if not consts or not whole_positive(consts[0]):
        raise bad("schedule must hold (T, beta_start, beta_end) with a positive integer T")
    try:
        schedule = linear_schedule(int(consts[0]), consts[1], consts[2])
    except ValueError as exc:
        raise bad(f"invalid schedule constants: {exc}") from None
    vector = np.concatenate([arrays[name].ravel() for name in shapes])
    embedding = LabelEmbedding(tokens=tokens) if tokens is not None else None
    return ToyDenoiserParams(*widths, vector), schedule, embedding


class _AdamState:
    """Adam moments over one flat parameter vector, and two scratch vectors
    of the same size that every update writes its temporaries into. The
    decay rates and eps are Adam's usual constants."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty((2, size))
        self.t = 0

    def update(self, vec: np.ndarray, g: np.ndarray, lr: float) -> None:
        """One Adam step on ``vec`` in place, from the flat gradient ``g``.

        Every stage is written in place, in the operation order of
        m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
        vec -= (lr mhat) / (sqrt(vhat) + eps), so the bits are those of
        that expression on fresh arrays."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v = self.m, self.v
        s1, s2 = self._scratch
        m *= b1
        np.multiply(1 - b1, g, out=s1)
        m += s1
        v *= b2
        np.multiply(1 - b2, g, out=s1)
        s1 *= g
        v += s1
        np.divide(m, 1 - b1 ** self.t, out=s1)            # mhat
        np.divide(v, 1 - b2 ** self.t, out=s2)            # vhat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 *= lr
        s1 /= s2
        vec -= s1


# ``train`` draws the timesteps, noise and condition-drop masks of a block
# of TRAIN_BLOCK steps in one call per stream; of fewer steps when the batch
# is large, so that a block holds at most TRAIN_BLOCK_ROWS sample rows (and
# at least one step)
TRAIN_BLOCK, TRAIN_BLOCK_ROWS = 64, 4096


def train(params: ToyDenoiserParams, dataset, config: TrainConfig,
          schedule: NoiseSchedule,
          label_embedding: Optional[LabelEmbedding] = None
          ) -> tuple[ToyDenoiserParams, np.ndarray]:
    """Noise-prediction training; returns updated params and the loss curve.

    Each step samples a data batch, per-sample timesteps uniform on {1..T},
    fresh noise, and (when a label embedding is supplied) drops each
    sample's condition with the configured probability so the network also
    learns the unconditional branch.

    The timesteps, the noise and the drop masks come from streams of their
    own, so each is drawn for a block of steps at once (``TRAIN_BLOCK``):
    one draw of k x b values gives the values of k draws of b, in order.
    The block's sqrt(alpha_bar) and sqrt(1 - alpha_bar) times its noise
    are computed once, and each step slices its rows. The data stream
    interleaves labels and points, so it is drawn per step. A dataset gives
    labels on every batch or on none, so the drop stream is drawn exactly
    when a step uses it.

    A conditional step passes the label embedding's token table and the
    batch's labels, not a per-row (B, 1, dc) memory: the attention projects
    the n_classes tokens to values once and gathers each row's by label
    (``_project``, ``_attend``), with the bits of the per-row projection.
    The drop masks of a block are kept as (k, b, 1), so each step's mask
    is already the column the attention output is scaled by.

    The weights are a copy of ``params.vector``, and the gradient is one
    flat vector of the same layout, both viewed once per call; each step's
    backward pass writes the gradient in place and the Adam update writes
    into its own scratch vectors. Time features come from a table of every
    t in {1..T}, built once. A diverging run raises no numpy overflow
    warning; its first non-finite loss raises TrainingDivergedError.
    """
    rng = RngStream(config.seed)
    rng_data = rng.child("data")
    rng_t = rng.child("timesteps")
    rng_eps = rng.child("noise")
    rng_drop = rng.child("drop")

    vec = params.vector.copy()
    params = replace(params, vector=vec)
    grads = replace(params, vector=np.empty_like(vec))    # written whole every step
    time_table = time_embedding(np.arange(1, schedule.T + 1))
    adam = _AdamState(vec.size) if config.optimizer == "adam" else None
    losses = np.zeros(config.steps)
    b, lr = config.batch_size, config.learning_rate
    block = max(1, min(TRAIN_BLOCK, TRAIN_BLOCK_ROWS // b))

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, config.steps, block):
            k = min(block, config.steps - start)
            t_index = rng_t.integers(1, schedule.T, (k, b)) - 1
            noise = rng_eps.normal((k, b, dataset.dim))
            a = schedule.alpha_bars[t_index][:, :, None]
            sqrt_a, scaled_noise = np.sqrt(a), np.sqrt(1.0 - a) * noise
            keep = None
            for i in range(k):
                x0, labels = dataset.sample(b, rng_data)
                xt = sqrt_a[i] * x0 + scaled_noise[i]
                memory = mask = None
                if label_embedding is not None and labels is not None:
                    if keep is None:
                        keep = (rng_drop.uniform((k, b)) >= config.drop_prob) \
                            .astype(np.float64)[:, :, None]
                    memory, mask = label_embedding.tokens, keep[i]

                loss = _loss_and_grad(params, grads, xt, time_table[t_index[i]], noise[i],
                                      memory, mask, labels)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss became non-finite at step {start + i}")
                losses[start + i] = loss

                if adam is not None:
                    adam.update(vec, grads.vector, lr)
                else:
                    vec -= lr * grads.vector

    return params, losses
