"""Noise predictors: the exact Gaussian-data oracle and a small trainable
conditional denoiser with sinusoidal time features and one cross-attention
block over condition tokens, plus its training loop.

The trainable network is intentionally tiny: input projection, additive
time features, a residual tanh stage, a residual single-head cross-attention
insertion (identity when unconditioned), a second residual tanh stage, and
an output projection. Gradients are computed in closed form and are checked
against finite differences in the test suite.

There is one attention, ``_attend``, over keys and values projected from
the condition; training and inference both take it.
With one condition token (a label) the softmax over the single key is
exactly 1, so the attention is the affine map wo·wv·token: no query or
score is formed, and the gradients of wq and wk are exact zeros, so
training leaves both at their initial values. Training hands each step
the label token table and the batch's labels: the values are projected
once per class and gathered per row, with the bits of projecting each
row's token on its own, and the backward forms no gradient of h through
the attention.

Both predictors keep one contract, ``EpsilonPredictor``: ``predict`` for
a single evaluation, ``prepare`` to bind one sampling call, the only way
the sampler queries them. The oracle's binding looks alpha_bar up once
per timestep and writes the stages of the posterior mean into a workspace
per state shape, which holds mu0 tiled to that shape. The toy's,
``PreparedToyDenoiser``, checks and projects the condition once, keeps a
one-token attention output per batch size, and takes all time features
from one ``time_embedding`` call. Its trunk and head write each stage into
a per-call workspace, one per row count, that also holds the biases tiled
to its rows and the FF weights as contiguous transposes, so every bias add
is same-shape and no FF product reads a transposed view; a one-row stage
keeps the views, since gemv rounds by layout. A product of fewer than
``DOT_ROWS`` rows goes through ``np.dot``, a larger one through
``np.matmul``; both give the same bits. Both bindings return fresh
predictions that never alias their workspace, so a caller (plms) may keep
them across calls.

The toy's weights, ``ToyDenoiserParams``, are one flat float64 vector cut
by one layout table into named views, each bias a (1, width) row; its
gradient has the same form, so training updates the whole vector at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Protocol

import numpy as np

from . import checkpoint as ckpt
from .errors import TrainingDivergedError
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


def _product(rows: int):
    """The product function for a left operand of ``rows`` rows."""
    return np.dot if rows < DOT_ROWS else np.matmul


class EpsilonPredictor(Protocol):
    """A noise predictor. ``predict(xt, t, condition)`` serves single
    evaluations (``ddpm_step``, the tests' ``loss_simple``, the bench's
    output checks).
    Sampling binds it once per call with ``prepare(condition, timesteps)``:
    the bound ``predict(xt, t)`` equals ``predict(xt, t, condition)`` at
    those timesteps and raises ValueError at any other, and with a condition
    bound, ``predict_pair(xt, t)`` is the (unconditional, conditional) pair
    that classifier-free guidance combines."""

    def predict(self, xt: Tensor, t: int, condition: Optional[ConditionTokens] = None) -> Tensor:
        """Noise estimate with xt's shape; deterministic per (xt, t, condition)."""
        ...

    def prepare(self, condition: Optional[ConditionTokens], timesteps):
        ...


def _unprepared(t) -> ValueError:
    return ValueError(f"timestep {t} is not one of the prepared timesteps")


def _prepared(table: dict, t):
    """The entry a prepared predictor keeps for timestep t."""
    try:
        return table[t]
    except KeyError:
        raise _unprepared(t) from None


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
        if self.var0 < 0.0:
            raise ValueError("var0 must be >= 0")
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=np.float64))

    def predict(self, xt: Tensor, t: int, condition=None) -> Tensor:
        t = self.schedule.check_step(t)
        return self.prepare(None, (t,)).predict(xt, t)

    def prepare(self, condition, timesteps) -> "PreparedGaussianOracle":
        """This oracle bound to the timesteps of one sampling call; the
        condition is ignored."""
        return PreparedGaussianOracle(self, timesteps)


class PreparedGaussianOracle:
    """A ``GaussianOracle`` bound to the timesteps of one sampling call:
    alpha_bar is read from the schedule's table and the factors of the
    posterior mean are computed once per timestep. The oracle ignores the
    condition, so ``predict_pair`` is the same prediction twice.

    Each state shape gets a workspace on first use: mu0 tiled to that shape
    and one scratch buffer. The prior term is (1 - abar) times the tile,
    elementwise the same product as (1 - abar) mu0 broadcast over the rows,
    so the add that follows runs over equal shapes. Every stage is written
    in place; the returned prediction is a fresh array that never aliases
    the workspace, because plms keeps past predictions.
    """

    def __init__(self, oracle: GaussianOracle, timesteps):
        steps = [int(t) for t in timesteps]
        schedule, var0 = oracle.schedule, oracle.var0
        if any(not 1 <= t <= schedule.T for t in steps):
            raise ValueError(f"timesteps must lie in [1, {schedule.T}]")
        self._mu0 = oracle.mu0
        # one elementwise pass per factor; np.sqrt is correctly rounded, as
        # math.sqrt is, so each entry has the bits of the scalar expression
        a = schedule.alpha_bars[np.asarray(steps, dtype=np.int64) - 1]
        sqrt_a = np.sqrt(a)
        factors = (sqrt_a * var0, 1.0 - a, a * var0 + 1.0 - a, sqrt_a, np.sqrt(1.0 - a))
        self._factors = dict(zip(steps, zip(*(f.tolist() for f in factors))))
        self._workspace: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def predict(self, xt: Tensor, t) -> Tensor:
        try:
            sqrt_a_var0, one_m_a, denom, sqrt_a, sqrt_1ma = self._factors[t]
        except KeyError:
            raise _unprepared(t) from None
        xt = np.asarray(xt, dtype=np.float64)
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

    def predict_pair(self, xt: Tensor, t) -> tuple[Tensor, Tensor]:
        eps = self.predict(xt, t)
        return eps, eps


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def time_embedding(t, dim: int) -> Tensor:
    """Sinusoidal features: interleaved (sin(t w_k), cos(t w_k)) pairs with
    w_k geometrically spaced from 1 down to 1/10000."""
    dim = int(dim)
    if dim < 2 or dim % 2 != 0:
        raise ValueError("embedding dim must be an even integer >= 2")
    half = dim // 2
    if half == 1:
        freqs = np.array([1.0])
    else:
        freqs = 10.0 ** (-4.0 * np.arange(half) / (half - 1))
    t_arr = np.asarray(t, dtype=np.float64)
    angles = t_arr[..., None] * freqs
    out = np.empty(angles.shape[:-1] + (dim,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


@dataclass(frozen=True)
class AttentionWeights:
    """Single-head projections: queries from the hidden state, keys and
    values from the condition memory, then an output projection."""

    wq: np.ndarray  # (width, width)
    wk: np.ndarray  # (width, cond_width)
    wv: np.ndarray  # (width, cond_width)
    wo: np.ndarray  # (width, width)


def _project(memory: np.ndarray, w: AttentionWeights, labels=None):
    """Keys and values (k, v) of condition memory: (n, W) each from shared
    (n, dc) memory, (B, n, W) each from per-row (B, n, dc) memory. With
    ``labels``, memory is a table of one-token conditions, (n_classes, dc),
    and v is its (n_classes, W) value table, formed by an einsum: a row
    gathered from it has the bits of the per-row einsum of that token. One
    token's key is never read (see ``_attend``), so k is None then."""
    if labels is not None:
        return None, np.einsum("nd,wd->nw", memory, w.wv)

    def project(weight):
        if memory.ndim == 2:
            return memory @ weight.T
        return np.einsum("bnd,wd->bnw", memory, weight)

    return (project(w.wk) if memory.shape[-2] > 1 else None), project(w.wv)


def _attend(h: np.ndarray, k: Optional[np.ndarray], v: np.ndarray, w: AttentionWeights,
            labels=None):
    """Single-query attention of each row of h (B, W) over projected keys
    and values, (n, W) shared by every row or (B, n, W) one set per row.
    With ``labels`` (B,), row i has one token of its own and v is a table
    of one value per class, (n_classes, W): the row's value is
    v[labels[i]].

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
        q = h @ w.wq.T                                           # (B, W)
        weights = softmax((k @ q[:, :, None])[..., 0] / math.sqrt(w.wq.shape[0]))
        z = (weights[:, None, :] @ v)[:, 0]
    out = z @ w.wo.T
    cache = (h, q, k, v, weights, z)
    return out, cache


def _attend_backward(g_out: np.ndarray, cache, memory: np.ndarray, w: AttentionWeights,
                     d_w: AttentionWeights, labels=None) -> Optional[np.ndarray]:
    """Gradients of ``_attend`` over per-row (B, n, dc) memory, or with
    ``labels`` over the (n_classes, dc) table of one-token conditions that
    v was projected from. d_wq, d_wk, d_wv and d_wo are written into the
    arrays of ``d_w``; dh is returned.

    With one token the scores do not depend on h, wq or wk, so their
    gradients are exact zeros: d_wq and d_wk are filled with 0.0 and dh is
    not formed, None is returned. d_wv is then the 2-D einsum over each
    row's token, which has the bits of the per-row 3-D einsum."""
    h, q, k, v, weights, z = cache
    np.dot(g_out.T, z, out=d_w.wo)
    dz = np.dot(g_out, w.wo)
    if weights is None:
        rows = memory.take(labels, axis=0) if labels is not None else memory[:, 0]
        np.einsum("bw,bd->wd", dz, rows, out=d_w.wv)
        d_w.wq.fill(0.0)
        d_w.wk.fill(0.0)
        return None
    d_weights = np.einsum("bw,bnw->bn", dz, v)
    dv = np.einsum("bn,bw->bnw", weights, dz)
    ds = (d_weights - (d_weights * weights).sum(axis=1, keepdims=True)) * weights
    ds = ds / math.sqrt(w.wq.shape[0])
    dq = np.einsum("bn,bnw->bw", ds, k)
    dkk = np.einsum("bn,bw->bnw", ds, q)
    d_w.wq[...] = dq.T @ h
    d_w.wk[...] = np.einsum("bnw,bnd->wd", dkk, memory)
    d_w.wv[...] = np.einsum("bnw,bnd->wd", dv, memory)
    return dq @ w.wq


# ---------------------------------------------------------------------------
# Toy denoiser
# ---------------------------------------------------------------------------

def _param_shapes(data_width: int, width: int, time_dim: int,
                  cond_width: int) -> dict[str, tuple[int, ...]]:
    """The layout table: every weight array's name and checkpoint shape, in
    the order the arrays tile the flat parameter vector."""
    w, d = width, data_width
    return {
        "w_in": (w, d), "b_in": (w,), "w_time": (w, time_dim),
        "ff1_w1": (w, w), "ff1_b1": (w,), "ff1_w2": (w, w), "ff1_b2": (w,),
        "wq": (w, w), "wk": (w, cond_width), "wv": (w, cond_width), "wo": (w, w),
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
    time_dim: int
    cond_width: int
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
        return _param_shapes(self.data_width, self.width, self.time_dim, self.cond_width)

    def arrays(self) -> dict[str, np.ndarray]:
        """The named weights in checkpoint shapes (biases 1-D), as views."""
        return {name: getattr(self, name).reshape(shape) for name, shape in self._layout().items()}

    @cached_property
    def attention(self) -> AttentionWeights:
        """The attention's weights, built once per params: they are views,
        so they follow every in-place write to ``vector``."""
        return AttentionWeights(wq=self.wq, wk=self.wk, wv=self.wv, wo=self.wo)


def init_toy_denoiser(rng: RngStream, data_width: int, width: int = 16,
                      time_dim: int = 16, cond_width: int = 16) -> ToyDenoiserParams:
    """Gaussian fan-in initialization of every weight matrix, zero biases."""
    widths = dict(data_width=int(data_width), width=int(width),
                  time_dim=int(time_dim), cond_width=int(cond_width))
    vector = np.concatenate([np.zeros(shape) if len(shape) == 1
                             else (rng.normal(shape) / math.sqrt(shape[1])).ravel()
                             for shape in _param_shapes(**widths).values()])
    return ToyDenoiserParams(**widths, vector=vector)


def _as_batch(params: ToyDenoiserParams, xt) -> tuple[np.ndarray, bool]:
    """(batch, data_width) input and whether xt was a single 1D sample."""
    x = np.asarray(xt, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.data_width:
        raise ValueError(f"input width {x.shape[-1] if x.ndim else '?'} does not match "
                         f"configured width {params.data_width}")
    return x, squeeze


def _check_memory(params: ToyDenoiserParams, memory, batch: int) -> np.ndarray:
    mem = np.asarray(memory, dtype=np.float64)
    if not (mem.ndim == 2 or (mem.ndim == 3 and mem.shape[0] == batch)) \
            or mem.shape[-1] != params.cond_width:
        raise ValueError("condition memory must be (n, cond_width) or (batch, n, cond_width)")
    return mem


def _time_features(params: ToyDenoiserParams, t, batch: int) -> np.ndarray:
    """A scalar t gives one (1, time_dim) feature row, broadcast over the
    batch; per-sample t gives (batch, time_dim)."""
    t_arr = np.asarray(t, dtype=np.float64)
    if t_arr.ndim == 0:
        return time_embedding(t_arr, params.time_dim)[None, :]
    return time_embedding(np.broadcast_to(t_arr, (batch,)), params.time_dim)


def _trunk(params: ToyDenoiserParams, x: np.ndarray, t, temb=None, ops=None):
    """Input projection, time features and the first FF block.

    Features precomputed for t may be passed as ``temb``. ``ops``
    optionally holds a workspace's operands for this stage (see
    ``_Workspace``): three (rows, width) buffers that h1, a1 and h2 are
    written into, the biases b_in, ff1_b1 and ff1_b2, the right-hand FF
    weights ff1_w1.T and ff1_w2.T, and the product function for its rows.
    Without it each stage is a fresh array, each bias a (1, width) row,
    each weight a transposed view, and the product function is chosen from
    x's rows (``_product``).
    """
    if temb is None:
        temb = _time_features(params, t, x.shape[0])
    h1, a1, h2, b_in, b1, b2, w1, w2, mm = ops if ops is not None else (
        None, None, None, params.b_in, params.ff1_b1, params.ff1_b2,
        params.ff1_w1.T, params.ff1_w2.T, _product(len(x)))
    h1 = mm(x, params.w_in.T, out=h1)
    h1 += b_in
    h1 += _product(len(temb))(temb, params.w_time.T)
    a1 = mm(h1, w1, out=a1)
    a1 += b1
    np.tanh(a1, out=a1)
    h2 = mm(a1, w2, out=h2)
    np.add(h1, h2, out=h2)
    h2 += b2
    return temb, h1, a1, h2


def _head(params: ToyDenoiserParams, h3: np.ndarray, ops=None):
    """Second FF block and output projection: (a2, h4, prediction).

    ``ops`` optionally holds a workspace's operands for this stage: two
    (rows, width) buffers that a2 and h4 are written into, the biases
    ff2_b1, ff2_b2 and b_out, the right-hand FF weights ff2_w1.T and
    ff2_w2.T, and the product function for its rows; without it, as in
    ``_trunk``. The prediction is always a fresh array.
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
    out = mm(h4, params.w_out.T)
    out += b_out
    return a2, h4, out


def _forward_pass(params: ToyDenoiserParams, xt: np.ndarray, t,
                  memory: Optional[np.ndarray], cond_mask: Optional[np.ndarray],
                  temb: Optional[np.ndarray] = None, labels=None):
    """Shared forward; returns the prediction and every intermediate needed
    for the closed-form backward pass. With ``labels``, memory is a table
    of one-token conditions and row i's condition is memory[labels[i]]."""
    x, squeeze = _as_batch(params, xt)
    batch = x.shape[0]
    temb, h1, a1, h2 = _trunk(params, x, t, temb)

    mem = attn_cache = mask = None
    h3 = h2
    if memory is not None:
        w = params.attention
        mem = _check_memory(params, memory, batch)
        attn_out, attn_cache = _attend(h2, *_project(mem, w, labels), w, labels)
        mask = np.ones((batch, 1)) if cond_mask is None \
            else np.asarray(cond_mask, dtype=np.float64)
        if mask.shape != (batch, 1):
            mask = mask.reshape(batch, 1)
        h3 = h2 + mask * attn_out

    a2, h4, out = _head(params, h3)
    cache = (x, temb, h1, a1, h2, mem, attn_cache, mask, h3, a2, h4, squeeze)
    return out, cache


class _Workspace:
    """The operands of the forward stages for one row count: three
    (rows, width) buffers, h3 the third, each bias tiled to the rows its
    stage runs on, the FF weights as right-hand operands, and the product
    function for the stage's rows (``_product``), picked once. A guidance
    pair's trunk runs on the first half of the rows, and its h2 + attention
    goes to the second half of h3. The trunk operands of ``predict`` and
    of a pair are each built on first use, so a workspace that serves only
    pairs holds trunk tiles of half its rows.

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

    def __init__(self, params: ToyDenoiserParams, rows: int):
        self.params = params
        self.buffers = np.empty((3, rows, params.width))
        self.h3 = self.buffers[2]
        self.pair_cond = self.h3[rows // 2:]
        self.head = self._operands(self.HEAD, rows)

    @cached_property
    def trunk(self) -> tuple:
        return self._operands(self.TRUNK, len(self.h3))

    @cached_property
    def pair_trunk(self) -> tuple:
        return self._operands(self.TRUNK, len(self.h3) // 2)

    def _operands(self, stage, rows: int) -> tuple:
        """The stage's buffers cut to rows, its biases tiled to rows, its
        right-hand FF weights and its product function, in the order
        ``_trunk`` and ``_head`` unpack them."""
        n_buffers, biases, weights = stage
        params = self.params
        return (*(buf[:rows] for buf in self.buffers[:n_buffers]),
                *(np.repeat(getattr(params, name), rows, axis=0) for name in biases),
                *(getattr(params, name).T if rows == 1
                  else np.ascontiguousarray(getattr(params, name).T) for name in weights),
                _product(rows))


class PreparedToyDenoiser:
    """The toy denoiser bound to one condition (or none) and one set of
    timesteps: the inference wiring every toy prediction takes.

    The condition is checked and projected to keys and values once. A
    one-token condition's attention output does not depend on h2, so it is
    kept per batch size. The time-feature rows of all the timesteps come
    from one ``time_embedding`` call, and only those timesteps may be
    queried. ``predict`` gives the bound condition's branch,
    ``predict_pair`` the (unconditional, conditional) pair that
    classifier-free guidance combines. Both branches see the same
    (xt, t), so the trunk and the attention run once on the batch; only the
    second FF block and the output projection run on the stacked
    [h2, h2 + attention] rows.

    The trunk and the second FF block write their stages into a workspace
    per row count, allocated on first use and reused by every later call
    with that count (a pair of B rows takes the 2B entry). It holds three
    (rows, width) buffers and the operands those stages read: the biases
    tiled to its rows and the FF weights as contiguous transposes (see
    ``_Workspace``). The returned predictions are fresh arrays that never
    alias the workspace, so a caller may keep them across calls.
    """

    def __init__(self, params: ToyDenoiserParams, condition: Optional[ConditionTokens],
                 timesteps):
        self.params = params
        self._kv = None
        if condition is not None:
            memory = check_condition_tokens(condition)
            if memory.shape[1] != params.cond_width:
                raise ValueError(f"condition tokens have width {memory.shape[1]}, "
                                 f"expected {params.cond_width}")
            self._kv = _project(memory, params.attention)
        self._one_token_out: dict[int, np.ndarray] = {}   # batch size -> output
        self._workspace: dict[int, _Workspace] = {}       # rows -> buffers
        steps = [int(t) for t in timesteps]
        table = time_embedding(np.asarray(steps, dtype=np.float64), params.time_dim)
        self._features = {t: table[i:i + 1] for i, t in enumerate(steps)}

    def predict(self, xt: Tensor, t) -> Tensor:
        return self._run(xt, t, pair=False)

    def predict_pair(self, xt: Tensor, t) -> tuple[Tensor, Tensor]:
        if self._kv is None:
            raise ValueError("a guidance pair needs a condition")
        return self._run(xt, t, pair=True)

    def _run(self, xt, t, pair: bool):
        params = self.params
        x, squeeze = _as_batch(params, xt)
        rows = len(x)
        temb = _prepared(self._features, t)
        total = 2 * rows if pair else rows
        ws = self._workspace.get(total)
        if ws is None:
            ws = self._workspace[total] = _Workspace(params, total)
        if pair:
            h2 = _trunk(params, x, t, temb, ws.pair_trunk)[-1]
            np.add(h2, self._attention(h2), out=ws.pair_cond)
        else:
            h2 = _trunk(params, x, t, temb, ws.trunk)[-1]
            if self._kv is not None:
                np.add(h2, self._attention(h2), out=h2)
        out = _head(params, ws.h3, ws.head)[-1]
        require_finite(out, "denoiser output")
        if not pair:
            return out[0] if squeeze else out
        uncond, cond = out[:rows], out[rows:]
        return (uncond[0], cond[0]) if squeeze else (uncond, cond)

    def _attention(self, h2: np.ndarray) -> np.ndarray:
        k, v = self._kv
        if len(v) > 1:
            return _attend(h2, k, v, self.params.attention)[0]
        if len(h2) not in self._one_token_out:
            self._one_token_out[len(h2)] = _attend(h2, k, v, self.params.attention)[0]
        return self._one_token_out[len(h2)]


def toy_denoiser_forward(params: ToyDenoiserParams, xt: Tensor, t: int,
                         condition: Optional[ConditionTokens] = None) -> Tensor:
    """Noise prediction with xt's shape at timestep t; condition may be
    absent. One call of ``PreparedToyDenoiser`` bound to (t,)."""
    return PreparedToyDenoiser(params, condition, (t,)).predict(xt, t)


def _loss_and_grad(params: ToyDenoiserParams, grads: ToyDenoiserParams, xt: np.ndarray, t,
                   eps: np.ndarray, memory, cond_mask, temb=None, labels=None) -> float:
    """Mean-squared noise-prediction loss. Every array's gradient is written
    into ``grads`` (the attention's as zeros without condition memory), so
    its ``vector`` is then the whole flat gradient.

    ``memory`` is shared (n, dc) memory, per-row (B, n, dc) memory, or with
    ``labels`` (B,) the (n_classes, dc) table of one-token conditions that
    training hands in: row i's condition is memory[labels[i]], the same
    bits as per-row memory holding that token. ``cond_mask`` is (B,) or
    (B, 1). ``temb`` optionally holds the time features of t, precomputed.

    The backward's products use ``np.dot``, which gives the bits of
    ``np.matmul`` at these shapes (batch 1 to 4096 checked) with less
    dispatch per call. The forward is shared with sampling and picks its
    product function from its rows (``_product``): ``np.dot`` at training's
    batch of 64, ``np.matmul`` at sampling's thousands of rows, where it is
    the faster of the two.
    """
    if memory is not None and labels is None and np.ndim(memory) == 2:
        # _attend_backward takes the per-row (batch, n, dc) form
        memory = np.broadcast_to(memory, (len(np.atleast_2d(xt)),) + np.shape(memory))
    out, cache = _forward_pass(params, xt, t, memory, cond_mask, temb, labels)
    x, temb, h1, a1, h2, memory, attn_cache, mask, h3, a2, h4, _ = cache
    if temb.shape[0] != x.shape[0]:     # a scalar t gives one shared row
        temb = np.broadcast_to(temb, (x.shape[0], temb.shape[1]))
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

    if attn_cache is not None:
        g_attn = mask * gh3
        dh = _attend_backward(g_attn, attn_cache, memory, params.attention, grads.attention,
                              labels)
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

    def prepare(self, condition: Optional[ConditionTokens], timesteps) -> PreparedToyDenoiser:
        """This denoiser bound to one condition and the timesteps of one
        sampling call; see ``PreparedToyDenoiser``."""
        return PreparedToyDenoiser(self.params, condition, timesteps)


# ---------------------------------------------------------------------------
# Condition encoding and training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelEmbedding:
    """Fixed (untrained) map from label indices to single condition tokens."""

    tokens: np.ndarray  # (n_classes, cond_width)

    @classmethod
    def create(cls, n_classes: int, cond_width: int, seed: int) -> "LabelEmbedding":
        tokens = RngStream(seed).child("label-embedding").normal((n_classes, cond_width))
        tokens.setflags(write=False)
        return cls(tokens=tokens)

    def condition(self, label: int) -> ConditionTokens:
        return self.tokens[int(label)][None, :]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"  # or "sgd"
    drop_prob: float = 0.0   # condition-drop probability for guidance training

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning rate must be a finite number > 0, "
                             f"got {self.learning_rate}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must lie in [0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")


def save_denoiser(path, params: ToyDenoiserParams, schedule: NoiseSchedule,
                  label_embedding: Optional[LabelEmbedding] = None) -> None:
    """Write a denoiser checkpoint: parameters, widths, the linear-schedule
    constants, and the frozen label tokens when training was conditional.
    Non-finite values are refused."""
    arrays = params.arrays()
    arrays["meta"] = np.array([params.data_width, params.width, params.time_dim,
                               params.cond_width], dtype=np.float64)
    arrays["schedule"] = np.array([schedule.T, float(schedule.betas[0]),
                                   float(schedule.betas[-1])])
    if label_embedding is not None:
        arrays["label_tokens"] = label_embedding.tokens
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ckpt.CheckpointError(f"{path}: refusing to save non-finite values in {name!r}")
    ckpt.save_arrays(path, ckpt.DENOISER_MAGIC, arrays)


def load_denoiser(path):
    """Returns (params, schedule, label_embedding or None).

    The array set (the layout's names, ``meta``, ``schedule`` and optional
    ``label_tokens``), every value, and every shape (against the widths in
    ``meta``) are checked; any failure raises CheckpointError.
    """
    arrays = ckpt.load_arrays(path, ckpt.DENOISER_MAGIC)

    def bad(message: str) -> ckpt.CheckpointError:
        return ckpt.CheckpointError(f"{path}: {message}")

    def whole_positive(values: np.ndarray) -> bool:
        return bool(np.all(values >= 1) and np.all(values == np.floor(values)))

    required = {"meta", "schedule", *_param_shapes(0, 0, 0, 0)}   # names only
    missing = sorted(required - set(arrays))
    unexpected = sorted(set(arrays) - required - {"label_tokens"})
    if missing or unexpected:
        raise bad(f"wrong array set: missing {missing}, unexpected {unexpected}")
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise bad(f"array {name!r} contains non-finite values")
    meta, consts = arrays["meta"], arrays["schedule"]
    if meta.shape != (4,) or not whole_positive(meta) or meta[2] % 2 != 0:
        raise bad("meta must hold four positive integer widths with an even time width")
    widths = [int(v) for v in meta]
    cond_width = widths[3]
    shapes = _param_shapes(*widths)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise bad(f"array {name!r} has shape {arrays[name].shape}, meta implies {shape}")
    tokens = arrays.get("label_tokens")
    if tokens is not None and (tokens.ndim != 2 or tokens.shape[0] < 1
                               or tokens.shape[1] != cond_width):
        raise bad(f"label_tokens has shape {tokens.shape}, expected (n, {cond_width})")
    if consts.shape != (3,) or not whole_positive(consts[0]):
        raise bad("schedule must hold (T, beta_start, beta_end) with a positive integer T")
    try:
        schedule = linear_schedule(int(consts[0]), float(consts[1]), float(consts[2]))
    except ValueError as exc:
        raise bad(f"invalid schedule constants: {exc}") from None
    vector = np.concatenate([arrays[name].ravel() for name in shapes])
    embedding = LabelEmbedding(tokens=tokens) if tokens is not None else None
    return ToyDenoiserParams(*widths, vector=vector), schedule, embedding


class _AdamState:
    """Adam moments over one flat parameter vector, and two scratch vectors
    of the same size that every update writes its temporaries into."""

    def __init__(self, size: int, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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
    time_table = time_embedding(np.arange(1, schedule.T + 1), params.time_dim)
    adam = _AdamState(vec.size) if config.optimizer == "adam" else None
    losses = np.zeros(config.steps)
    b, lr = config.batch_size, config.learning_rate
    block = max(1, min(TRAIN_BLOCK, TRAIN_BLOCK_ROWS // b))

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, config.steps, block):
            k = min(block, config.steps - start)
            ts = rng_t.integers(1, schedule.T, (k, b))
            t_index = ts - 1
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

                loss = _loss_and_grad(params, grads, xt, ts[i], noise[i], memory, mask,
                                      time_table[t_index[i]], labels)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss became non-finite at step {start + i}")
                losses[start + i] = loss

                if adam is not None:
                    adam.update(vec, grads.vector, lr)
                else:
                    vec -= lr * grads.vector

    return params, losses
