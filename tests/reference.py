"""Reference math that the tests compare the program against.

Nothing in ``artdiff`` calls these functions. They are the forward process,
the tractable posterior (its mean in the (x0, xt) and the noise form), the
training loss, the DDIM noise scale and the
denoised observation written out directly, a DDIM sampling loop that
draws its noise one transfer at a time and forms its guided estimate from
two unguided predictions, the toy denoiser's two guidance branches on
stacked rows, the per-row label memory that
training's label form is checked against, plus small helpers the
acceptance criteria need. Nothing here imports ``artdiff.samplers``, so a
sampler check never compares the sampler with itself. The prompt-extension
pieces are the BM25 length norms of recounted documents, the hashed
embedding added one token at a time, the gazetteer scan that tries every
position and the temporal count that runs all four patterns on every
text, and the output piece is the text of
``samples.csv`` written value by value.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

from artdiff.denoisers import (ConditionTokens, LabelEmbedding, ToyDenoiserParams, _attend,
                               _head, _project, _trunk, check_condition_tokens,
                               time_embedding)
from artdiff.numerics import RngStream, Tensor, require_finite, require_same_shape
from artdiff.promptx import tokenize
from artdiff.schedule import NoiseSchedule


def q_sample(x0: Tensor, t: int, eps: Tensor, schedule: NoiseSchedule) -> Tensor:
    """Jump directly to step t: sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps."""
    require_same_shape(x0, eps, "x0 and eps")
    a = schedule.alpha_bar(schedule.check_step(t))
    out = math.sqrt(a) * np.asarray(x0, dtype=np.float64) \
        + math.sqrt(1.0 - a) * np.asarray(eps, dtype=np.float64)
    require_finite(out, "q_sample output")
    return out


def q_step(x_prev: Tensor, t: int, schedule: NoiseSchedule, rng: RngStream) -> Tensor:
    """Single forward step: draw from N(sqrt(1 - beta_t) * x_prev, beta_t I)."""
    b = schedule.beta(t)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    out = math.sqrt(1.0 - b) * x_prev + math.sqrt(b) * rng.normal(x_prev.shape)
    require_finite(out, "q_step output")
    return out


def posterior_params(x0: Tensor, xt: Tensor, t: int,
                     schedule: NoiseSchedule) -> tuple[Tensor, float]:
    """Mean and (scalar, isotropic) variance of the tractable reverse
    conditional q(x_{t-1} | x_t, x_0), the mean in its (x0, xt) form."""
    require_same_shape(x0, xt, "x0 and xt")
    t = schedule.check_step(t)
    x0 = np.asarray(x0, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    a = schedule.alpha(t)
    abar = schedule.alpha_bar(t)
    abar_prev = schedule.alpha_bar(t - 1)
    beta = schedule.beta(t)
    coef_x0 = math.sqrt(abar_prev) * beta / (1.0 - abar)
    coef_xt = math.sqrt(a) * (1.0 - abar_prev) / (1.0 - abar)
    mean = coef_x0 * x0 + coef_xt * xt
    require_finite(mean, "posterior mean")
    return mean, schedule.posterior_var(t)


def posterior_mean_from_eps(xt: Tensor, eps: Tensor, t: int,
                            schedule: NoiseSchedule) -> Tensor:
    """Posterior mean in noise form: (x_t - (1-alpha_t)/sqrt(1-abar_t) * eps) / sqrt(alpha_t)."""
    require_same_shape(xt, eps, "xt and eps")
    a = schedule.alpha(t)
    abar = schedule.alpha_bar(t)
    xt = np.asarray(xt, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    return (xt - (1.0 - a) / math.sqrt(1.0 - abar) * eps) / math.sqrt(a)


def loss_simple(predictor, x0: Tensor, t: int, eps: Tensor,
                schedule: NoiseSchedule, condition=None) -> float:
    """Mean squared noise-prediction error at step t.

    ``x0`` may carry a leading batch axis; the reduction is the mean over
    all elements (and hence over the batch).
    """
    xt = q_sample(x0, t, eps, schedule)
    pred = predictor.predict(xt, t, condition)
    require_same_shape(pred, eps, "prediction and eps")
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(eps, dtype=np.float64)
    loss = float(np.mean(diff * diff))
    if not math.isfinite(loss):
        raise ValueError("loss_simple produced a non-finite value")
    return loss


def predict_x0(xt: Tensor, eps: Tensor, t: int, schedule: NoiseSchedule) -> Tensor:
    """Denoised observation: (x_t - sqrt(1 - abar_t) eps) / sqrt(abar_t)."""
    require_same_shape(xt, eps, "xt and eps")
    t = schedule.check_step(t)
    a = schedule.alpha_bar(t)
    if a <= 0.0:
        raise ValueError("alpha_bar vanished; denoised observation is singular")
    xt, eps = np.asarray(xt, dtype=np.float64), np.asarray(eps, dtype=np.float64)
    return (xt - math.sqrt(1.0 - a) * eps) / math.sqrt(a)


def ddim_sigma(eta: float, t_cur: int, t_next: int, schedule: NoiseSchedule) -> float:
    """Per-transfer noise scale: eta * sqrt((1-abar_n)/(1-abar_c)) * sqrt(1 - abar_c/abar_n).

    eta = 0 gives the deterministic sampler; eta = 1 on adjacent steps
    reproduces the ancestral posterior variance exactly.
    """
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    t_cur = schedule.check_step(t_cur)
    t_next = schedule.check_step(t_next, low=0)
    if t_next >= t_cur:
        raise ValueError("t_next must be strictly below t_cur")
    ac = schedule.alpha_bar(t_cur)
    an = schedule.alpha_bar(t_next)
    return eta * math.sqrt((1.0 - an) / (1.0 - ac)) * math.sqrt(1.0 - ac / an)


def ddim_sample_per_step_draws(predictor, plan, schedule: NoiseSchedule, condition=None,
                               pair=None):
    """A ddim or ddpm sampling plan run transfer by transfer, with one
    noise draw per transfer: x_T from the plan's seed, then at each
    timeline pair the prediction, x0 = (x - sqrt(1 - ac) eps) / sqrt(ac),
    x = sqrt(an) x0 + sqrt(rem) eps, and when sigma > 0 sigma times a fresh
    draw of the same stream added. ddpm is eta = 1. Under guidance the
    prediction is u + scale (c - u) of the pair (u, c) that
    ``pair(x, t)`` gives, by default the predictions of two unguided
    bindings, one without the condition and one with it. Returns the final
    state and the stream, whose ``draws`` counts every value the run used."""
    eta = 1.0 if plan.kind == "ddpm" else plan.eta
    rng = RngStream(plan.seed)
    x = rng.normal((plan.batch, plan.width))
    steps = plan.timeline.steps
    bound = predictor.prepare(condition, steps)
    guided = condition is not None and plan.guidance_scale != 1.0
    if guided and pair is None:
        uncond = predictor.prepare(None, steps)

        def pair(x, t):
            return uncond.predict(x, t), bound.predict(x, t)

    for t_cur, t_next in plan.timeline.pairs():
        if guided:
            u, c = pair(x, t_cur)
            eps = u + float(plan.guidance_scale) * (c - u)
        else:
            eps = bound.predict(x, t_cur)
        ac, an = schedule.alpha_bar(t_cur), schedule.alpha_bar(t_next)
        sigma = ddim_sigma(eta, t_cur, t_next, schedule)
        x0 = (x - math.sqrt(1.0 - ac) * eps) / math.sqrt(ac)
        x = math.sqrt(an) * x0 + math.sqrt(max(1.0 - an - sigma * sigma, 0.0)) * eps
        if sigma > 0.0:
            x = x + sigma * rng.normal(x.shape)
    return x, rng


def toy_guidance_pair(params: ToyDenoiserParams, xt: Tensor, t: int,
                      condition: ConditionTokens) -> tuple[Tensor, Tensor]:
    """The toy denoiser's (unconditional, conditional) predictions as a
    guided step forms them, on fresh arrays: the trunk and the attention
    once on xt's rows, the head on the stacked [h2, h2 + attention] rows.
    At one row these are not the bits of two one-row forward passes, since
    numpy sends a one-row product to gemv and the stacked head's two rows
    to gemm."""
    h2 = _trunk(params, xt, time_embedding(t, params.time_dim)[None])[-1]
    attn = _attend(h2, *_project(check_condition_tokens(condition), params), params)[0]
    out = _head(params, np.concatenate([h2, h2 + attn]))[-1]
    return out[:len(xt)], out[len(xt):]


def exact_flow_endpoint(x_T: Tensor, mu0, var0: float, abar_T: float) -> Tensor:
    """The probability-flow ODE of N(mu0, var0 I) data, solved from abar_T
    to t = 0 in closed form: the affine map
    mu0 + sqrt(var0 / (abar_T var0 + 1 - abar_T)) (x_T - sqrt(abar_T) mu0)."""
    mu0 = np.asarray(mu0, dtype=np.float64)
    return mu0 + math.sqrt(var0 / (abar_T * var0 + 1.0 - abar_T)) * (x_T - math.sqrt(abar_T) * mu0)


def sample_stats(batch: list[Tensor]) -> tuple[Tensor, Tensor]:
    """Unbiased mean and covariance of a batch of equal-shaped tensors.

    The mean keeps the element shape; the covariance is computed over the
    flattened element dimension with the n-1 divisor.
    """
    if len(batch) == 0:
        raise ValueError("sample_stats needs a nonempty batch")
    first = np.asarray(batch[0], dtype=np.float64)
    rows = []
    for item in batch:
        arr = np.asarray(item, dtype=np.float64)
        require_same_shape(arr, first, "batch elements")
        rows.append(arr.ravel())
    n = len(rows)
    if n < 2:
        raise ValueError("covariance is undefined for a single-element batch")
    stacked = np.stack(rows)
    mean = stacked.mean(axis=0)
    centered = stacked - mean
    cov = centered.T @ centered / (n - 1)
    require_finite(mean, "sample mean")
    require_finite(cov, "sample covariance")
    return mean.reshape(first.shape), cov


def cross_attention(queries: np.ndarray, memory: ConditionTokens,
                    params: ToyDenoiserParams) -> np.ndarray:
    """Attend a sequence of query tokens (m, W) over condition memory (n, dc)
    with the attention weights wq, wk, wv and wo of ``params`` (or of any
    object holding those four)."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("queries must be a (m, width) token sequence")
    k, v = _project(check_condition_tokens(memory), params)
    return _attend(queries, k, v, params)[0]


def label_memory(embedding: LabelEmbedding, labels) -> np.ndarray:
    """Per-row one-token memory (batch, 1, cond_width) of a vector of
    labels: the general per-row form that training's label form, the token
    table plus the labels, must match bit for bit."""
    return embedding.tokens[np.asarray(labels, dtype=np.int64)][:, None, :]


def bm25_norms(docs, k1: float = 1.2, b: float = 0.75) -> list[float]:
    """Each document's BM25 length norm ``k1 * (1 - b + b * dl / avgdl)``,
    with ``dl`` its ``tokenize`` count and ``avgdl`` their mean; every norm
    is ``k1 * (1 - b)`` when no document has a token."""
    lengths = [len(tokenize(doc.text())) for doc in docs]
    avgdl = sum(lengths) / len(lengths) if lengths else 0.0
    if not avgdl:
        return [k1 * (1.0 - b)] * len(lengths)
    return [k1 * (1.0 - b + b * dl / avgdl) for dl in lengths]


def hash_embedding(tokens: list[str], width: int) -> np.ndarray:
    """The signed-hash vector of a token list: from 0.0, each token adds
    +1.0 or -1.0 at one slot, both read from its blake2b digest, hashing
    every occurrence again."""
    vec = np.zeros(width)
    for token in tokens:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        idx = int.from_bytes(digest[:4], "little") % width
        vec[idx] += 1.0 if digest[4] & 1 else -1.0
    return vec


def gazetteer_match_count(phrases, tokens: list[str]) -> int:
    """Non-overlapping matches of the token tuples ``phrases`` in ``tokens``,
    longest match first: every position tries every length up to the
    longest phrase."""
    max_len = max((len(p) for p in phrases), default=0)
    count = 0
    i = 0
    n = len(tokens)
    while i < n:
        hit = 0
        for length in range(min(max_len, n - i), 0, -1):
            if tuple(tokens[i:i + length]) in phrases:
                hit = length
                break
        if hit:
            count += 1
            i += hit
        else:
            i += 1
    return count


_YEAR_RE = re.compile(r"\b[12][0-9]{3}\b")
_CLOCK_RE = re.compile(r"\b\d{1,2}:\d{2}\b")
_ORDINAL_DAY_RE = re.compile(r"\b\d{1,2}(?:st|nd|rd|th)\b", re.IGNORECASE)
_MONTH_RE = re.compile(r"\b(?:january|february|march|april|may|june|july|august|september"
                       r"|october|november|december)\b", re.IGNORECASE)


def temporal_count(text: str) -> int:
    """Temporal entities in ``text``: matches of the year (1000-2999),
    clock-time, month-name and ordinal-day patterns, each scanned over the
    whole text."""
    return (len(_YEAR_RE.findall(text)) + len(_CLOCK_RE.findall(text))
            + len(_MONTH_RE.findall(text)) + len(_ORDINAL_DAY_RE.findall(text)))


def samples_csv_text(samples: np.ndarray) -> str:
    """``samples.csv`` as the CLI writes it: one line per sample, each value
    the repr of its Python float, joined by commas."""
    flat = np.asarray(samples).reshape(len(samples), -1)
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in flat)
