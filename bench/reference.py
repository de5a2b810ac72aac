"""Computations made independently of the program, used to check its outputs.

Nothing here imports artdiff. Each function is written from the program's
documented contracts: the checkpoint container layout, the toy denoiser's
architecture, the linear schedule, the DDIM/PLMS transfer rules, the
documented RngStream construction, Okapi BM25 and the candidate score.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(actual, wanted, rtol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    wanted = np.asarray(wanted, dtype=np.float64)
    expect(actual.shape == wanted.shape, f"{what}: shape {actual.shape} != {wanted.shape}")
    err = float(np.max(np.abs(actual - wanted) / (np.abs(wanted) + 1.0)))
    expect(err <= rtol, f"{what}: relative error {err:.3e} > {rtol:.0e}")


# ---------------------------------------------------------------------------
# Checkpoints and the toy denoiser
# ---------------------------------------------------------------------------

def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse the versioned array container: magic, u32 version, u32 count,
    a (name, ndim, extents) table, float64 payload, 8-byte SHA-256 prefix."""
    blob = Path(path).read_bytes()
    body, checksum = blob[:-8], blob[-8:]
    expect(hashlib.sha256(body).digest()[:8] == checksum, f"{path}: bad checksum")
    version, count = struct.unpack_from("<II", body, 8)
    expect(version == 1, f"{path}: version {version}")
    offset, table = 16, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", body, offset)
        name = body[offset + 2:offset + 2 + n].decode()
        offset += 2 + n
        ndim = body[offset]
        shape = struct.unpack_from(f"<{ndim}Q", body, offset + 1)
        offset += 1 + 8 * ndim
        table.append((name, shape))
    arrays = {}
    for name, shape in table:
        size = math.prod(shape)
        arrays[name] = np.frombuffer(body, "<f8", size, offset).reshape(shape)
        offset += 8 * size
    expect(offset == len(body), f"{path}: payload length mismatch")
    return arrays


def time_features(t: float, dim: int) -> np.ndarray:
    """Interleaved (sin, cos) of t times frequencies spaced geometrically from 1 to 1e-4."""
    half = dim // 2
    freqs = 10.0 ** (-4.0 * np.arange(half) / (half - 1))
    out = np.empty(dim)
    out[0::2] = np.sin(t * freqs)
    out[1::2] = np.cos(t * freqs)
    return out


class ToyReference:
    """Forward pass of the toy denoiser from its checkpoint arrays: input
    projection plus time features, residual tanh stage, residual single-head
    cross-attention over the condition tokens (skipped unconditioned),
    second residual tanh stage, output projection."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.a = arrays
        self.time_dim = int(arrays["meta"][2])
        self.tokens = arrays.get("label_tokens")
        T, beta_start, beta_end = arrays["schedule"]
        self.abar = np.cumprod(1.0 - np.linspace(beta_start, beta_end, int(T)))

    def eps(self, x: np.ndarray, t: int, label=None) -> np.ndarray:
        a = self.a
        h = x @ a["w_in"].T + a["b_in"] + time_features(t, self.time_dim) @ a["w_time"].T
        h = h + np.tanh(h @ a["ff1_w1"].T + a["ff1_b1"]) @ a["ff1_w2"].T + a["ff1_b2"]
        if label is not None:
            memory = self.tokens[label][None, :]
            scores = (h @ a["wq"].T) @ (memory @ a["wk"].T).T / math.sqrt(a["wq"].shape[0])
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            h = h + (weights @ (memory @ a["wv"].T)) @ a["wo"].T
        h = h + np.tanh(h @ a["ff2_w1"].T + a["ff2_b1"]) @ a["ff2_w2"].T + a["ff2_b2"]
        return h @ a["w_out"].T + a["b_out"]

    def guided(self, x, t, label, scale):
        """Classifier-free guidance: eps_u + scale (eps_c - eps_u); unguided without a label."""
        uncond = self.eps(x, t)
        if label is None:
            return uncond
        return uncond + scale * (self.eps(x, t, label) - uncond)


# ---------------------------------------------------------------------------
# Sampling recurrences
# ---------------------------------------------------------------------------

def rng_stream(seed: int) -> np.random.Generator:
    """The documented RngStream(seed) root stream: Philox-4x64 keyed by the
    first 16 bytes (little-endian) of SHA-256(b"artdiff.rng\\0" + seed as u64 LE)."""
    material = b"artdiff.rng\x00" + int(seed).to_bytes(8, "little")
    key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def timeline(T: int, steps: int) -> list[tuple[int, int]]:
    """Transfer pairs of the uniformly strided timeline, ending at t = 0."""
    stride = T // steps
    ts = [T - i * stride for i in range(steps)]
    return list(zip(ts, ts[1:] + [0]))


def sample_rows(eps_fn, abar: np.ndarray, kind: str, seed: int, batch: int,
                rows: np.ndarray, steps: int, eta: float) -> np.ndarray:
    """Endpoints of the given rows of a (batch, 2) sampling run.

    x_T is the first draw of the seed's stream. ddim draws one (batch, 2)
    block per transfer with sigma > 0; plms is the improved-Euler warmup
    then Adams-Bashforth 2/3/4 over deterministic transfers, so each row
    depends only on its own x_T.
    """
    def ab(t):
        return 1.0 if t == 0 else abar[t - 1]

    def transfer(x, e, tc, tn, sigma):
        ac, an = ab(tc), ab(tn)
        x0 = (x - math.sqrt(1.0 - ac) * e) / math.sqrt(ac)
        return math.sqrt(an) * x0 + math.sqrt(max(1.0 - an - sigma * sigma, 0.0)) * e

    gen = rng_stream(seed)
    x = gen.standard_normal((batch, 2))[rows]
    history: list[np.ndarray] = []
    for tc, tn in timeline(len(abar), steps):
        e = eps_fn(x, tc)
        if kind == "plms":
            if not history:
                e_mix = 0.5 * (e + eps_fn(transfer(x, e, tc, tn, 0.0), tn)) if tn >= 1 else e
            elif len(history) == 1:
                e_mix = (3.0 * e - history[0]) / 2.0
            elif len(history) == 2:
                e_mix = (23.0 * e - 16.0 * history[0] + 5.0 * history[1]) / 12.0
            else:
                e_mix = (55.0 * e - 59.0 * history[0] + 37.0 * history[1]
                         - 9.0 * history[2]) / 24.0
            x = transfer(x, e_mix, tc, tn, 0.0)
            history = [e] + history[:2]
        else:
            ac, an = ab(tc), ab(tn)
            sigma = eta * math.sqrt((1.0 - an) / (1.0 - ac)) * math.sqrt(1.0 - ac / an)
            x = transfer(x, e, tc, tn, sigma)
            if sigma > 0.0:
                x = x + sigma * gen.standard_normal((batch, 2))[rows]
    return x


def read_samples(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_oracle_moments(points: np.ndarray, mu0, var0: float, what: str) -> None:
    """Endpoint mean within 0.05 of mu0 and covariance within 0.05 of var0 I."""
    mean = points.mean(axis=0)
    cov = np.cov(points, rowvar=False)
    expect(np.all(np.abs(mean - mu0) < 0.05), f"{what}: mean {mean} vs {mu0}")
    expect(np.all(np.abs(cov - var0 * np.eye(2)) < 0.05), f"{what}: covariance {cov.ravel()}")


def check_compare_report(path) -> None:
    """The reported orders are the least-squares slopes of log error against
    log step count over 10..80 steps, with plms >= 1.8 and ddim in [0.8, 1.3]."""
    errors: dict[str, dict[int, float]] = {"ddim": {}, "plms": {}}
    orders = {}
    with open(path, newline="") as fh:
        for kind, steps, value in list(csv.reader(fh))[1:]:
            if steps == "order":
                orders[kind] = float(value)
            else:
                errors[kind][int(steps)] = float(value)
    counts = (10, 20, 40, 80)
    lx = np.log(counts)
    for kind, errs in errors.items():
        ly = np.log([errs[k] for k in counts])
        slope = ((lx - lx.mean()) @ (ly - ly.mean())) / ((lx - lx.mean()) @ (lx - lx.mean()))
        expect(abs(-slope - orders[kind]) < 1e-9, f"{kind} order {orders[kind]} != {-slope}")
    expect(orders["plms"] >= 1.8, f"plms order {orders['plms']:.3f} < 1.8")
    expect(0.8 <= orders["ddim"] <= 1.3, f"ddim order {orders['ddim']:.3f} outside [0.8, 1.3]")


# ---------------------------------------------------------------------------
# Retrieval and candidate ranking
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


class BruteBm25:
    """Okapi BM25 (k1 = 1.2, b = 0.75) recounted from the raw corpus rows
    for a fixed set of query terms, scoring every document."""

    def __init__(self, rows: list[dict], terms: set[str], k1=1.2, b=0.75):
        self.ids = [r["id"] for r in rows]
        self.k1, self.b = k1, b
        self.terms = sorted(terms)
        col = {t: i for i, t in enumerate(self.terms)}
        self.tf = np.zeros((len(rows), len(self.terms)))
        self.dl = np.zeros(len(rows))
        for i, r in enumerate(rows):
            text = f"{r['title']} {r['body']}" if r["body"] else r["title"]
            toks = tokens(text)
            self.dl[i] = len(toks)
            for tok in toks:
                j = col.get(tok)
                if j is not None:
                    self.tf[i, j] += 1
        self.col = col
        self.avgdl = int(self.dl.sum()) / len(rows)
        self.df = (self.tf > 0).sum(axis=0)

    def top(self, query: str, k: int) -> list[tuple[str, float]]:
        n = len(self.ids)
        norm = self.k1 * (1.0 - self.b + self.b * self.dl / self.avgdl)
        scores = np.zeros(n)
        for term in tokens(query):
            j = self.col[term]
            df = int(self.df[j])
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = self.tf[:, j]
            scores = scores + np.where(tf > 0, idf * (tf * (self.k1 + 1.0)) / (tf + norm), 0.0)
        order = sorted(range(n), key=lambda i: (-scores[i], self.ids[i]))[:k]
        return [(self.ids[i], float(scores[i])) for i in order]


def check_bm25(program_hits, expected, query: str) -> None:
    got = [(doc.id, score) for doc, score in program_hits]
    expect([i for i, _ in got] == [i for i, _ in expected],
           f"bm25 top ids for {query!r}: {got} != {expected}")
    expect_close([s for _, s in got], [s for _, s in expected], 1e-12, f"bm25 scores for {query!r}")


def check_candidates(cands: list[dict], k: int, lambda1: float, lambda2: float) -> None:
    """At most k candidates in (-score, text) order, each scored as
    tfidf + lambda1 cos + lambda2 (spatial + temporal)."""
    expect(1 <= len(cands) <= k, f"{len(cands)} candidates for top {k}")
    keys = [(-c["score"], c["text"]) for c in cands]
    expect(keys == sorted(keys), "candidates out of (-score, text) order")
    for c in cands:
        want = c["tfidf"] + lambda1 * c["cos"] + lambda2 * (c["spatial_entities"]
                                                           + c["temporal_entities"])
        expect(abs(c["score"] - want) <= 1e-12 * (1.0 + abs(want)),
               f"score {c['score']} != {want} for {c['text']!r}")


def check_artist_histogram(path, table: list[list[str]]) -> None:
    """Every row has two fields and the counts equal an exact recount."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    bad = [r for r in rows if len(r) != 2]
    expect(not bad, f"{len(bad)} of {len(rows)} histogram rows do not have two fields, "
                    f"e.g. {bad[:1]}")
    want = Counter(r[1] for r in table)
    expect({a: int(c) for a, c in rows} == dict(want), "artist counts differ from a recount")
