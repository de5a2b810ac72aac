"""The four benchmark workloads and the recorder that times and checks their
operations.

A workload is set up, then runs identical rounds of operations. Each
operation is timed on its own; its output is checked against the reference
computations afterwards, outside the timed region. Every workload times
three kinds of operation, reported as op1_ms, op2_ms and op3_ms.

Just before and just after each set-up and each operation, ``timed``
times a fixed piece of benchmark-owned work like the workload's own
(``calibrate``). The machine's speed drifts by up to 2x within seconds,
and the calibration time drifts with it, so the reported times are scaled
by the reference calibration time over the calibration time around the
operation.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import reference as ref
from reference import CheckFailed, expect

from artdiff import cli, promptx
from artdiff.denoisers import ToyDenoiser, load_denoiser

TRAIN_STEPS = 250       # per timed toy-train call
CKPT_STEPS = 1000       # for the sampling workloads' checkpoint
SAMPLE_STEPS = 200
GUIDANCE = 5.0
ETA = 1.0
CHECK_ROWS = 8
TOPK = 10
LAMBDA1, LAMBDA2 = 1.0, 0.1
# Median time of each calibration piece on the reference machine (2 vCPU,
# numpy 2.4.6, Python 3.11) in a quiet period; scaled times are in that
# machine's units.
REFERENCE_CAL_S = {"python": 0.0007, "array": 0.0016, "text": 0.0012}

_CAL_W = np.random.default_rng(0).normal(size=(16, 16))
_CAL_X = np.random.default_rng(1).normal(size=(2000, 16))
_CAL_TEXT = " ".join(f"w{i % 97}x{i % 13} y{i % 31}" for i in range(1200))


def _calibration_piece(kind: str) -> None:
    if kind == "python":
        x, total = np.ones((1, 16)), 0.0
        for i in range(150):
            x = np.tanh(x @ _CAL_W) * 0.5 + math.sqrt(i + 1.0) * 1e-3
            total += float(x.sum())
    elif kind == "array":
        rng = np.random.default_rng(0)
        for _ in range(2):
            h = np.tanh(_CAL_X @ _CAL_W) + rng.standard_normal((2000, 16))
            (h @ _CAL_W.T).sum()
    else:
        counts: dict[str, int] = {}
        for tok in re.findall(r"[a-z0-9]+", _CAL_TEXT):
            counts[tok] = counts.get(tok, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def calibrate(kind: str) -> float:
    """Median time of three runs of a fixed piece of work like the
    workload's own: ``python`` is a loop of tiny numpy calls, ``array``
    (2000, 16) matrix kernels with normal draws, ``text`` regex tokenizing
    with dict counting."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_piece(kind)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(call, kind: str) -> tuple[object, float, float]:
    """(result, wall seconds, seconds scaled to the reference machine speed).

    The scale is the reference calibration time over the mean of the
    calibration times just before and just after the call.
    """
    before = calibrate(kind)
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    after = calibrate(kind)
    return result, elapsed, elapsed * REFERENCE_CAL_S[kind] * 2.0 / (before + after)


class OpFailed(Exception):
    """The program exited non-zero or raised."""


class Recorder:
    """Counts, times and checks the operations of one run."""

    def __init__(self, calibration: str, pause=None):
        self.calibration = calibration
        self.pause = pause      # a tracer to switch off while checking
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds: list[dict[str, list[tuple[float, float]]]] = []
        self._round: dict[str, list[tuple[float, float]]] = {}

    def begin_round(self) -> None:
        self._round = defaultdict(list)

    def end_round(self) -> dict[str, list[tuple[float, float]]]:
        self.rounds.append(self._round)
        return self._round

    def op(self, kind: str, call, check, known_fault: str | None = None) -> None:
        """Time ``call()``, then run ``check(result)`` untimed.

        A failure of an operation named as a known program fault counts in
        ``failed`` only; any other failure also makes the run incorrect.
        """
        self.attempted += 1
        try:
            result, elapsed, scaled = timed(call, self.calibration)
            self._round[kind].append((elapsed, scaled))
            self._check(check, result)
        except (OpFailed, CheckFailed) as exc:
            self.failed += 1
            if known_fault is None:
                self.correct = False
                print(f"FAILED {kind}: {exc}", file=sys.stderr)

    def _check(self, check, result) -> None:
        was_on = self.pause is not None and self.pause.on
        if was_on:
            self.pause.on = False
        try:
            check(result)
        finally:
            if was_on:
                self.pause.on = True

    def median_of_round_means(self, kind: str, scaled: bool = False) -> float:
        """Median over rounds of the mean time of one ``kind`` operation."""
        return statistics.median(statistics.fmean(t[scaled] for t in r[kind])
                                 for r in self.rounds if r[kind])

    def all_samples(self, kind: str) -> list[float]:
        """Every wall time of a ``kind`` operation."""
        return [t[0] for r in self.rounds for t in r[kind]]


def run_cli(argv: list[str]) -> None:
    """One in-process CLI call, as a user would type it."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:       # argparse rejected the argv
        code = exc.code
    if code != 0:
        raise OpFailed(f"exit {code}: artdiff {' '.join(argv)}")


def train_argv(out: Path, seed: int, steps: int, variant: str) -> list[str]:
    argv = ["toy-train", "--dataset", "8-gaussian-ring", "--batch", "64",
            "--steps", str(steps), "--seed", str(seed), "--out", str(out)]
    if variant != "uncond":
        argv += ["--conditional", "--drop_prob", "0.1"]
    if variant == "sgd":
        argv += ["--optimizer", "sgd"]
    return argv


class Workload:
    name = ""
    kinds: tuple[str, str, str] = ("", "", "")
    calibration = "python"      # the calibrate() piece most like the operations
    setup_calibration = "python"    # ... and most like the set-up

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks made once, after the timed rounds."""

    def figures(self, rec: Recorder) -> list[tuple[str, float, str]]:
        """The workload's figures under their descriptive names."""
        return []


# ---------------------------------------------------------------------------
# train-cond
# ---------------------------------------------------------------------------

class TrainCond(Workload):
    """Conditional toy training (Adam), with an unconditional call that skips
    attention and an SGD call that skips the Adam update."""

    name = "train-cond"
    kinds = ("cond-adam", "uncond-adam", "cond-sgd")

    VARIANTS = ("cond", "uncond", "sgd")

    def setup(self) -> None:
        """Nothing to generate: a short warm-up call of each variant."""
        self.rng = np.random.default_rng([self.seed, 2])    # check inputs
        for variant in self.VARIANTS:
            run_cli(train_argv(self.work / "warm", self.seed, 100, variant))

    def round(self, rec: Recorder) -> None:
        for kind, variant in zip(self.kinds, self.VARIANTS):
            out = self.work / kind
            rec.op(kind, lambda: run_cli(train_argv(out, self.seed, TRAIN_STEPS, variant)),
                   lambda _: self._check(out, variant != "uncond"))

    def _check(self, out: Path, conditional: bool) -> None:
        losses = np.loadtxt(out / "loss.csv", delimiter=",", skiprows=1)[:, 1]
        tenth = len(losses) // 10
        first, last = losses[:tenth].mean(), losses[-tenth:].mean()
        expect(last < 0.7 * first, f"loss fell only from {first:.4f} to {last:.4f}")
        arrays = ref.read_checkpoint(out / "checkpoint.bin")
        expect(all(np.all(np.isfinite(v)) for v in arrays.values()), "non-finite weights")
        model_ref = ref.ToyReference(arrays)
        params, _, embedding = load_denoiser(out / "checkpoint.bin")
        model = ToyDenoiser(params)
        x = self.rng.normal(size=(16, 2)) * 2.0
        for t in (1, 250, 1000):
            ref.expect_close(model.predict(x, t), model_ref.eps(x, t), 1e-12,
                             f"unguided eps at t={t}")
            if conditional:
                label = int(self.rng.integers(0, 8))
                ref.expect_close(model.predict(x, t, embedding.condition(label)),
                                 model_ref.eps(x, t, label), 1e-12, f"conditional eps at t={t}")

    def figures(self, rec):
        return [("train_steps_per_s", TRAIN_STEPS / rec.median_of_round_means(self.kinds[0]),
                 "steps/s")]


# ---------------------------------------------------------------------------
# sample-batch and sample-small
# ---------------------------------------------------------------------------

class _Sampling(Workload):
    """Shared set-up: a conditional checkpoint trained through toy-train."""

    def setup(self) -> None:
        self.ckpt = self.work / "ckpt"
        run_cli(train_argv(self.ckpt, self.seed, CKPT_STEPS, "cond"))
        self.model = ref.ToyReference(ref.read_checkpoint(self.ckpt / "checkpoint.bin"))
        self.expected: dict[tuple, np.ndarray] = {}

    def sample_argv(self, out: Path, sampler: str, batch: int, seed: int, label) -> list[str]:
        argv = ["sample", "--checkpoint", str(self.ckpt / "checkpoint.bin"),
                "--sampler", sampler, "--ddim_eta", str(ETA), "--ddim_steps", str(SAMPLE_STEPS),
                "--scale", str(GUIDANCE), "--batch", str(batch), "--seed", str(seed),
                "--out", str(out)]
        return argv + (["--label", str(label)] if label is not None else [])

    def check_rows(self, out: Path, sampler: str, batch: int, seed: int, label,
                   rows: np.ndarray) -> None:
        """Compare the chosen rows of samples.csv with the reference recurrence."""
        points = ref.read_samples(out / "samples.csv")
        expect(points.shape == (batch, 2), f"samples.csv has shape {points.shape}")
        expect(bool(np.all(np.isfinite(points))), "non-finite samples")
        key = (sampler, batch, seed, label)
        if key not in self.expected:
            self.expected[key] = ref.sample_rows(
                lambda x, t: self.model.guided(x, t, label, GUIDANCE), self.model.abar,
                sampler, seed, batch, rows, SAMPLE_STEPS, ETA)
        ref.expect_close(points[rows], self.expected[key], 1e-10,
                         f"{sampler} rows of seed {seed} label {label}")


class SampleBatch(_Sampling):
    """B=2000 toy sampling, guided and unguided, and B=20000 oracle sampling."""

    name = "sample-batch"
    kinds = ("guided", "unguided", "oracle")
    calibration = "array"
    BATCH = 2000
    ORACLE_BATCH = 20000

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng([self.seed, 1])
        self.label = self.seed % 8
        self.mu0 = np.round(rng.uniform(-3.0, 3.0, 2), 3)
        self.var0 = round(float(rng.uniform(0.1, 0.4)), 3)
        picks = rng.choice(self.BATCH, CHECK_ROWS - 2, replace=False)
        self.rows = np.unique(np.concatenate([[0, self.BATCH - 1], picks]))

    def round(self, rec: Recorder) -> None:
        seed = self.seed + 1
        # The unguided calls are a third as long as the guided ones, so they
        # run twice per round to give as steady a median.
        for kind, label in (("guided", self.label), ("unguided", None), ("unguided", None)):
            for sampler in ("ddim", "plms"):
                out = self.work / f"{kind}-{sampler}"
                argv = self.sample_argv(out, sampler, self.BATCH, seed, label)
                rec.op(kind, lambda: run_cli(argv),
                       lambda _: self.check_rows(out, sampler, self.BATCH, seed, label, self.rows))
        mu0 = ",".join(str(v) for v in self.mu0)
        for sampler, steps in (("ddim", SAMPLE_STEPS), ("ddpm", 1000)):
            out = self.work / f"oracle-{sampler}"
            argv = ["sample", "--oracle", f"--mu0={mu0}", "--var0", str(self.var0),
                    "--sampler", sampler, "--ddim_eta", "1.0", "--ddim_steps", str(steps),
                    "--batch", str(self.ORACLE_BATCH), "--seed", str(seed + 1),
                    "--out", str(out)]
            rec.op("oracle", lambda: run_cli(argv),
                   lambda _: ref.check_oracle_moments(ref.read_samples(out / "samples.csv"),
                                                      self.mu0, self.var0, f"oracle {sampler}"))

    def figures(self, rec):
        guided, unguided, oracle = (rec.median_of_round_means(k) for k in self.kinds)
        return [("sample_points_per_s", self.BATCH / guided, "points/s"),
                ("sample_uncond_points_per_s", self.BATCH / unguided, "points/s"),
                ("oracle_points_per_s", self.ORACLE_BATCH / oracle, "points/s")]


class SampleSmall(_Sampling):
    """Single-sample guided requests over labels, samplers and seeds, plus
    the oracle sampler comparison."""

    name = "sample-small"
    kinds = ("b1-ddim", "compare", "b1-plms")
    ROW = np.array([0])

    def round(self, rec: Recorder) -> None:
        for j in range(16):
            sampler, label, seed = ("ddim", "plms")[j // 8], j % 8, 1000 * self.seed + j
            out = self.work / "b1"
            argv = self.sample_argv(out, sampler, 1, seed, label)
            rec.op(f"b1-{sampler}", lambda: run_cli(argv),
                   lambda _: self.check_rows(out, sampler, 1, seed, label, self.ROW))
        out = self.work / "compare"
        rec.op("compare", lambda: run_cli(["compare-samplers", "--batch", "256",
                                           "--seed", str(self.seed), "--out", str(out)]),
               lambda _: ref.check_compare_report(out / "report.csv"))

    def figures(self, rec):
        b1 = rec.all_samples("b1-ddim") + rec.all_samples("b1-plms")
        return [("sample_b1_ms", 1e3 * statistics.median(b1), "ms"),
                ("compare_samplers_s", rec.median_of_round_means("compare"), "s")]


# ---------------------------------------------------------------------------
# prompt-20k
# ---------------------------------------------------------------------------

class Prompt20k(Workload):
    """prompt-extend CLI calls on a 20k-document corpus, and a stream of
    extend_prompt queries with rare and common terms against one index."""

    name = "prompt-20k"
    kinds = ("cli", "rare", "common")
    calibration = setup_calibration = "text"
    BRUTE_QUERIES = 3   # per query class

    def setup(self) -> None:
        self.index = self.model = None   # release the previous set-up first
        self.dir = self.work / "inputs"
        made = inputs.write_prompt_inputs(self.seed, self.dir)
        self.common, self.rare, self.table = made["common"], made["rare"], made["artworks"]
        docs = promptx.load_corpus_jsonl(self.dir / "corpus.jsonl")
        self.index = promptx.build_index(docs)
        self.model = promptx.tfidf_fit(docs)
        self.gazetteer = promptx.Gazetteer.from_file(self.dir / "gazetteer.txt")
        self.generator = promptx.FixtureGenerator.from_file(self.dir / "fixtures.jsonl")
        self.embedder = promptx.HashEmbedder()

    def _query(self, q: str):
        return promptx.extend_prompt(q, self.index, self.model, self.embedder, self.generator,
                                     LAMBDA1, LAMBDA2, TOPK, self.gazetteer)

    def _check_query(self, cands) -> None:
        ref.check_candidates([vars(c) for c in cands], TOPK, LAMBDA1, LAMBDA2)

    def round(self, rec: Recorder) -> None:
        out = self.work / "px"
        argv = ["prompt-extend", self.common[0], "--corpus", str(self.dir / "corpus.jsonl"),
                "--gazetteer", str(self.dir / "gazetteer.txt"),
                "--fixtures", str(self.dir / "fixtures.jsonl"), "--lambda1", str(LAMBDA1),
                "--lambda2", str(LAMBDA2), "--topk", str(TOPK), "--out", str(out)]
        rec.op("cli", lambda: run_cli(argv),
               lambda _: ref.check_candidates(ref.read_jsonl(out / "candidates.jsonl"),
                                              TOPK, LAMBDA1, LAMBDA2))
        for common, rare in zip(self.common, self.rare):
            rec.op("common", lambda: self._query(common), self._check_query)
            rec.op("rare", lambda: self._query(rare), self._check_query)
        stats = self.work / "stats"
        rec.op("stats", lambda: run_cli(["corpus-stats", "--metadata",
                                         str(self.dir / "artworks.csv"), "--out", str(stats)]),
               lambda _: ref.check_artist_histogram(stats / "artist_histogram.csv", self.table),
               known_fault="artist_histogram.csv writes 'Surname, Given' unquoted")

    def finish(self, rec: Recorder) -> None:
        sample = self.common[:self.BRUTE_QUERIES] + self.rare[:self.BRUTE_QUERIES]
        rows = ref.read_jsonl(self.dir / "corpus.jsonl")
        brute = ref.BruteBm25(rows, {t for q in sample for t in ref.tokens(q)})
        for q in sample:
            try:
                ref.check_bm25(promptx.bm25_search(self.index, q, TOPK), brute.top(q, TOPK), q)
            except CheckFailed as exc:
                rec.correct = False
                print(f"FAILED bm25: {exc}", file=sys.stderr)

    def figures(self, rec):
        queries = sorted(rec.all_samples("common") + rec.all_samples("rare"))
        return [("px_cli_s", rec.median_of_round_means("cli"), "s"),
                ("px_query_ms", 1e3 * statistics.median(queries), "ms"),
                ("px_query_p95_ms", 1e3 * statistics.quantiles(queries, n=20)[-1], "ms")]


WORKLOADS = {w.name: w for w in (TrainCond, SampleBatch, SampleSmall, Prompt20k)}
