"""Command-line surface: schedule dumps, toy training, sampling, sampler
comparison, prompt extension, and corpus statistics.

Every run resolves its configuration from flags, then an optional
key=value config file (flags win); ``Resolver.peek`` alone reads either's
text, checks it and refuses a bad one with one line and exit 2. It emits
line-oriented text artifacts so runs can be compared byte-for-byte, writes
a manifest.json capturing the resolved values, the numpy and Python
versions and the sha256 of the bytes written to each output file, and
prints one summary line. The ARTDIFF_OUT environment variable overrides
the default output directory when --out is not given.

Outputs are rewritten in place and cut to their new length, so a rerun
into the same directory leaves no stale bytes. A write that fails
part-way leaves that file's new bytes over its old ones; nothing is
fsynced, so no output is durable.

Exit codes: 0 success, 1 runtime failure (including an output file that
cannot be written), 2 usage or configuration error (including an input
file that does not exist).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from .checkpoint import write_file
from .datasets import DATASETS
from .denoisers import (OPTIMIZERS, GaussianOracle, LabelEmbedding, ToyDenoiser,
                        TrainConfig, denoiser_bytes, init_toy_denoiser, load_denoiser, train)
from .errors import ConfigError, TrainingDivergedError
from .numerics import RngStream
from .promptx import (DEFAULT_LAMBDA1, DEFAULT_LAMBDA2, FixtureGenerator,
                      Gazetteer, HashEmbedder, artist_histogram, build_index,
                      _read_utf8, extend_prompt, load_corpus_jsonl,
                      read_artwork_table, tfidf_from_index, top_share)
from .samplers import (DEFAULT_ETA, DEFAULT_GUIDANCE_SCALE, DEFAULT_STEPS, SAMPLER_KINDS,
                       SamplingPlan, sample)
from .schedule import (DEFAULT_BETA_END, DEFAULT_BETA_START, DEFAULT_T,
                       linear_schedule, subsequence)

ENV_OUT = "ARTDIFF_OUT"
COMPARISON_T = 2000
COMPARE_STEP_COUNTS = (10, 20, 40, 80, 200)
ORDER_FIT_COUNTS = (10, 20, 40, 80)
DENSITY_BINS = 96
CONFIG_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _fmt(x: float) -> str:
    return repr(float(x))


class Resolver:
    """Flag > config file > default resolution for one command invocation;
    the kind and default of each key come from the command's ``COMMANDS``
    entry, and its range from ``RANGES`` or its text's rules from ``TEXT_RULES``.

    Every flag given is read first, so a bad one is refused where the command
    does not use it. A config line is ``key=value``: the key is stripped of
    all whitespace and the value only of spaces, so a tab value stays a tab."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.flags = COMMANDS[args.command][2]
        self.file_values: dict[str, str] = {}
        for name in self.flags:
            if name.startswith("--") and getattr(args, name[2:]) is not None:
                self.peek(name[2:])
        if args.config is not None:
            path = _require_file(args.config, "config")
            known = _config_keys()
            first_line: dict[str, int] = {}
            for lineno, line in enumerate(_read_utf8(path).splitlines(), 1):
                if line.strip()[:1] in ("", "#"):   # blank or a comment
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is already set "
                                      f"on line {first_line[key]}")
                first_line[key] = lineno
                self.file_values[key] = value.strip(" ")
        self.resolved: dict = {}
        out = self.get("out")
        if out is None:
            out = os.environ.get(ENV_OUT) or "artdiff-out"
        if out == "":   # Path("") is ".", the working directory
            raise ConfigError("--out must not be empty")
        self.resolved["out"] = str(out)
        self.out = Path(out)   # main creates it after the command returns

    def get(self, key: str):
        """The key's value from its flag, the config file or its default;
        recorded in the manifest's config."""
        self.resolved[key] = value = self.peek(key)
        return value

    def peek(self, key: str):
        """The value ``get`` gives, left out of the manifest: the flag's text,
        or else the config line's, read as its kind and checked."""
        kind, default, _ = self.flags["--" + key]
        value, where = getattr(self.args, key), f"--{key}"
        if value is None:   # a default is checked too: a missing --dataset is no choice
            value, where = self.file_values.get(key, default), f"config value {key}"
        if kind in (bool, int, float) and isinstance(value, str):   # a given switch is True
            try:
                value = CONFIG_BOOLEANS[value.lower()] if kind is bool else kind(value)
            except (KeyError, ValueError):
                what = "boolean (1/true/yes or 0/false/no)" if kind is bool else kind.__name__
                raise ConfigError(f"{where}={value!r} is not a valid {what}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"unknown {key} {value!r}; available: {', '.join(kind)}")
        low, high = RANGES.get(key, (None, None))
        if low is not None and not low <= value < (high or math.inf):   # nan and inf too
            rule = (f"a finite number >= {low}" if kind is float else f">= {low}" if high is None
                    else f"an integer in [{low}, 2**{high.bit_length() - 1})")
            raise ConfigError(f"--{key} must be {rule}, got {value}")
        for test, rule in TEXT_RULES.get(key, ()):
            try:
                ok = test(value)
            except ValueError:
                ok = False
            if not ok:
                raise ConfigError(f"--{key} {rule}, got {value!r}")
        return value


def _write_manifest(resolver: Resolver, written: dict[str, bytes], extra: dict) -> bytes:
    """manifest.json in ``resolver.out``, written by ``main`` after the
    command's files: the command, its resolved config, the numpy and Python
    versions (the bytes are reproducible at a fixed numpy version), the
    sha256 of the bytes written to each output file (``written`` maps its
    name to them), and ``extra``."""
    manifest = {"command": resolver.args.command, "config": resolver.resolved,
                "versions": {"numpy": np.__version__, "python": platform.python_version()},
                "outputs": {name: hashlib.sha256(data).hexdigest()
                            for name, data in written.items()}, **extra}
    return write_file(resolver.out / "manifest.json",
                      (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"missing required {what} path")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def _vector(text: str) -> np.ndarray:
    """The comma-separated numbers of a --mu0 text; ``TEXT_RULES`` checks them."""
    return np.array([float(part) for part in text.split(",")])


def _schedule_manifest(schedule) -> dict:
    """The manifest entry of the schedule that ran, as a checkpoint records it."""
    return {"schedule": {"T": schedule.T, "beta_start": float(schedule.betas[0]),
                         "beta_end": float(schedule.betas[-1])}}


def _schedule_from(resolver: Resolver, T: int | None = None):
    """The linear schedule of the resolved --timesteps (or a fixed T) and
    betas; a bad value raises ``ConfigError``."""
    if T is None:
        T = resolver.get("timesteps")
    return linear_schedule(T, resolver.get("beta_start"), resolver.get("beta_end"))


# ---------------------------------------------------------------------------
# schedule-dump
# ---------------------------------------------------------------------------

def cmd_schedule_dump(resolver: Resolver) -> tuple[list[tuple], dict, str]:
    schedule = _schedule_from(resolver)
    lines = ["t,beta,alpha,alpha_bar,posterior_var"]
    for t in range(1, schedule.T + 1):
        lines.append(",".join([str(t), _fmt(schedule.beta(t)), _fmt(schedule.alpha(t)),
                               _fmt(schedule.alpha_bar(t)), _fmt(schedule.posterior_var(t))]))
    return ([("schedule.csv", write_file, ("\n".join(lines) + "\n").encode())],
            _schedule_manifest(schedule), f"wrote {resolver.out / 'schedule.csv'}")


# ---------------------------------------------------------------------------
# toy-train
# ---------------------------------------------------------------------------

def cmd_toy_train(resolver: Resolver) -> tuple[list[tuple], dict, str]:
    name = resolver.get("dataset")
    dataset = DATASETS[name]
    schedule = _schedule_from(resolver)
    seed = resolver.get("seed")
    steps = resolver.get("steps")
    batch = resolver.get("batch")
    lr = resolver.get("lr")
    optimizer = resolver.get("optimizer")
    drop_prob = resolver.get("drop_prob")
    hidden = resolver.get("hidden")
    conditional = resolver.get("conditional")

    params = init_toy_denoiser(RngStream(seed).child("init"), dataset.dim,
                               width=hidden)
    embedding = None
    if conditional:
        if dataset.n_classes < 1:
            raise ConfigError(f"dataset {name!r} has no labels for conditional training")
        embedding = LabelEmbedding.create(dataset.n_classes, seed)

    config = TrainConfig(steps=steps, batch_size=batch, learning_rate=lr,
                         seed=seed, optimizer=optimizer, drop_prob=drop_prob)
    params, losses = train(params, dataset, config, schedule, embedding)
    loss_lines = ["step,loss"] + [f"{i},{_fmt(v)}" for i, v in enumerate(losses)]
    # made here, so a non-finite weight is refused before main creates --out
    checkpoint = denoiser_bytes(resolver.out / "checkpoint.bin", params, schedule, embedding)
    return ([("checkpoint.bin", write_file, checkpoint),
             ("loss.csv", write_file, ("\n".join(loss_lines) + "\n").encode())],
            {**_schedule_manifest(schedule),
             "final_loss": float(losses[-1]) if len(losses) else None},
            f"trained {name} for {steps} steps; wrote {resolver.out / 'checkpoint.bin'}")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _write_samples_csv(path: Path, samples: np.ndarray) -> bytes:
    # repr of the Python floats that tolist gives is _fmt of each value; a
    # row at a time, so no list of every value is held at once
    lines = [",".join(map(repr, row.tolist())) for row in samples]
    return write_file(path, ("\n".join(lines) + "\n").encode())


def _write_density_ppm(path: Path, points: np.ndarray) -> bytes:
    """2D histogram heatmap of DENSITY_BINS x DENSITY_BINS pixels as a
    binary portable pixmap."""
    lo = points.min(axis=0) - 0.5
    hi = points.max(axis=0) + 0.5
    hist, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=DENSITY_BINS,
                                range=[[lo[0], hi[0]], [lo[1], hi[1]]])
    norm = hist.T[::-1] / max(hist.max(), 1.0)
    ramp = (norm ** 0.5 * 255).astype(np.uint8)
    rgb = np.stack([ramp, (ramp * 0.6).astype(np.uint8),
                    (255 - ramp).astype(np.uint8)], axis=-1)
    header = f"P6\n{DENSITY_BINS} {DENSITY_BINS}\n255\n".encode()
    return write_file(path, header + rgb.tobytes())


def cmd_sample(resolver: Resolver) -> tuple[list[tuple], dict, str]:
    kind = resolver.get("sampler")
    eta = resolver.get("ddim_eta")
    steps = resolver.get("ddim_steps")
    scale = resolver.get("scale")
    seed = resolver.get("seed")
    batch = resolver.get("batch")
    oracle = resolver.get("oracle")
    label = resolver.get("label")
    plot = resolver.get("plot")

    condition = None
    if oracle:
        if resolver.peek("checkpoint"):
            raise ConfigError("sample takes --oracle or --checkpoint, not both")
        if label is not None:
            raise ConfigError("--label needs a conditional checkpoint; the oracle takes no label")
        mu0 = _vector(resolver.get("mu0"))
        var0 = resolver.get("var0")
        schedule = _schedule_from(resolver)
        predictor = GaussianOracle(mu0=mu0, var0=var0, schedule=schedule)
        width = mu0.size
    elif checkpoint := resolver.get("checkpoint"):
        path = _require_file(checkpoint, "checkpoint")
        params, schedule, embedding = load_denoiser(path)
        predictor = ToyDenoiser(params)
        width = params.data_width
        if label is not None:
            if embedding is None:
                raise ConfigError("checkpoint was trained unconditionally; --label is unusable")
            if not 0 <= label < len(embedding.tokens):
                raise ConfigError(f"--label must lie in [0, {len(embedding.tokens)}), "
                                  f"got {label}")
            condition = embedding.condition(label)
    else:
        raise ConfigError("sample needs either --oracle or --checkpoint")

    plan = SamplingPlan(timeline=subsequence(schedule, steps), kind=kind, width=width,
                        seed=seed, batch=batch, eta=eta, guidance_scale=scale)
    samples = sample(predictor, plan, schedule, condition)
    files = [("samples.csv", _write_samples_csv, samples)]
    if plot and width == 2:
        files.append(("density.ppm", _write_density_ppm, samples))
    return (files, _schedule_manifest(schedule),
            f"wrote {batch} samples to {resolver.out / 'samples.csv'}")


# ---------------------------------------------------------------------------
# compare-samplers
# ---------------------------------------------------------------------------

def cmd_compare_samplers(resolver: Resolver) -> tuple[list[tuple], dict, str]:
    mu0 = _vector(resolver.get("mu0"))
    var0 = resolver.get("var0")
    if var0 == 0.0:
        raise ConfigError("compare-samplers needs --var0 > 0: point-mass data gives every "
                          "sampler zero error, so no order can be fitted")
    seed = resolver.get("seed")
    batch = resolver.get("batch")
    # The reference trajectory needs 2000 distinct timesteps, so this
    # experiment runs on its own T=2000 schedule.
    schedule = _schedule_from(resolver, COMPARISON_T)
    oracle = GaussianOracle(mu0=mu0, var0=var0, schedule=schedule)

    def endpoint(kind: str, num_steps: int) -> np.ndarray:
        plan = SamplingPlan(timeline=subsequence(schedule, num_steps), kind=kind,
                            width=mu0.size, seed=seed, batch=batch, eta=0.0,
                            guidance_scale=1.0)
        return sample(oracle, plan, schedule)

    # Each norm is taken of its input divided by a power of two that is at
    # least max|reference|: exact, so the relative errors keep their bits,
    # and no square inside the norm can overflow.
    reference = endpoint("ddim", COMPARISON_T)
    exponent = np.frexp(np.max(np.abs(reference)))[1]

    def norm(x: np.ndarray) -> float:
        return float(np.linalg.norm(np.ldexp(x, -exponent)))

    # an error of 0, inf or nan has no logarithm, so no order can be fitted
    ref_norm = norm(reference)
    if ref_norm == 0.0:
        raise ConfigError("compare-samplers cannot measure relative errors: the reference "
                          f"endpoint has norm {ref_norm}")
    lines = ["kind,steps,rel_l2"]
    orders = {}
    for kind in ("ddim", "plms"):
        errs = {}
        for k in COMPARE_STEP_COUNTS:
            err = norm(endpoint(kind, k) - reference) / ref_norm
            if k in ORDER_FIT_COUNTS and not 0.0 < err < math.inf:
                raise ConfigError(f"compare-samplers cannot fit an order: the {kind} error "
                                  f"at {k} steps is {err}")
            errs[k] = err
            lines.append(f"{kind},{k},{_fmt(err)}")
        log_errs = np.log([errs[k] for k in ORDER_FIT_COUNTS])   # order = -(log-log slope)
        orders[kind] = float(-np.polyfit(np.log(ORDER_FIT_COUNTS), log_errs, 1)[0])
    for kind, order in orders.items():
        lines.append(f"{kind},order,{_fmt(order)}")
    return ([("report.csv", write_file, ("\n".join(lines) + "\n").encode())],
            _schedule_manifest(schedule),
            f"wrote {resolver.out / 'report.csv'}; fitted orders: "
            + ", ".join(f"{k}={v:.3f}" for k, v in orders.items()))


# ---------------------------------------------------------------------------
# prompt-extend
# ---------------------------------------------------------------------------

def cmd_prompt_extend(resolver: Resolver) -> tuple[list[tuple], dict, str]:
    prompt = resolver.args.prompt
    corpus_path = _require_file(resolver.get("corpus"), "corpus")
    gazetteer_path = _require_file(resolver.get("gazetteer"), "gazetteer")
    fixtures_path = _require_file(resolver.get("fixtures"), "fixtures")
    topk = resolver.get("topk")
    lambda1 = resolver.get("lambda1")
    lambda2 = resolver.get("lambda2")

    # the two small files before the corpus pass, so their faults show first
    fixtures = FixtureGenerator.from_file(fixtures_path)
    gazetteer = Gazetteer.from_file(gazetteer_path)
    index = build_index(load_corpus_jsonl(corpus_path))
    candidates = extend_prompt(prompt, index, tfidf_from_index(index), HashEmbedder(),
                               fixtures, lambda1, lambda2, topk, gazetteer)
    # finite lambdas can still overflow a score, and JSON has no infinity
    if any(not math.isfinite(c.score) for c in candidates):
        raise ConfigError(f"a candidate score overflows at --lambda1 {lambda1} and "
                          f"--lambda2 {lambda2}; lower them")
    lines = [json.dumps(dataclasses.asdict(c), sort_keys=True) for c in candidates]
    text = "\n".join(lines) + ("\n" if lines else "")
    return ([("candidates.jsonl", write_file, text.encode())],
            {"prompt": prompt, "n_candidates": len(candidates)},
            f"wrote {len(candidates)} candidates to {resolver.out / 'candidates.jsonl'}")


# ---------------------------------------------------------------------------
# corpus-stats
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows) -> bytes:
    """Rows through the csv module, so fields holding commas, quotes or
    line breaks are quoted; newline line ends like the other CSV outputs;
    UTF-8. A csv writer quotes only the characters of its own line
    terminator, so each row is formatted with "\r\n" (which quotes a bare
    "\r" too) and ends with "\n"."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    lines = []
    for row in rows:
        line.seek(0)
        line.truncate()
        writer.writerow(row)
        lines.append(line.getvalue()[:-2] + "\n")
    return write_file(path, "".join(lines).encode())


def cmd_corpus_stats(resolver: Resolver) -> tuple[list[tuple], dict, str]:
    metadata_path = _require_file(resolver.get("metadata"), "metadata")
    metas, malformed = read_artwork_table(metadata_path, resolver.get("delimiter"))
    histogram = artist_histogram(metas)
    shares = [(k, _fmt(100.0 * top_share(histogram, k))) for k in (10, 20, 30)]
    return ([("artist_histogram.csv", _write_csv, [("artist", "count"), *histogram]),
             ("shares.csv", _write_csv, [("top_k", "share_pct"), *shares])],
            {"rows": len(metas), "malformed_rows": malformed},
            f"{len(metas)} rows ({malformed} malformed); "
            f"wrote {resolver.out / 'artist_histogram.csv'}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_COMMON = {"--config": (str, None, "key=value config file; flags override it"),
           "--out": (str, None, f"output directory (default: ${ENV_OUT} or artdiff-out)")}
_BETAS = {"--beta_start": (float, DEFAULT_BETA_START, ""),
          "--beta_end": (float, DEFAULT_BETA_END, "")}
_SCHEDULE = {**_COMMON, "--timesteps": (int, DEFAULT_T, "diffusion chain length T"), **_BETAS}
_MU0 = (str, "3,-1", "oracle data mean, comma-separated, e.g. --mu0 -1.4,2 or --mu0=-1.4,2")

# command -> (function, help line, flags). A function takes the Resolver,
# checks and computes, and writes nothing: it returns its files as (name,
# writer, *args), which main writes with writer(path, *args), a call that
# returns the bytes written; its manifest entries; and its stdout line. A
# flag is name -> (kind, default, help): kind bool is a switch, a tuple
# lists the choices, and int, float or str reads the text. Each name with
# "--" (bar --config) is also a config key; "prompt" is a positional.
COMMANDS = {
    "schedule-dump": (cmd_schedule_dump, "emit the variance schedule tables as CSV", _SCHEDULE),
    "toy-train": (cmd_toy_train, "train the toy denoiser on a built-in dataset", {
        **_SCHEDULE, "--dataset": (tuple(sorted(DATASETS)), None, ""),
        "--steps": (int, 20000, ""), "--batch": (int, 64, ""), "--lr": (float, 1e-3, ""),
        "--optimizer": (OPTIMIZERS, "adam", ""), "--drop_prob": (float, 0.1, ""),
        "--hidden": (int, 16, ""), "--seed": (int, 0, ""), "--conditional": (bool, False, "")}),
    "sample": (cmd_sample, "generate samples from a checkpoint or the oracle", {
        **_SCHEDULE, "--sampler": (SAMPLER_KINDS, "ddim", ""),
        "--ddim_eta": (float, DEFAULT_ETA, ""), "--ddim_steps": (int, DEFAULT_STEPS, ""),
        "--scale": (float, DEFAULT_GUIDANCE_SCALE, ""), "--seed": (int, 0, ""),
        "--batch": (int, 1000, ""), "--oracle": (bool, False, ""), "--mu0": _MU0,
        "--var0": (float, 0.25, "oracle data variance"),
        "--checkpoint": (str, None, "trained denoiser checkpoint"),
        "--label": (int, None, "condition label for a conditional checkpoint"),
        "--plot": (bool, False, "also write a density heatmap (2D data only)")}),
    "compare-samplers": (cmd_compare_samplers,
                         "endpoint errors and convergence orders vs a fine reference", {
        **_COMMON, "--mu0": _MU0, "--var0": (float, 0.25, ""), "--seed": (int, 123, ""),
        "--batch": (int, 256, ""), **_BETAS}),
    "prompt-extend": (cmd_prompt_extend, "rank prompt extensions for an input prompt", {
        **_COMMON, "prompt": (str, None, ""),
        "--corpus": (str, None, "JSON Lines corpus (id, title, body)"),
        "--gazetteer": (str, None, "plain-text place names, one per line"),
        "--fixtures": (str, None, "JSON Lines generator fixtures"),
        "--lambda1": (float, DEFAULT_LAMBDA1, ""), "--lambda2": (float, DEFAULT_LAMBDA2, ""),
        "--topk": (int, 10, "")}),
    "corpus-stats": (cmd_corpus_stats, "artist histogram and top-k shares", {
        **_COMMON, "--metadata": (str, None, "character-separated artwork table"),
        "--delimiter": (str, ",", "")}),
}

# config key -> [low, high) in every command (high None: no bound); no array
# extent reaches 2**63. A range set by other values (T, labels) is checked later.
RANGES = {"seed": (0, 2 ** 64), "steps": (0, 2 ** 63), "batch": (1, 2 ** 63), "topk": (1, None),
          "hidden": (1, 2 ** 63), "var0": (0, None), "lambda1": (0, None), "lambda2": (0, None)}

# config key -> the (test, rule) pairs its text must pass, in order; a test
# that raises ValueError fails. csv cannot split on its quote or a line break.
TEXT_RULES = {
    "mu0": ((lambda text: np.isfinite(_vector(text)).all(),
             "must be comma-separated finite numbers"),),
    "delimiter": ((lambda text: len(text) == 1, "must be exactly one character"),
                  (lambda text: text not in '"\r\n',
                   "cannot be the quote character or a line break"))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # an unknown flag, a flag without its value, no command
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process from ``COMMANDS``:
    parsing leaves it unchanged, so every ``main`` call shares it. A flag
    parses to its text, or to None when not given so a config value can stand in."""
    parser = _Parser(prog="artdiff", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, line, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=line)
        for name, (kind, default, text) in flags.items():
            if default is not None:
                text = f"{text} (default: {default})".lstrip()
            if kind is bool:
                p.add_argument(name, action="store_true", default=None, help=text)
            else:   # text; a choice's metavar lists the choices in --help
                p.add_argument(name, help=text, metavar="{%s}" % ",".join(kind)
                               if isinstance(kind, tuple) else None)
    return parser


def _config_keys() -> set[str]:
    """Every key a config file may set: the flags of all subcommands."""
    return {name[2:] for _, _, flags in COMMANDS.values() for name in flags
            if name.startswith("--")} - {"config"}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--mu0 -1.4,2`` as ``--mu0=-1.4,2``: argparse would read a
    value that starts with '-' and is not a plain number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--mu0" and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:    # --help prints and exits 0 from parse_args
        args = build_parser().parse_args(_join_dash_values(argv))
        resolver = Resolver(args)
        # before the work, creating nothing: the nearest path at or above
        # --out that exists must be a directory that mkdir may write into
        out = resolver.out
        base = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
        if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
            reason = os.strerror(errno.EACCES if base.is_dir() else errno.ENOTDIR)
            raise ConfigError(f"cannot create output directory {out}: {reason}")
        files, extra, message = COMMANDS[args.command][0](resolver)
        try:    # only now, so a refusal leaves no directory behind
            resolver.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {resolver.out}: "
                              f"{exc.strerror or exc}") from None
        written = {name: writer(resolver.out / name, *writer_args)
                   for name, writer, *writer_args in files}
        _write_manifest(resolver, written, extra)
        print(message)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:      # a directory in an output file's place, say
        name = f"{exc.filename}: " if exc.filename else ""    # a full disk names no file
        print(f"error: {name}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except (ValueError, TrainingDivergedError) as exc:   # CheckpointError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
