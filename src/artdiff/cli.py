"""Command-line surface: schedule dumps, toy training, sampling, sampler
comparison, prompt extension, and corpus statistics.

Every run resolves its configuration from flags, then an optional
key=value config file (flags win), writes a manifest.json capturing the
resolved values, the numpy and Python versions and the sha256 of each
output file, and emits line-oriented text artifacts so runs can be
compared byte-for-byte. The ARTDIFF_OUT environment variable overrides the
default output directory when --out is not given.

Exit codes: 0 success, 1 runtime failure (including an output file that
cannot be written), 2 usage or configuration error (including an input
file that does not exist).
"""

from __future__ import annotations

import argparse
import csv
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

from .datasets import DATASETS, get_dataset
from .denoisers import (GaussianOracle, LabelEmbedding, ToyDenoiser, TrainConfig,
                        init_toy_denoiser, load_denoiser, save_denoiser, train)
from .errors import ConfigError, TrainingDivergedError
from .numerics import RngStream
from .promptx import (DEFAULT_LAMBDA1, DEFAULT_LAMBDA2, FixtureGenerator,
                      Gazetteer, HashEmbedder, artist_histogram, build_index,
                      _read_utf8, extend_prompt, load_corpus_jsonl,
                      read_artwork_table, tfidf_from_index, top_share)
from .samplers import (DEFAULT_ETA, DEFAULT_GUIDANCE_SCALE, DEFAULT_STEPS,
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
    """Flag > config file > default resolution for one command invocation.

    A config line is ``key=value``: the key is stripped of all whitespace
    and the value only of spaces, so a tab value stays a tab."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values: dict[str, str] = {}
        if getattr(args, "config", None) is not None:
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

    def get(self, key: str, default, cast=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            value = flag
        elif key in self.file_values:
            raw = self.file_values[key]
            try:
                value = CONFIG_BOOLEANS[raw.lower()] if cast is bool else cast(raw)
            except (KeyError, ValueError):
                what = "boolean (1/true/yes or 0/false/no)" if cast is bool else cast.__name__
                raise ConfigError(f"config value {key}={raw!r} is not a valid {what}") from None
        else:
            value = default
        self.resolved[key] = value
        return value

    def out_dir(self) -> Path:
        out = self.get("out", None)
        if out is None:
            out = os.environ.get(ENV_OUT) or "artdiff-out"
        self.resolved["out"] = str(out)
        out = Path(out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: "
                              f"{exc.strerror or exc}") from None
        return out


def _write_manifest(out: Path, command: str, resolver: Resolver, outputs: list[str],
                    extra: dict) -> None:
    """manifest.json: the command, its resolved config, the numpy and
    Python versions (the bytes are reproducible at a fixed numpy version),
    the sha256 of each named output file the command wrote, and the
    command's own ``extra`` entries."""
    manifest = {"command": command, "config": resolver.resolved,
                "versions": {"numpy": np.__version__, "python": platform.python_version()},
                "outputs": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in outputs}, **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"missing required {what} path")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(part) for part in str(text).split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}: {exc}") from None
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"vector {text!r} has non-finite components")
    return vec


def _seed_from(resolver: Resolver, default: int) -> int:
    seed = resolver.get("seed", default, int)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"--seed must be an integer in [0, 2**64), got {seed}")
    return seed


def _var0_from(resolver: Resolver) -> float:
    var0 = resolver.get("var0", 0.25, float)
    if not (math.isfinite(var0) and var0 >= 0.0):
        raise ConfigError(f"--var0 must be a finite number >= 0, got {var0}")
    return var0


def _schedule_manifest(consts) -> dict:
    """The manifest entry of a schedule's constants (T, beta_start, beta_end)."""
    T, beta_start, beta_end = consts
    return {"schedule": {"T": T, "beta_start": beta_start, "beta_end": beta_end}}


def _schedule_from(resolver: Resolver, T: int | None = None):
    """The linear schedule of the resolved --timesteps (or a fixed T) and
    betas, with its constants; a bad value raises ``ConfigError``."""
    if T is None:
        T = resolver.get("timesteps", DEFAULT_T, int)
    beta_start = resolver.get("beta_start", DEFAULT_BETA_START, float)
    beta_end = resolver.get("beta_end", DEFAULT_BETA_END, float)
    try:
        return linear_schedule(T, beta_start, beta_end), (T, beta_start, beta_end)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# schedule-dump
# ---------------------------------------------------------------------------

def cmd_schedule_dump(args) -> int:
    resolver = Resolver(args)
    schedule, consts = _schedule_from(resolver)
    out = resolver.out_dir()
    lines = ["t,beta,alpha,alpha_bar,posterior_var"]
    for t in range(1, schedule.T + 1):
        lines.append(",".join([str(t), _fmt(schedule.beta(t)), _fmt(schedule.alpha(t)),
                               _fmt(schedule.alpha_bar(t)), _fmt(schedule.posterior_var(t))]))
    (out / "schedule.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "schedule-dump", resolver, ["schedule.csv"], _schedule_manifest(consts))
    print(f"wrote {out / 'schedule.csv'}")
    return 0


# ---------------------------------------------------------------------------
# toy-train
# ---------------------------------------------------------------------------

def cmd_toy_train(args) -> int:
    resolver = Resolver(args)
    name = resolver.get("dataset", None)
    if name is None or name not in DATASETS:
        known = ", ".join(sorted(DATASETS))
        raise ConfigError(f"unknown dataset {name!r}; available: {known}")
    dataset = get_dataset(name)
    schedule, consts = _schedule_from(resolver)
    seed = _seed_from(resolver, 0)
    steps = resolver.get("steps", 20000, int)
    batch = resolver.get("batch", 64, int)
    lr = resolver.get("lr", 1e-3, float)
    optimizer = resolver.get("optimizer", "adam")
    drop_prob = resolver.get("drop_prob", 0.1, float)
    hidden = resolver.get("hidden", 16, int)
    if hidden < 1:
        raise ConfigError(f"--hidden must be an integer >= 1, got {hidden}")
    conditional = bool(resolver.get("conditional", False, bool))
    out = resolver.out_dir()

    params = init_toy_denoiser(RngStream(seed).child("init"), dataset.dim,
                               width=hidden)
    embedding = None
    if conditional:
        if dataset.n_classes < 1:
            raise ConfigError(f"dataset {name!r} has no labels for conditional training")
        embedding = LabelEmbedding.create(dataset.n_classes, params.cond_width, seed)

    try:
        config = TrainConfig(steps=steps, batch_size=batch, learning_rate=lr,
                             seed=seed, optimizer=optimizer, drop_prob=drop_prob)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params, losses = train(params, dataset, config, schedule, embedding)
    save_denoiser(out / "checkpoint.bin", params, schedule, embedding)

    loss_lines = ["step,loss"] + [f"{i},{_fmt(v)}" for i, v in enumerate(losses)]
    (out / "loss.csv").write_text("\n".join(loss_lines) + "\n")
    _write_manifest(out, "toy-train", resolver, ["checkpoint.bin", "loss.csv"],
                    {**_schedule_manifest(consts),
                     "final_loss": float(losses[-1]) if len(losses) else None})
    print(f"trained {name} for {steps} steps; wrote {out / 'checkpoint.bin'}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _write_samples_csv(path: Path, samples: np.ndarray) -> None:
    # repr of the Python floats that tolist gives is _fmt of each value; a
    # row at a time, so no list of every value is held at once
    flat = samples.reshape(samples.shape[0], -1)
    lines = [",".join(map(repr, row.tolist())) for row in flat]
    path.write_text("\n".join(lines) + "\n")


def _write_density_ppm(path: Path, points: np.ndarray) -> None:
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
    path.write_bytes(header + rgb.tobytes())


def cmd_sample(args) -> int:
    resolver = Resolver(args)
    kind = resolver.get("sampler", "ddim")
    eta = resolver.get("ddim_eta", DEFAULT_ETA, float)
    steps = resolver.get("ddim_steps", DEFAULT_STEPS, int)
    scale = resolver.get("scale", DEFAULT_GUIDANCE_SCALE, float)
    seed = _seed_from(resolver, 0)
    batch = resolver.get("batch", 1000, int)
    oracle = bool(resolver.get("oracle", False, bool))
    label = resolver.get("label", None, int)
    plot = bool(resolver.get("plot", False, bool))
    out = resolver.out_dir()

    condition = None
    if oracle:
        mu0 = _parse_vector(resolver.get("mu0", "3,-1"))
        var0 = _var0_from(resolver)
        schedule, consts = _schedule_from(resolver)
        predictor = GaussianOracle(mu0=mu0, var0=var0, schedule=schedule)
        shape = (mu0.size,)
    elif getattr(args, "checkpoint", None) or resolver.file_values.get("checkpoint"):
        path = _require_file(resolver.get("checkpoint", None), "checkpoint")
        params, schedule, embedding = load_denoiser(path)
        consts = (schedule.T, float(schedule.betas[0]), float(schedule.betas[-1]))
        predictor = ToyDenoiser(params)
        shape = (params.data_width,)
        if label is not None:
            if embedding is None:
                raise ConfigError("checkpoint was trained unconditionally; --label is unusable")
            if not 0 <= label < len(embedding.tokens):
                raise ConfigError(f"--label must lie in [0, {len(embedding.tokens)}), "
                                  f"got {label}")
            condition = embedding.condition(label)
    else:
        raise ConfigError("sample needs either --oracle or --checkpoint")

    try:
        plan = SamplingPlan(timeline=subsequence(schedule, steps), kind=kind,
                            shape=shape, seed=seed, batch=batch, eta=eta,
                            guidance_scale=scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    samples = sample(predictor, plan, schedule, condition)

    _write_samples_csv(out / "samples.csv", samples)
    outputs = ["samples.csv"]
    if plot and shape == (2,):
        _write_density_ppm(out / "density.ppm", samples)
        outputs.append("density.ppm")
    _write_manifest(out, "sample", resolver, outputs, _schedule_manifest(consts))
    print(f"wrote {batch} samples to {out / 'samples.csv'}")
    return 0


# ---------------------------------------------------------------------------
# compare-samplers
# ---------------------------------------------------------------------------

def _fit_order(step_counts, errors) -> float:
    slope = np.polyfit(np.log(step_counts), np.log(errors), 1)[0]
    return float(-slope)


def cmd_compare_samplers(args) -> int:
    resolver = Resolver(args)
    mu0 = _parse_vector(resolver.get("mu0", "3,-1"))
    var0 = _var0_from(resolver)
    if var0 == 0.0:
        raise ConfigError("compare-samplers needs --var0 > 0: point-mass data gives every "
                          "sampler zero error, so no order can be fitted")
    seed = _seed_from(resolver, 123)
    batch = resolver.get("batch", 256, int)
    # The reference trajectory needs 2000 distinct timesteps, so this
    # experiment runs on its own T=2000 schedule.
    schedule, consts = _schedule_from(resolver, COMPARISON_T)
    out = resolver.out_dir()

    oracle = GaussianOracle(mu0=mu0, var0=var0, schedule=schedule)
    shape = (mu0.size,)

    def endpoint(kind: str, num_steps: int) -> np.ndarray:
        plan = SamplingPlan(timeline=subsequence(schedule, num_steps), kind=kind,
                            shape=shape, seed=seed, batch=batch, eta=0.0,
                            guidance_scale=1.0)
        return sample(oracle, plan, schedule)

    def norm(x: np.ndarray) -> float:
        with np.errstate(over="ignore"):    # an overflow reads inf, refused below
            return float(np.linalg.norm(x))

    # an error of 0, inf or nan has no logarithm, so no order can be fitted
    reference = endpoint("ddim", COMPARISON_T)
    ref_norm = norm(reference)
    if not 0.0 < ref_norm < math.inf:
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
        orders[kind] = _fit_order(ORDER_FIT_COUNTS, [errs[k] for k in ORDER_FIT_COUNTS])
    for kind, order in orders.items():
        lines.append(f"{kind},order,{_fmt(order)}")
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "compare-samplers", resolver, ["report.csv"],
                    _schedule_manifest(consts))
    print(f"wrote {out / 'report.csv'}; fitted orders: "
          + ", ".join(f"{k}={v:.3f}" for k, v in orders.items()))
    return 0


# ---------------------------------------------------------------------------
# prompt-extend
# ---------------------------------------------------------------------------

def cmd_prompt_extend(args) -> int:
    resolver = Resolver(args)
    prompt = args.prompt
    corpus_path = _require_file(resolver.get("corpus", None), "corpus")
    gazetteer_path = _require_file(resolver.get("gazetteer", None), "gazetteer")
    fixtures_path = _require_file(resolver.get("fixtures", None), "fixtures")
    lambda1 = resolver.get("lambda1", DEFAULT_LAMBDA1, float)
    lambda2 = resolver.get("lambda2", DEFAULT_LAMBDA2, float)
    topk = resolver.get("topk", 10, int)
    if topk < 1:
        raise ConfigError(f"--topk must be >= 1, got {topk}")
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not (math.isfinite(value) and value >= 0.0):   # inf would write "Infinity" scores
            raise ConfigError(f"--{name} must be a finite number >= 0, got {value}")
    out = resolver.out_dir()

    index = build_index(load_corpus_jsonl(corpus_path))
    if index.size == 0:
        candidates = []
    else:
        candidates = extend_prompt(prompt, index, tfidf_from_index(index), HashEmbedder(),
                                   FixtureGenerator.from_file(fixtures_path),
                                   lambda1, lambda2, topk,
                                   Gazetteer.from_file(gazetteer_path))
    lines = [json.dumps({"text": c.text, "source": c.source, "tfidf": c.tfidf,
                         "cos": c.cos, "spatial_entities": c.spatial_entities,
                         "temporal_entities": c.temporal_entities, "score": c.score},
                        sort_keys=True)
             for c in candidates]
    (out / "candidates.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))
    _write_manifest(out, "prompt-extend", resolver, ["candidates.jsonl"],
                    {"prompt": prompt, "n_candidates": len(candidates)})
    print(f"wrote {len(candidates)} candidates to {out / 'candidates.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# corpus-stats
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows) -> None:
    """Rows through the csv module, so fields holding commas, quotes or
    line breaks are quoted; newline line ends like the other CSV outputs.
    A csv writer quotes only the characters of its own line terminator, so
    each row is formatted with "\r\n" (which quotes a bare "\r" too) and
    written with "\n"."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in rows:
            line.seek(0)
            line.truncate()
            writer.writerow(row)
            fh.write(line.getvalue()[:-2] + "\n")


def cmd_corpus_stats(args) -> int:
    resolver = Resolver(args)
    metadata_path = _require_file(resolver.get("metadata", None), "metadata")
    delimiter = resolver.get("delimiter", ",")
    if len(delimiter) != 1:
        raise ConfigError(f"--delimiter must be exactly one character, got {delimiter!r}")
    if delimiter in '"\r\n':   # csv cannot split on its quote character or a line break
        raise ConfigError("--delimiter cannot be the quote character or a line break, "
                          f"got {delimiter!r}")
    out = resolver.out_dir()

    metas, malformed = read_artwork_table(metadata_path, delimiter)
    histogram = artist_histogram(metas)
    _write_csv(out / "artist_histogram.csv", [("artist", "count"), *histogram])
    _write_csv(out / "shares.csv", [("top_k", "share_pct")]
               + [(k, _fmt(100.0 * top_share(histogram, k))) for k in (10, 20, 30)])
    _write_manifest(out, "corpus-stats", resolver, ["artist_histogram.csv", "shares.csv"],
                    {"rows": len(metas), "malformed_rows": malformed})
    print(f"{len(metas)} rows ({malformed} malformed); "
          f"wrote {out / 'artist_histogram.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--out", help=f"output directory (default: ${ENV_OUT} or artdiff-out)")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timesteps", type=int, help="diffusion chain length T")
    p.add_argument("--beta_start", type=float)
    p.add_argument("--beta_end", type=float)


MU0_HELP = "oracle data mean, comma-separated, e.g. --mu0 -1.4,2 or --mu0=-1.4,2"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, so every ``main`` call and ``_config_keys`` share it."""
    parser = argparse.ArgumentParser(prog="artdiff",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule-dump", help="emit the variance schedule tables as CSV")
    _add_common(p)
    _add_schedule_flags(p)
    p.set_defaults(func=cmd_schedule_dump)

    p = sub.add_parser("toy-train", help="train the toy denoiser on a built-in dataset")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--dataset", help="|".join(sorted(DATASETS)))
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument("--drop_prob", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--conditional", action="store_true", default=None)
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("sample", help="generate samples from a checkpoint or the oracle")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--sampler", choices=["ddpm", "ddim", "plms"])
    p.add_argument("--ddim_eta", type=float)
    p.add_argument("--ddim_steps", type=int)
    p.add_argument("--scale", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--oracle", action="store_true", default=None)
    p.add_argument("--mu0", help=MU0_HELP)
    p.add_argument("--var0", type=float, help="oracle data variance")
    p.add_argument("--checkpoint", help="trained denoiser checkpoint")
    p.add_argument("--label", type=int, help="condition label for a conditional checkpoint")
    p.add_argument("--plot", action="store_true", default=None,
                   help="also write a density heatmap (2D data only)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compare-samplers",
                       help="endpoint errors and convergence orders vs a fine reference")
    _add_common(p)
    p.add_argument("--mu0", help=MU0_HELP)
    p.add_argument("--var0", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--beta_start", type=float)
    p.add_argument("--beta_end", type=float)
    p.set_defaults(func=cmd_compare_samplers)

    p = sub.add_parser("prompt-extend", help="rank prompt extensions for an input prompt")
    _add_common(p)
    p.add_argument("prompt")
    p.add_argument("--corpus", help="JSON Lines corpus (id, title, body)")
    p.add_argument("--gazetteer", help="plain-text place names, one per line")
    p.add_argument("--fixtures", help="JSON Lines generator fixtures")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--topk", type=int)
    p.set_defaults(func=cmd_prompt_extend)

    p = sub.add_parser("corpus-stats", help="artist histogram and top-k shares")
    _add_common(p)
    p.add_argument("--metadata", help="character-separated artwork table")
    p.add_argument("--delimiter")
    p.set_defaults(func=cmd_corpus_stats)

    return parser


def _config_keys() -> set[str]:
    """Every key a config file may set: the flags of all subcommands."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for sub in commands.choices.values() for action in sub._actions
            if action.option_strings and action.dest not in ("help", "config")}


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
    args = build_parser().parse_args(_join_dash_values(argv))
    try:
        return args.func(args)
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
