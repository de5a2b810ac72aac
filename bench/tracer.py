"""Per-layer tracing from outside the program.

While a Tracer is installed, the module attributes listed below are
replaced by wrappers. A spanned function records (name, parent, start,
end) in flat in-memory arrays; a counted function only bumps a counter,
because it is tiny and called very often. Wrappers pass every argument
and result through unchanged. Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _rows(args, result) -> int:
    return 1 if np.ndim(args[1]) == 1 else int(np.shape(args[1])[0])


def _drawn(args, result) -> int:
    return int(np.size(result))


def _output_bytes(args, result) -> int:
    argv = list(args[0])
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# (span name, module, attribute, counter name, amount function)
SPANNED = [
    ("cli.main", "cli", "main", "cli.output_bytes", _output_bytes),
    ("cli.write", "cli", "_write_samples_csv", None, None),
    ("cli.write", "cli", "_write_density_ppm", None, None),
    ("cli.write", "cli", "_write_manifest", None, None),
    ("checkpoint.load", "checkpoint", "load_arrays", None, None),
    ("checkpoint.save", "checkpoint", "save_arrays", None, None),
    ("datasets.sample", "datasets", "ToyDataset.sample", None, None),
    ("numerics.rng", "numerics", "RngStream.normal", "numerics.rng_draws", _drawn),
    ("numerics.rng", "numerics", "RngStream.uniform", "numerics.rng_draws", _drawn),
    ("numerics.rng", "numerics", "RngStream.integers", "numerics.rng_draws", _drawn),
    ("samplers.sample", "samplers", "sample", None, None),
    ("samplers.sample", "samplers", "plms_sample", None, None),
    ("samplers.ddim_step", "samplers", "ddim_step", None, None),
    ("samplers.ddpm_step", "samplers", "ddpm_step", None, None),
    ("samplers.plms_combine", "samplers", "plms_combine", None, None),
    ("samplers.cfg_combine", "samplers", "cfg_combine", None, None),
    ("denoisers.forward", "denoisers", "toy_denoiser_forward", "denoisers.forward_rows", _rows),
    ("denoisers.time_embedding", "denoisers", "time_embedding", None, None),
    ("denoisers.attend", "denoisers", "_attend", None, None),
    ("denoisers.oracle_predict", "denoisers", "GaussianOracle.predict", "samplers.predict_calls",
     lambda args, result: 1),
    ("denoisers.loss_and_grad", "denoisers", "_loss_and_grad", None, None),
    ("denoisers.attend_backward", "denoisers", "_attend_backward", None, None),
    ("denoisers.adam_update", "denoisers", "_AdamState.update", None, None),
    ("denoisers.train", "denoisers", "train", None, None),
    ("promptx.load_corpus", "promptx", "load_corpus_jsonl", None, None),
    ("promptx.build_index", "promptx", "build_index", None, None),
    ("promptx.tfidf_fit", "promptx", "tfidf_fit", None, None),
    ("promptx.bm25_search", "promptx", "bm25_search", None, None),
    ("promptx.score_candidate", "promptx", "score_candidate", None, None),
    ("promptx.embed", "promptx", "HashEmbedder.embed", None, None),
    ("promptx.entity_count", "promptx", "entity_count", None, None),
]

# (counter name, module, attribute): counted, not spanned
COUNTED = [
    ("samplers.predict_calls", "denoisers", "ToyDenoiser.predict"),
    ("schedule.lookup_calls", "schedule", "NoiseSchedule.alpha_bar"),
    ("schedule.lookup_calls", "schedule", "NoiseSchedule.alpha"),
    ("schedule.lookup_calls", "schedule", "NoiseSchedule.beta"),
    ("schedule.lookup_calls", "schedule", "NoiseSchedule.posterior_var"),
    ("schedule.lookup_calls", "schedule", "NoiseSchedule.check_step"),
    ("promptx.tokenize_calls", "promptx", "tokenize"),
]

# Reported per-layer metrics: (name, unit, how, source). "self" sums the
# self time of the source spans, "calls" counts them, "count" reads a counter.
PER_LAYER = [
    ("samplers.sample_self_s", "s", "self", "samplers.sample"),
    ("samplers.ddim_step_s", "s", "self", "samplers.ddim_step"),
    ("samplers.ddim_step_calls", "count", "calls", "samplers.ddim_step"),
    ("samplers.ddpm_step_s", "s", "self", "samplers.ddpm_step"),
    ("samplers.plms_combine_s", "s", "self", "samplers.plms_combine"),
    ("samplers.cfg_combine_s", "s", "self", "samplers.cfg_combine"),
    ("samplers.predict_calls", "count", "count", "samplers.predict_calls"),
    ("denoisers.forward_s", "s", "self", "denoisers.forward"),
    ("denoisers.forward_rows", "rows", "count", "denoisers.forward_rows"),
    ("denoisers.time_embedding_s", "s", "self", "denoisers.time_embedding"),
    ("denoisers.attend_s", "s", "self", "denoisers.attend"),
    ("denoisers.oracle_predict_s", "s", "self", "denoisers.oracle_predict"),
    ("denoisers.loss_and_grad_s", "s", "self", "denoisers.loss_and_grad"),
    ("denoisers.attend_backward_s", "s", "self", "denoisers.attend_backward"),
    ("denoisers.adam_update_s", "s", "self", "denoisers.adam_update"),
    ("denoisers.train_self_s", "s", "self", "denoisers.train"),
    ("datasets.sample_s", "s", "self", "datasets.sample"),
    ("numerics.rng_s", "s", "self", "numerics.rng"),
    ("numerics.rng_draws", "values", "count", "numerics.rng_draws"),
    ("schedule.lookup_calls", "count", "count", "schedule.lookup_calls"),
    ("checkpoint.load_s", "s", "self", "checkpoint.load"),
    ("checkpoint.save_s", "s", "self", "checkpoint.save"),
    ("cli.write_s", "s", "self", "cli.write"),
    ("cli.output_bytes", "bytes", "count", "cli.output_bytes"),
    ("promptx.load_corpus_s", "s", "self", "promptx.load_corpus"),
    ("promptx.build_index_s", "s", "self", "promptx.build_index"),
    ("promptx.tfidf_fit_s", "s", "self", "promptx.tfidf_fit"),
    ("promptx.tokenize_calls", "count", "count", "promptx.tokenize_calls"),
    ("promptx.bm25_search_s", "s", "self", "promptx.bm25_search"),
    ("promptx.score_candidate_s", "s", "self", "promptx.score_candidate"),
    ("promptx.embed_s", "s", "self", "promptx.embed"),
    ("promptx.embed_calls", "count", "calls", "promptx.embed"),
    ("promptx.entity_count_s", "s", "self", "promptx.entity_count"),
    ("promptx.candidates_scored", "count", "calls", "promptx.score_candidate"),
]


class Tracer:
    """Installs the wrappers; records spans and counters while ``on``."""

    def __init__(self):
        self.on = False
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.marks: list[tuple] = []   # (begin, end) marks of each traced round
        self._stack = [-1]
        self._restore: list[tuple[dict, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module, attr, counter, amount in SPANNED:
            self._replace(module, attr, lambda fn, n=name, c=counter, a=amount:
                          self._spanned(fn, n, c, a))
        for counter, module, attr in COUNTED:
            self._replace(module, attr, lambda fn, c=counter: self._counted(fn, c))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            if isinstance(namespace, type):
                setattr(namespace, key, original)
            else:
                namespace[key] = original
        self._restore.clear()

    def _replace(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(f"artdiff.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        # Rebind every artdiff module global that refers to the function,
        # so that `from .x import f` bindings are traced too.
        for name, loaded in list(sys.modules.items()):
            if name == "artdiff" or name.startswith("artdiff."):
                namespace = vars(loaded)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        namespace[key] = wrapper

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, name: str, counter, amount):
        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] += amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position in the span arrays and a copy of the counters."""
        return len(self.starts), Counter(self.counts)

    def layer_values(self, begin: tuple[int, Counter], end: tuple[int, Counter]) -> dict:
        """Every PER_LAYER value over the spans and counts between two marks."""
        lo, hi = begin[0], end[0]
        # Slicing an array.array copies it, so no buffer stays exported.
        names = np.frombuffer(self.names[lo:hi], dtype=np.int32)
        parents = np.frombuffer(self.parents[lo:hi], dtype=np.int32) - lo
        dur = (np.frombuffer(self.ends[lo:hi], dtype=np.float64)
               - np.frombuffer(self.starts[lo:hi], dtype=np.float64))
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=hi - lo)
        self_time = dur - covered
        values = {}
        for metric, _, how, source in PER_LAYER:
            if how == "count":
                values[metric] = end[1][source] - begin[1][source]
                continue
            sel = names == (self.span_names.index(source) if source in self.span_names else -1)
            values[metric] = int(sel.sum()) if how == "calls" else float(self_time[sel].sum())
        return values

    def write(self, path: Path) -> None:
        """Write every recorded span: name table plus flat arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, span_names=np.array(self.span_names),
                            name=np.array(self.names, dtype=np.int32),
                            parent=np.array(self.parents, dtype=np.int32),
                            start=np.array(self.starts, dtype=np.float64),
                            end=np.array(self.ends, dtype=np.float64))
