"""Property tests for the CLI's output files and its config files.

They need hypothesis (the ``test`` extra) and are skipped without it.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from artdiff.checkpoint import load_arrays, save_arrays  # noqa: E402
from artdiff.cli import COMMANDS, RANGES, _config_keys, _write_samples_csv, main  # noqa: E402
from artdiff.promptx import (DEFAULT_LAMBDA1, DEFAULT_LAMBDA2,  # noqa: E402
                             FixtureGenerator, Gazetteer, HashEmbedder,
                             artist_histogram, build_index, extend_prompt, load_corpus_jsonl,
                             read_artwork_table, tfidf_from_index)
from reference import samples_csv_text  # noqa: E402

DATA = Path(__file__).parent / "data"

# non-empty, already stripped names that hold commas, quotes and line breaks
ARTISTS = st.text(st.one_of(st.sampled_from(',"\'\n\r '), st.characters(categories=("L", "N", "P"))),
                  min_size=1, max_size=10).filter(lambda name: name == name.strip() != "")

FINITE_ARRAYS = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(FINITE_ARRAYS)
def test_samples_csv_fields_parse_back_to_the_same_bits(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        _write_samples_csv(path, samples)
        lines = path.read_text().splitlines()
    parsed = np.array([[float(field) for field in line.split(",")] for line in lines])
    assert parsed.shape == samples.shape
    assert parsed.tobytes() == samples.tobytes()     # bits, so -0.0 stays -0.0


# -0.0, the smallest and largest subnormals, the smallest normal, and the
# two points where repr switches between positional and exponent notation
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                               2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-5,
                               0.0001, -1e-5, 1.0, 0.1])


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)),
                  elements=st.one_of(EDGE_FLOATS, st.floats(allow_nan=False,
                                                            allow_infinity=False))))
@example(np.array([[-0.0], [5e-324], [1e16], [1e-5]]))
@example(np.array([[-0.0, 5e-324], [1e16, 1e-5]]))
@example(np.array([[-0.0, 5e-324, 1e16], [1e-5, -2.2250738585072014e-308, 1e-323]]))
def test_samples_csv_bytes_equal_the_reference_formatter(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        _write_samples_csv(path, samples)
        written = path.read_bytes()
    assert written == samples_csv_text(samples).encode()


@settings(max_examples=60, deadline=None)
@given(st.lists(ARTISTS, min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.lists(st.sampled_from(names), min_size=1, max_size=12)))
def test_artist_histogram_csv_reads_back_as_the_histogram(artists):
    with tempfile.TemporaryDirectory() as tmp:
        table, out = Path(tmp) / "artworks.csv", Path(tmp) / "stats"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([f"work {i}", artist, "style", "genre", "1900"]
                                     for i, artist in enumerate(artists))
        assert main(["corpus-stats", "--metadata", str(table), "--out", str(out)]) == 0
        with open(out / "artist_histogram.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        histogram = artist_histogram(read_artwork_table(table)[0])
    assert rows == [["artist", "count"]] + [[artist, str(count)] for artist, count in histogram]
    assert dict(histogram) == Counter(artists)


# texts with commas, quotes, line breaks, U+2028, lone surrogates and a few
# words the corpus, the prompt and the gazetteer share
CANDIDATE_TEXT = st.lists(st.one_of(
    st.sampled_from([",", '"', "'", "\r", "\n", "\u2028", "\ud800", "\udfff", " ", ". ",
                     "river", "Lhasa", "1980", "art"]),
    st.characters(categories=("L", "N", "P", "Z"))), max_size=12).map("".join)
PROMPT = "river art"
CANDIDATE_KEYS = {"text", "source", "tfidf", "cos", "spatial_entities",
                  "temporal_entities", "score"}


def write_jsonl(path, rows):
    # json.dumps escapes every non-ASCII character, lone surrogates included
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


@settings(max_examples=40, deadline=None)
@given(st.lists(CANDIDATE_TEXT, min_size=1, max_size=4), st.lists(CANDIDATE_TEXT, max_size=3),
       st.lists(CANDIDATE_TEXT, max_size=3))
def test_candidates_jsonl_reads_back_as_the_ranked_candidates(bodies, continuations,
                                                              responses):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, gazetteer = tmp / "corpus.jsonl", tmp / "gazetteer.txt"
        fixtures, out = tmp / "fixtures.jsonl", tmp / "px"
        write_jsonl(corpus, [{"id": f"d{i}", "title": f"river {i}", "body": body}
                             for i, body in enumerate(bodies)])
        write_jsonl(fixtures, [{"prompt": PROMPT, "continuations": continuations,
                                "responses": responses}])
        gazetteer.write_text("Lhasa\nPearl River\n", encoding="utf-8")
        assert main(["prompt-extend", PROMPT, "--corpus", str(corpus), "--gazetteer",
                     str(gazetteer), "--fixtures", str(fixtures), "--out", str(out)]) == 0
        lines = (out / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
        index = build_index(load_corpus_jsonl(corpus))
        expected = extend_prompt(PROMPT, index, tfidf_from_index(index), HashEmbedder(),
                                 FixtureGenerator.from_file(fixtures), DEFAULT_LAMBDA1,
                                 DEFAULT_LAMBDA2, 10, Gazetteer.from_file(gazetteer))
    rows = [json.loads(line) for line in lines]
    assert rows and all(set(row) == CANDIDATE_KEYS for row in rows)
    assert rows == [vars(c) for c in expected]


# config-file text: known keys (so duplicates arise) and one unknown key,
# with values from a small alphabet, among blank lines and comments
CONFIG_VALUE = st.one_of(st.integers(-5, 50).map(str),
                         st.sampled_from(["nan", "inf", "1e3", "", "\t", "é", "日本", "="]))
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(_config_keys()) + ["bogus"]), CONFIG_VALUE).map("=".join),
    st.sampled_from(["", "   ", "# a comment", "  # indented comment", "no equals sign"]))
CONFIG_ARGV = {
    "schedule-dump": ["schedule-dump"],
    # the costly keys are pinned as flags, which win over a config line
    "toy-train": ["toy-train", "--dataset", "8-gaussian-ring", "--steps", 2, "--batch", 2],
    "sample --oracle": ["sample", "--oracle", "--batch", 2, "--ddim_steps", 2],
    # "conditional" names the checkpoints fixture's conditional checkpoint
    "sample --checkpoint": ["sample", "--checkpoint", "conditional", "--batch", 2,
                            "--ddim_steps", 2],
    "compare-samplers": ["compare-samplers", "--batch", 2],
    "corpus-stats": ["corpus-stats", "--metadata", DATA / "artworks.csv"],
    "prompt-extend": ["prompt-extend", "urbanization of China",
                      "--corpus", DATA / "micro_corpus.jsonl",
                      "--gazetteer", DATA / "gazetteer.txt",
                      "--fixtures", DATA / "fixtures.jsonl"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_ARGV))
@settings(max_examples=25, deadline=None)
@given(lines=st.lists(CONFIG_LINE, max_size=8))
def test_any_config_file_exits_0_or_2_with_one_error_line(command, checkpoints, lines):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "o"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            # --out is always a flag, so no config line can move the outputs
            code = main([str(checkpoints.get(a, a)) for a in CONFIG_ARGV[command]]
                        + ["--config", str(cfg), "--out", str(out)])
        written = {p.name for p in out.iterdir()} if out.is_dir() else set()
    assert code in (0, 2)
    if code == 0:
        assert "manifest.json" in written and err.getvalue() == ""
    else:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()


# Every flag of every command at random values. Each flag has values in
# range and edge values; each draw takes edge values for at most two flags,
# so most draws run and each edge value is met on its own. An int flag's
# range is small, so that no draw allocates more than a few MB, and its
# edge values are refused before any work; a float flag's edge values are
# EDGE_FLAG_FLOATS; both also meet text that is no number of their kind. A
# path is a test-data file, the flag's own in range and another at the
# edge. A switch is on or off, and a choice is one of its own or, at the
# edge, none of them.
BAD_INT_TEXT = ["x", "1.5", ""]
BAD_FLOAT_TEXT = ["x", ""]
EDGE_INTS = [0, -1, 2 ** 63] + BAD_INT_TEXT
EDGE_FLAG_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324]
DATA_FILES = [DATA / name for name in ("micro_corpus.jsonl", "gazetteer.txt",
                                       "fixtures.jsonl", "artworks.csv")]


def _ints(lo, hi, *edges):
    return st.integers(lo, hi), st.sampled_from(EDGE_INTS + list(edges))


def _floats(lo, hi):
    return st.floats(lo, hi), st.sampled_from(EDGE_FLAG_FLOATS + BAD_FLOAT_TEXT)


def _data_file(name):
    return st.just(DATA / name), st.sampled_from([f for f in DATA_FILES if f.name != name])


# flag -> (values in range, edge values); None leaves the flag out
FLAG_VALUES = {
    "--timesteps": _ints(1, 50, 1_000_001), "--steps": _ints(0, 3), "--batch": _ints(1, 8),
    "--hidden": _ints(1, 8), "--ddim_steps": _ints(1, 10), "--topk": _ints(1, 12),
    "--seed": (st.integers(0, 2 ** 64 - 1), st.sampled_from([-1, 2 ** 64] + BAD_INT_TEXT)),
    "--label": (st.one_of(st.none(), st.integers(0, 7)),
                st.sampled_from([-1, 8, 2 ** 63] + BAD_INT_TEXT)),
    "--lr": _floats(1e-6, 1.0), "--drop_prob": _floats(0.0, 1.0),
    "--beta_start": _floats(1e-5, 0.01), "--beta_end": _floats(0.01, 0.05),
    "--ddim_eta": _floats(0.0, 1.0), "--scale": _floats(0.0, 10.0), "--var0": _floats(0.01, 4.0),
    "--lambda1": _floats(0.0, 4.0), "--lambda2": _floats(0.0, 4.0),
    "--config": (st.none(), st.sampled_from(DATA_FILES)),
    # names of the checkpoints fixture
    "--checkpoint": (st.sampled_from(["conditional", "unconditional"]),
                     st.sampled_from([None, "time-width-8", "missing"])),
    "--mu0": (st.sampled_from(["3,-1", "-1.4,2", "0", "0.5,-2,1"]),
              st.sampled_from(["1e308,-1e308", "nan,1", "1,,2", ""])),
    "--corpus": _data_file("micro_corpus.jsonl"), "--gazetteer": _data_file("gazetteer.txt"),
    "--fixtures": _data_file("fixtures.jsonl"), "--metadata": _data_file("artworks.csv"),
    "--delimiter": (st.sampled_from([",", ";", "\t"]), st.sampled_from(['"', "\n", "", "ab"])),
    "prompt": (st.sampled_from(["urbanization of China", "painting paris 1890", "日本 1890"]),
               st.sampled_from(["", " "])),
}


# count flags whose 2**63 is refused before any work, from cli.RANGES: no
# array has an extent that large
EXTENT_FLAGS = {command: tuple(name for name in flags
                               if RANGES.get(name[2:], (0, None))[1] == 2 ** 63)
                for command, (_, _, flags) in COMMANDS.items()}
EXTENT_FLAGS = {command: flags for command, flags in EXTENT_FLAGS.items() if flags}


# the edge texts of the text flags that are no value: --mu0 is finite
# numbers, --delimiter one character, not the quote or a line break
MALFORMED_TEXT = {"--mu0": {"nan,1", "1,,2", ""}, "--delimiter": {'"', "\n", "", "ab"}}


def _malformed(name, kind, value) -> bool:
    """Whether ``value`` is text that is no number of an int or float flag's
    kind, no choice of a choice flag, or no value of a text flag."""
    if isinstance(kind, tuple):
        return value not in kind
    return ((kind in (int, float) and isinstance(value, str))
            or value in MALFORMED_TEXT.get(name, ()))


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Small checkpoints by name: conditional, unconditional, one that
    records a time width of 8, and a missing file."""
    root = tmp_path_factory.mktemp("flag-checkpoints")
    for name, switches in (("conditional", ["--conditional"]), ("unconditional", [])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["toy-train", "--dataset=8-gaussian-ring", "--steps=2", "--batch=4",
                         "--timesteps=50", f"--out={root / name}", *switches]) == 0
    arrays = load_arrays(root / "unconditional" / "checkpoint.bin")
    arrays["meta"] = np.array([2.0, 16.0, 8.0, 16.0])
    arrays["w_time"] = np.zeros((16, 8))
    save_arrays(root / "time-width-8.bin", arrays)
    return {None: None, "conditional": root / "conditional" / "checkpoint.bin",
            "unconditional": root / "unconditional" / "checkpoint.bin",
            "time-width-8": root / "time-width-8.bin", "missing": root / "missing.bin"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_random_flag_values_exit_0_1_or_2_cleanly(command, checkpoints):
    values = {}
    for name, (kind, _, _) in COMMANDS[command][2].items():
        if kind is bool:
            values[name] = (st.booleans(), None)
        elif isinstance(kind, tuple):
            values[name] = (st.sampled_from(kind), st.just(f"no-such-{name[2:]}"))
        elif name != "--out":      # every run writes to a fresh --out
            values[name] = FLAG_VALUES[name]
    if command == "compare-samplers":
        values["--batch"] = _ints(1, 2)     # each call runs a 2000-step reference
    edged = [name for name, (_, edge) in values.items() if edge is not None]

    @settings(max_examples=10 if command == "compare-samplers" else 30, deadline=None)
    @given(data=st.data())
    def check(data):
        edges = data.draw(st.sets(st.sampled_from(edged), max_size=2), label="edges")
        drawn = {name: data.draw(strategies[name in edges], label=name)
                 for name, strategies in values.items()}
        if command == "sample":
            # in range, --checkpoint is given only without --oracle, and
            # --label only with the conditional checkpoint
            if drawn["--oracle"] and "--checkpoint" not in edges:
                drawn["--checkpoint"] = None
            if drawn["--checkpoint"] != "conditional" and "--label" not in edges:
                drawn["--label"] = None
            drawn["--checkpoint"] = checkpoints[drawn["--checkpoint"]]
        argv = [command]
        for name, value in drawn.items():
            kind = COMMANDS[command][2][name][0]
            if name == "prompt":
                argv.append(value)
            elif kind is bool:
                argv += [name] if value else []
            elif value is not None:     # "=": argparse reads a separate -1e308 as a flag
                argv.append(f"{name}={value!r}" if isinstance(value, float) else f"{name}={value}")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + [f"--out={out}"])
            made, manifest = out.exists(), (out / "manifest.json").is_file()
        assert code in (0, 1, 2), argv
        if any(drawn[name] == 2 ** 63 for name in EXTENT_FLAGS.get(command, ())):
            assert code == 2, argv
        if any(_malformed(name, COMMANDS[command][2][name][0], drawn[name]) for name in edges):
            # every flag is read before any work, so one drawn at an edge is named
            lines = stderr.getvalue().splitlines()
            assert code == 2 and any(name in lines[0] or f"unknown {name[2:]} " in lines[0]
                                     for name in edges), (argv, lines)
        if code == 0:
            assert len(stdout.getvalue().splitlines()) == 1 and manifest, argv
        else:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            assert not made, argv

    check()


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in
                                           EXTENT_FLAGS.items() for flag in flags])
def test_count_flag_at_2_63_exits_2_naming_the_flag(tmp_path, command, flag):
    argv = {"toy-train": ["toy-train", "--dataset=8-gaussian-ring", "--steps=2"],
            "sample": ["sample", "--oracle"], "compare-samplers": ["compare-samplers"]}[command]
    out = tmp_path / "o"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + [f"{flag}={2 ** 63}", f"--out={out}"])
    assert code == 2 and stdout.getvalue() == "" and not out.exists()
    low = RANGES[flag[2:]][0]
    want = f"error: {flag} must be an integer in [{low}, 2**63), got {2 ** 63}\n"
    assert stderr.getvalue() == want
