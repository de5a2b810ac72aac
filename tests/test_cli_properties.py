"""Property tests for the CLI's output files.

They need hypothesis (the ``test`` extra) and are skipped without it.
"""

import csv
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from artdiff.cli import _write_samples_csv, main  # noqa: E402
from artdiff.promptx import (FixtureGenerator, Gazetteer, HashEmbedder,  # noqa: E402
                             artist_histogram, build_index, extend_prompt, load_corpus_jsonl,
                             read_artwork_table, tfidf_from_index)
from reference import samples_csv_text  # noqa: E402

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
                                 FixtureGenerator.from_file(fixtures),
                                 gazetteer=Gazetteer.from_file(gazetteer))
    rows = [json.loads(line) for line in lines]
    assert rows and all(set(row) == CANDIDATE_KEYS for row in rows)
    assert rows == [vars(c) for c in expected]
