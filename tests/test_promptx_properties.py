"""Property tests for tokenizing, index counting, gazetteer matching, entity
counting, the JSON Lines loaders and the artwork metadata table.

They need hypothesis (the ``test`` extra) and are skipped without it.
"""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from artdiff import promptx  # noqa: E402
from artdiff.errors import ConfigError  # noqa: E402
from artdiff.promptx import (ArtworkMeta, Document, FixtureGenerator,  # noqa: E402
                             Gazetteer, build_index, load_corpus_jsonl, read_artwork_table,
                             tfidf_fit, tfidf_from_index, tokenize)
from reference import gazetteer_match_count, temporal_count  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None)


def reference_tokenize(text):
    """The tokenizer's specification."""
    return re.findall(r"[a-z0-9]+", text.lower())


# NUL, lone surrogates, characters whose lowercase is longer (U+0130) or
# ASCII (U+212A KELVIN SIGN), ligatures, line separators and plain ASCII
EDGE_CHARS = st.sampled_from(["\x00", "\ud800", "\udfff", "\u0130", "\u212a", "\u00df",
                              "\ufb01", "\u03a3", "\u2028", "\x85", "\t", " ", "-", "_",
                              "A", "z", "Z", "0", "9", "\u00e9", "\U0001f3a8"])
TEXT = st.lists(st.one_of(st.characters(), EDGE_CHARS), max_size=40).map("".join)

# small word pool, so tokens repeat within and across documents
WORDS = st.sampled_from(["art", "Art", "ART", "river", "x1", "42", "\u00fcber", "\u212aelvin",
                         "\u0130zmir", "...", "--", "", "a", "b", "caf\u00e9"])
DOC_TEXT = st.one_of(st.lists(WORDS, max_size=12).map(" ".join), TEXT)
CORPUS = st.lists(st.tuples(DOC_TEXT, DOC_TEXT), max_size=8).map(
    lambda pairs: [Document(id=f"d{i}", title=title or ".", body=body)
                   for i, (title, body) in enumerate(pairs)])


@PROPERTY
@given(TEXT)
def test_tokenize_matches_regex_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@PROPERTY
@given(CORPUS)
def test_index_fields_match_per_document_recount(docs):
    index = build_index(docs)
    counts = [Counter(tokenize(doc.text())) for doc in docs]
    first_seen = list(dict.fromkeys(tok for doc in docs for tok in tokenize(doc.text())))
    assert list(index.vocab) == first_seen
    assert list(index.vocab.values()) == list(range(len(first_seen)))
    assert index.indptr[0] == 0 and index.indptr[-1] == len(index.doc_pos) == len(index.tfs)
    for term, row in index.vocab.items():
        lo, hi = index.indptr[row], index.indptr[row + 1]
        postings = list(zip(index.doc_pos[lo:hi].tolist(), index.tfs[lo:hi].tolist()))
        assert postings == [(pos, c[term]) for pos, c in enumerate(counts) if term in c]
    assert index.lengths.tolist() == [sum(c.values()) for c in counts]
    assert index.avgdl == (sum(sum(c.values()) for c in counts) / len(docs) if docs else 0.0)
    narrow = promptx._count_terms(tuple(docs))
    wide = promptx._count_terms(tuple(docs), int32_limit=0)
    assert narrow[0] == wide[0]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(narrow[1:], wide[1:]))


@PROPERTY
@given(CORPUS.filter(bool))
def test_tfidf_fit_equals_index_idf_and_recount(docs):
    fitted = tfidf_fit(docs)
    assert fitted.idf == tfidf_from_index(build_index(docs)).idf
    df = Counter()
    for doc in docs:
        df.update(set(tokenize(doc.text())))
    n = len(docs)
    assert fitted.idf == {term: max(0.0, math.log(n / (1.0 + count))) for term, count in df.items()}


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT,
                        st.lists(st.one_of(st.integers(), TEXT), max_size=2))
JSON_OBJECTS = st.dictionaries(
    st.sampled_from(["id", "title", "body", "prompt", "continuations", "responses", "x"]),
    JSON_VALUES, max_size=4).map(lambda obj: json.dumps(obj, ensure_ascii=False))
LINES = st.lists(st.one_of(JSON_OBJECTS, TEXT), max_size=5).map("\n".join)


# four tokens, so phrases often share a first token, one phrase is often a
# prefix of another, and single-token phrases are common
PLACE_TOKENS = st.sampled_from(["a", "b", "c", "d"])
PHRASES = st.lists(st.lists(PLACE_TOKENS, min_size=1, max_size=4).map(tuple), max_size=6)


@PROPERTY
@given(PHRASES, st.lists(PLACE_TOKENS, max_size=30))
@example([("a",), ("a", "b"), ("a", "b", "c"), ("b", "c", "d")], list("abcdabcabda"))
def test_gazetteer_match_count_equals_the_full_scan(phrases, tokens):
    gazetteer = Gazetteer(" ".join(phrase) for phrase in phrases)
    assert gazetteer.match_count(tokens) == gazetteer_match_count(set(phrases), tokens)


# Pieces that sit on the edges of the temporal patterns: non-ASCII digits
# (Arabic-Indic, Devanagari, fullwidth), characters that IGNORECASE folds
# onto ASCII letters (U+017F LONG S onto s, U+212A KELVIN SIGN onto k,
# U+0130 and U+0131 onto i) next to the month-name pieces they complete,
# underscores that glue a month name into a longer word, clock colons,
# ordinal suffixes in mixed case, and a lone surrogate
TEMPORAL_PIECES = st.sampled_from([
    "0", "1", "2", "9", "19", "1999", "2024", "3000", "07", "30", ":", " ", "_", ".", "-",
    "st", "nd", "RD", "Th", "may", "MAY", "May", "august", "March", "dEcember", "june",
    "augu", "t", "apr", "l", "\u017f", "\u212a", "\u0130", "\u0131", "\u0663", "\u0664",
    "\u0665", "\u0967", "\uff11", "\ud800"])
TEMPORAL_TEXT = st.lists(st.one_of(st.characters(), TEMPORAL_PIECES),
                         max_size=24).map("".join)
PLACES = Gazetteer(["May", "Paris", "Saint Louis"])


@settings(max_examples=300, deadline=None)
@given(TEMPORAL_TEXT)
@example("augu\u017ft")
@example("_may")
@example("\u0663:\u0664\u0665")
@example("1ST of MAY")
def test_entity_count_equals_the_ungated_scans(text):
    tokens = tokenize(text)
    assert promptx.entity_count(text, PLACES, tokens) == (
        gazetteer_match_count(PLACES.phrases, tokens), temporal_count(text))


@pytest.fixture(scope="module")
def jsonl_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "input.jsonl"


@PROPERTY
@given(text=LINES)
def test_corpus_loader_returns_documents_or_config_error(jsonl_path, text):
    jsonl_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        docs = load_corpus_jsonl(jsonl_path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{jsonl_path}:")
        assert "\n" not in str(exc)
        return
    assert all(isinstance(doc, Document) and doc.title for doc in docs)
    assert len({doc.id for doc in docs}) == len(docs)


@PROPERTY
@given(text=LINES)
def test_fixture_loader_returns_lists_of_strings_or_config_error(jsonl_path, text):
    jsonl_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        generator = FixtureGenerator.from_file(jsonl_path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{jsonl_path}:")
        assert "\n" not in str(exc)
        return
    for prompt, (continuations, responses) in generator._table.items():
        assert type(prompt) is str
        assert all(type(t) is str for t in continuations + responses)


# metadata tables: the csv specials, other delimiters, a header, cells that
# parse as a year, lone surrogates (the file is then not UTF-8) and a field
# over the csv module's limit of 131,072 characters
OVER_LONG = "x" * 131_073
HEADER = "title,artist,style,genre,year\n"
TABLE_TEXT = st.tuples(st.sampled_from(["", HEADER]), st.lists(st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x00", ";", "\t", "|", " ",
                     "1900", "-7", "Artist", "\ud800", OVER_LONG]),
    st.characters()), max_size=40).map("".join)).map("".join)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "artworks.csv"


@settings(max_examples=100, deadline=None)
@given(text=TABLE_TEXT, delimiter=st.one_of(st.sampled_from(",;\t| \"\r\n\x00"),
                                            st.characters(exclude_categories=("Cs",))))
@example(text=HEADER + "a,Solo Artist,s,g,1900\n", delimiter=",")
@example(text=f'a,"{OVER_LONG}",s,g,1900\n', delimiter=",")
def test_artwork_table_returns_rows_with_an_artist_or_config_error(table_path, text, delimiter):
    table_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        metas, malformed = read_artwork_table(table_path, delimiter)
    except ConfigError as exc:
        assert str(exc).startswith(f"{table_path}:")
        assert "\n" not in str(exc)
        return
    assert type(malformed) is int and malformed >= 0
    for meta in metas:
        assert type(meta) is ArtworkMeta
        assert meta.artist and meta.artist == meta.artist.strip()
        assert meta.year is None or type(meta.year) is int
