"""Property tests for tokenizing, index counting and search, gazetteer
matching, entity counting, candidate pool scoring, the JSON Lines loaders
and the artwork metadata table.

They need hypothesis (the ``test`` extra) and are skipped without it.
"""

import json
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from artdiff import promptx  # noqa: E402
from artdiff.errors import ConfigError  # noqa: E402
from artdiff.promptx import (ArtworkMeta, Document, FixtureGenerator,  # noqa: E402
                             Gazetteer, HashEmbedder, bm25_search, build_index,
                             extend_prompt, load_corpus_jsonl, read_artwork_table, tfidf_fit,
                             tfidf_from_index, tokenize)
from reference import (bm25_norms, gazetteer_match_count, ranked_candidates,  # noqa: E402
                       temporal_count)
from test_promptx import ListGenerator, brute_top_k, candidate_pool  # noqa: E402

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
    counts = [Counter(tokenize(doc.text())) for doc in index.documents]
    first_seen = list(dict.fromkeys(tok for doc in index.documents
                                    for tok in tokenize(doc.text())))
    assert list(index.vocab) == first_seen
    assert list(index.vocab.values()) == list(range(len(first_seen)))
    assert index.indptr[0] == 0 and index.indptr[-1] == len(index.doc_pos) == len(index.tfs)
    for term, row in index.vocab.items():
        lo, hi = index.indptr[row], index.indptr[row + 1]
        postings = list(zip(index.doc_pos[lo:hi].tolist(), index.tfs[lo:hi].tolist()))
        assert postings == [(pos, c[term]) for pos, c in enumerate(counts) if term in c]
    assert index.norms.tolist() == bm25_norms(index.documents)
    narrow = promptx._count_terms(tuple(docs))
    with mock.patch.object(promptx, "INT32_KEYS", 0):
        wide = promptx._count_terms(tuple(docs))
    assert narrow[0] == wide[0]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(narrow[1:], wide[1:]))


QUERY = st.lists(WORDS, max_size=5).map(" ".join)


@settings(max_examples=75, deadline=None)   # half of PROPERTY: the suite has a ~30 s budget
@given(CORPUS.flatmap(lambda docs: st.tuples(st.just(docs), st.permutations(docs))),
       st.lists(st.tuples(QUERY, st.integers(1, 10)), max_size=4))
def test_build_index_is_the_same_for_a_shuffled_corpus(pair, queries):
    docs, shuffled = pair
    index, other = build_index(docs), build_index(shuffled)
    assert index.documents == other.documents == tuple(sorted(docs, key=lambda d: d.id))
    assert list(index.vocab.items()) == list(other.vocab.items())
    for name in ("indptr", "doc_pos", "tfs", "norms"):
        a, b = getattr(index, name), getattr(other, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    for query, k in queries:
        assert bm25_search(index, query, k) == bm25_search(other, query, k)


# query words: repeats, tokens in no document ("zebra") and texts without tokens
BM25_QUERY = st.lists(st.one_of(WORDS, st.just("zebra")), max_size=6).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(CORPUS, BM25_QUERY, st.integers(1, 12))
@example([], "art", 3)
@example([Document(id="a", title="art river"), Document(id="b", title="x1")], "", 1)
@example([Document(id="a", title="art"), Document(id="b", title="river")], "zebra", 2)
@example([Document(id="a", title="river"), Document(id="b", title="art art"),
          Document(id="c", title="b")], "art art river", 12)
def test_bm25_sparse_and_dense_forms_equal_the_brute_force_ranking(docs, query, k):
    index = build_index(docs)
    n = len(index.documents)
    rows = [index.vocab[t] for t in tokenize(query) if t in index.vocab]
    postings = sum(int(index.indptr[row + 1] - index.indptr[row]) for row in rows)
    want = brute_top_k(list(index.documents), query, k)
    # 0 forces the dense form and inf the sparse one; the others put the
    # threshold just below the query's postings, at them and just above
    shares = [0.0, math.inf] + [(postings + d) / n for d in (-0.5, 0.0, 0.5) if n]
    for share in shares:
        with mock.patch.object(promptx, "SPARSE_POSTINGS", share):
            got = bm25_search(index, query, k)
        assert [(doc.id, score) for doc, score in got] == want


# candidate texts over a few words: case variants that share a key and
# score alike, place names, temporal pieces, OOV words and token-less texts
POOL_WORDS = st.sampled_from(["China", "china", "city", "Lhasa", "Pearl", "River", "river",
                              "zebra", "1980", "May", "3rd", "6:30", "!!!", "--", "art"])
POOL_TEXT = st.lists(POOL_WORDS, max_size=6).map(" ".join)
IDF = st.dictionaries(st.sampled_from(["china", "city", "lhasa", "river", "art", "1980", "may"]),
                      st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.0, 5.0)),
                      max_size=7)
LAMBDA = st.sampled_from([0.0, 0.1, 1.0, 1e308])


@settings(max_examples=100, deadline=None)
@given(POOL_TEXT, st.lists(POOL_TEXT, max_size=3), st.lists(POOL_TEXT, max_size=6),
       st.lists(POOL_TEXT, max_size=4), IDF, LAMBDA, LAMBDA, st.integers(1, 12),
       st.sampled_from([64, 7, 1]))
@example("china", [], ["China city", "china city", "!!!", "--"], [], {"china": 1.0},
         0.0, 1e308, 10, 64)
def test_extend_prompt_equals_scoring_each_candidate_alone(prompt, bodies, continuations,
                                                           responses, idf, lambda1, lambda2,
                                                           k, width):
    index = build_index([Document(id=f"d{i}", title="river", body=body)
                         for i, body in enumerate(bodies)])
    generator = ListGenerator(continuations, responses)
    gazetteer = Gazetteer(["Lhasa", "Pearl River", "China"])
    got = extend_prompt(prompt, index, idf, HashEmbedder(width), generator, lambda1, lambda2,
                        k, gazetteer)
    want = ranked_candidates(prompt, candidate_pool(prompt, index, generator, k), idf,
                             lambda1, lambda2, gazetteer.phrases, width, k)
    assert [vars(c) for c in got] == want
    for cand in got:
        assert all(type(getattr(cand, name)) is float for name in ("tfidf", "cos", "score"))
        assert type(cand.spatial_entities) is int and type(cand.temporal_entities) is int


@PROPERTY
@given(CORPUS.filter(bool))
def test_tfidf_fit_equals_index_idf_and_recount(docs):
    fitted = tfidf_fit(docs)
    assert fitted == tfidf_from_index(build_index(docs))
    df = Counter()
    for doc in docs:
        df.update(set(tokenize(doc.text())))
    n = len(docs)
    assert fitted == {term: max(0.0, math.log(n / (1.0 + count))) for term, count in df.items()}


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
