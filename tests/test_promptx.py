import math
from collections import Counter

import numpy as np
import pytest

from artdiff import promptx
from artdiff.errors import ConfigError
from artdiff.numerics import RngStream
from artdiff.promptx import (ArtworkMeta, Document, FixtureGenerator,
                             Gazetteer, HashEmbedder, PromptCandidate,
                             TfidfModel, artist_histogram, bm25_search,
                             build_index, compose_caption, cosine,
                             entity_count, extend_prompt, load_corpus_jsonl,
                             read_artwork_table, score_candidate,
                             split_sentences, tfidf_fit, tfidf_from_index,
                             tfidf_score, tokenize, top_share)
from reference import bm25_norms, gazetteer_match_count, hash_embedding


def naive_bm25_scores(docs, query, k1=1.2, b=0.75):
    """Brute-force reference: recount everything from raw text."""
    token_lists = [tokenize(d.text()) for d in docs]
    n = len(docs)
    avgdl = sum(len(toks) for toks in token_lists) / n if n else 0.0
    scores = []
    for toks in token_lists:
        dl = len(toks)
        s = 0.0
        for term in tokenize(query):
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in token_lists if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            s += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        scores.append(s)
    return scores


WORDS = ["urban", "china", "city", "train", "plateau", "village", "wheat",
         "children", "painting", "river", "sky", "night"]


def random_docs(rng, n_docs):
    docs = []
    for i in range(n_docs):
        n_title = 1 + int(rng.integers(0, 2, (1,))[0])
        n_body = 1 + int(rng.integers(0, 7, (1,))[0])
        pick = lambda m: [WORDS[int(j)] for j in rng.integers(0, len(WORDS) - 1, (m,))]
        docs.append(Document(id=f"d{i}", title=" ".join(pick(n_title)),
                             body=" ".join(pick(n_body))))
    return docs


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_case_folding():
    assert tokenize("Asian Morning") == ["asian", "morning"]


def test_tokenize_rule_application():
    assert tokenize("left-behind children, 1980!") == \
        ["left", "behind", "children", "1980"]


def test_tokenize_non_ascii_splits_like_punctuation():
    # U+212A KELVIN SIGN lowercases to ASCII "k"; U+0130 lowercases to "i"
    # plus a combining dot, which splits; NUL and a lone surrogate split too
    assert tokenize("\u212aelvin \u0130stanbul a\x00b c\ud800d caf\u00e9s") == \
        ["kelvin", "i", "stanbul", "a", "b", "c", "d", "caf", "s"]


# ---------------------------------------------------------------------------
# BM25
# ---------------------------------------------------------------------------

def test_build_index_empty_corpus():
    index = build_index([])
    assert index.documents == ()
    assert bm25_search(index, "anything", 5) == []


def test_build_index_single_doc_avgdl():
    index = build_index([Document(id="a", title="one two", body="three four")])
    # the one document has the mean length 4, so its norm is k1 exactly
    assert index.norms.tolist() == bm25_norms(index.documents) == [1.2]


def test_build_index_postings_match_recount():
    docs = [
        Document(id="a", title="china city", body="urban urban china"),
        Document(id="b", title="train plateau", body=""),
        Document(id="c", title="wheat", body="village wheat wheat"),
    ]
    index = build_index(docs)
    assert index.indptr[-1] == len(index.doc_pos) == len(index.tfs)
    assert index.indptr[-1] == sum(len(set(tokenize(d.text()))) for d in docs)
    for pos, doc in enumerate(index.documents):
        toks = tokenize(doc.text())
        for term in set(toks):
            row = index.vocab[term]
            lo, hi = index.indptr[row], index.indptr[row + 1]
            row_docs = index.doc_pos[lo:hi].tolist()
            assert row_docs == sorted(row_docs)
            assert dict(zip(row_docs, index.tfs[lo:hi].tolist()))[pos] == toks.count(term)
    assert index.norms.tolist() == bm25_norms(index.documents)


def test_count_terms_int64_keys_match_int32_keys(data_dir):
    docs = tuple(load_corpus_jsonl(data_dir / "micro_corpus.jsonl"))
    narrow = promptx._count_terms(docs)
    wide = promptx._count_terms(docs, int32_limit=0)   # forces int64 keys
    assert len(narrow[0]) * len(docs) < 2**31
    assert narrow[0] == wide[0] and list(narrow[0]) == list(wide[0])
    for a, b in zip(narrow[1:], wide[1:]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_build_index_duplicate_id():
    with pytest.raises(ValueError):
        build_index([Document(id="a", title="x"), Document(id="a", title="y")])


def test_document_requires_title():
    with pytest.raises(ValueError):
        Document(id="a", title="")


def test_bm25_empty_query_scores_zero():
    docs = [Document(id="a", title="china"), Document(id="b", title="city")]
    results = bm25_search(build_index(docs), "", 2)
    assert [score for _, score in results] == [0.0, 0.0]
    assert [doc.id for doc, _ in results] == ["a", "b"]  # tie -> ascending id


def test_bm25_single_doc_worked_example():
    # one document, query term present once, dl = avgdl
    index = build_index([Document(id="a", title="china city train wheat")])
    ((doc, score),) = bm25_search(index, "china", 1)
    assert score == pytest.approx(0.287682, abs=1e-6)
    assert score == pytest.approx(math.log(1 + 0.5 / 1.5), rel=1e-12)


def test_bm25_both_terms_outrank_one():
    docs = [
        Document(id="one", title="china wheat", body="sky river"),
        Document(id="two", title="china city", body="sky river"),
        Document(id="pad", title="night night", body="sky river"),
    ]
    index = build_index(docs)
    results = bm25_search(index, "china city", 3)
    assert results[0][0].id == "two"
    brute = naive_bm25_scores(docs, "china city")
    assert brute[1] > brute[0] > brute[2]


def test_bm25_matches_brute_force_exactly():
    rng = RngStream(101)
    for trial in range(200):
        n_docs = 1 + int(rng.integers(0, 9, (1,))[0])
        docs = random_docs(rng, n_docs)
        index = build_index(docs)
        q_len = int(rng.integers(1, 4, (1,))[0])
        query = " ".join(WORDS[int(j)] for j in rng.integers(0, len(WORDS) - 1, (q_len,)))
        got = bm25_search(index, query, n_docs)
        want = naive_bm25_scores(docs, query)
        by_id = {doc.id: score for doc, score in got}
        for doc, score in zip(docs, want):
            assert by_id[doc.id] == score  # exact float equality


def test_bm25_rank_is_deterministic_with_ties():
    docs = [Document(id=c, title="china") for c in "zyx"]
    results = bm25_search(build_index(docs), "china", 3)
    assert [doc.id for doc, _ in results] == ["x", "y", "z"]


def brute_top_k(docs, query, k):
    """(id, score) of the k best documents under the brute-force scores,
    ordered by descending score, then ascending id."""
    want = naive_bm25_scores(docs, query)
    order = sorted(range(len(docs)), key=lambda i: (-want[i], docs[i].id))
    return [(docs[i].id, want[i]) for i in order[:k]]


def random_query(rng):
    """One to four tokens; "zebra" is in no document."""
    vocab = WORDS + ["zebra"]
    q_len = int(rng.integers(1, 4, (1,))[0])
    return " ".join(vocab[int(j)] for j in rng.integers(0, len(vocab) - 1, (q_len,)))


def test_bm25_bounded_top_k_matches_brute_force():
    rng = RngStream(202)
    for trial in range(150):
        n_docs = 2 + int(rng.integers(0, 30, (1,))[0])
        docs = random_docs(rng, n_docs)
        # ids in an order unrelated to corpus position, so that the tie
        # break on id is not the positional order
        ids = [f"doc-{int(j)}" for j in rng.integers(0, 10**6, (n_docs,))]
        if len(set(ids)) < n_docs:
            continue
        docs = [Document(id=i, title=d.title, body=d.body) for i, d in zip(ids, docs)]
        index = build_index(docs)
        query = random_query(rng)
        k = 1 + int(rng.integers(0, n_docs - 2, (1,))[0])   # 1 <= k < n_docs
        got = [(doc.id, score) for doc, score in bm25_search(index, query, k)]
        assert got == brute_top_k(docs, query, k)  # ids and exact scores


def test_bm25_top_k_keeps_id_order_for_ties_at_the_cut():
    docs = [Document(id="m", title="china city"), Document(id="d", title="china"),
            Document(id="c", title="china"), Document(id="b", title="china"),
            Document(id="a", title="wheat")]
    got = bm25_search(build_index(docs), "china city", 3)
    # b, c and d tie for second place; the cut after the third keeps b, c
    assert [doc.id for doc, _ in got] == ["m", "b", "c"]
    assert got[1][1] == got[2][1] == naive_bm25_scores(docs, "china city")[1]
    assert [(doc.id, s) for doc, s in got] == brute_top_k(docs, "china city", 3)


def test_bm25_pads_with_zero_score_documents_in_id_order():
    docs = [Document(id="c", title="river"), Document(id="a", title="sky"),
            Document(id="d", title="china"), Document(id="b", title="night")]
    got = bm25_search(build_index(docs), "china", 3)
    assert [doc.id for doc, _ in got] == ["d", "a", "b"]
    assert got[0][1] > 0.0
    assert [s for _, s in got[1:]] == [0.0, 0.0]


def test_bm25_repeated_query_tokens_count_per_occurrence():
    docs = random_docs(RngStream(5), 12)
    index = build_index(docs)
    for query in ("china china", "city china city", "river river river",
                  "china zebra city china river china city zebra"):
        got = [(doc.id, s) for doc, s in bm25_search(index, query, 4)]
        assert got == brute_top_k(docs, query, 4)
        got = [(doc.id, s) for doc, s in bm25_search(index, query, 12)]
        assert got == brute_top_k(docs, query, 12)
    once = dict((d.id, s) for d, s in bm25_search(index, "china", 12))
    twice = dict((d.id, s) for d, s in bm25_search(index, "china china", 12))
    assert all(twice[i] == once[i] + once[i] for i in once)


def test_bm25_out_of_vocabulary_query_returns_first_ids():
    docs = [Document(id=c, title="china city") for c in "dbca"]
    got = bm25_search(build_index(docs), "zebra unicorn", 2)
    assert [(doc.id, s) for doc, s in got] == [("a", 0.0), ("b", 0.0)]


def test_bm25_k_larger_than_corpus_returns_every_document():
    docs = random_docs(RngStream(9), 5)
    got = bm25_search(build_index(docs), "china river", 50)
    assert [(doc.id, s) for doc, s in got] == brute_top_k(docs, "china river", 5)


def test_bm25_rejects_bad_k():
    index = build_index([Document(id="a", title="china")])
    for k in (0, -1):
        with pytest.raises(ValueError):
            bm25_search(index, "china", k)


def test_bm25_norms_equal_the_scalar_formula_and_are_read_only():
    index = build_index(random_docs(np.random.default_rng(5), 40))
    assert index.norms.dtype == np.float64
    assert index.norms.tolist() == bm25_norms(index.documents)
    with pytest.raises(ValueError):
        index.norms[0] = 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bm25_on_a_corpus_without_tokens_warns_nothing():
    index = build_index([Document(id="b", title="???"), Document(id="a", title="!!!")])
    assert not any(tokenize(doc.text()) for doc in index.documents)
    assert index.norms.tolist() == [1.2 * (1.0 - 0.75)] * 2
    got = bm25_search(index, "anything at all", 5)
    assert [(doc.id, score) for doc, score in got] == [("a", 0.0), ("b", 0.0)]


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

def test_tfidf_oov_scores_zero():
    model = tfidf_fit([Document(id="a", title="china city")])
    assert tfidf_score(model, tokenize("wheat plateau")) == 0.0
    assert tfidf_score(model, tokenize("")) == 0.0


def test_tfidf_single_doc_convention():
    # every term has df = N = 1, so idf = ln(1/2) clamps to 0 and the score
    # of the document against itself is 0 under the stated convention
    doc = Document(id="a", title="china city urban")
    model = tfidf_fit([doc])
    assert model.idf["china"] == 0.0
    assert tfidf_score(model, tokenize(doc.text())) == 0.0


def test_tfidf_hand_computation():
    docs = [
        Document(id="a", title="china city china"),
        Document(id="b", title="wheat village"),
        Document(id="c", title="river sky"),
        Document(id="d", title="night train"),
    ]
    model = tfidf_fit(docs)
    # idf(china) = idf(city) = ln(4 / (1 + 1)) = ln 2; text tokens are
    # (china, china, city) so occurrence values are (2/3, 2/3, 1/3) * ln 2
    expect = ((2 / 3) * math.log(2.0) * 2 + (1 / 3) * math.log(2.0)) / 3
    assert tfidf_score(model, tokenize("china china city")) == pytest.approx(expect, rel=1e-12)


def test_tfidf_idf_decreases_when_term_spreads():
    base = [
        Document(id="a", title="china city"),
        Document(id="b", title="wheat"),
        Document(id="c", title="river"),
        Document(id="d", title="sky"),
    ]
    grown = base + [Document(id="e", title="china train")]
    idf_before = tfidf_fit(base).idf["china"]
    idf_after = tfidf_fit(grown).idf["china"]
    assert idf_after < idf_before


def test_tfidf_from_index_equals_tfidf_fit(data_dir):
    corpora = [load_corpus_jsonl(data_dir / "micro_corpus.jsonl")]
    rng = RngStream(303)
    corpora += [random_docs(rng, 1 + int(rng.integers(0, 40, (1,))[0])) for _ in range(30)]
    for docs in corpora:
        fitted = tfidf_fit(docs)
        derived = tfidf_from_index(build_index(docs))
        assert derived.idf == fitted.idf  # same keys, exact floats


def test_tfidf_idf_equals_the_per_term_formula_bit_for_bit(data_dir):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    n = len(docs)
    token_sets = [set(tokenize(doc.text())) for doc in docs]
    for model in (tfidf_fit(docs), tfidf_from_index(build_index(docs))):
        assert model.idf.keys() == set().union(*token_sets)
        for term, idf in model.idf.items():
            df = sum(term in tokens for tokens in token_sets)
            assert type(idf) is float
            assert idf == max(0.0, math.log(n / (1.0 + df)))


def test_tfidf_fit_of_an_empty_corpus_is_an_empty_idf_table():
    # the general path: no document, no term, and every text scores 0
    model = tfidf_fit([])
    assert model == TfidfModel(idf={})
    assert tfidf_score(model, tokenize("urbanization of China")) == 0.0


def test_tfidf_from_index_of_an_empty_index_is_an_empty_idf_table():
    model = tfidf_from_index(build_index([]))
    assert model == TfidfModel(idf={})
    assert tfidf_score(model, tokenize("urbanization of China")) == 0.0


def test_tfidf_fit_accepts_duplicate_ids():
    # build_index rejects duplicate ids; the TF-IDF fit counts every document
    docs = [Document(id="a", title="china city"), Document(id="a", title="china"),
            Document(id="b", title="wheat")]
    assert tfidf_fit(docs).idf == {"china": 0.0, "city": math.log(3 / 2),
                                   "wheat": math.log(3 / 2)}


# ---------------------------------------------------------------------------
# cosine and embedder
# ---------------------------------------------------------------------------

def test_cosine_examples():
    v = np.array([0.3, -0.4])
    assert cosine(v, v) == pytest.approx(1.0, rel=1e-12)
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) \
        == pytest.approx(0.707107, abs=1e-6)
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    with pytest.raises(ValueError):
        cosine(np.zeros(2), np.zeros(3))


def test_hash_embedder_deterministic_and_vocab_sensitive():
    e = HashEmbedder()
    a = e.embed("urbanization of China")
    b = e.embed("urbanization of China")
    assert np.array_equal(a, b)
    assert a.shape == (64,)
    shared = cosine(e.embed("china city growth"), e.embed("china city towers"))
    disjoint = cosine(e.embed("china city growth"), e.embed("wheat village night"))
    assert shared > disjoint


def test_embedder_scaling_leaves_cosine_unchanged():
    e = HashEmbedder()
    u = e.embed("urban china")
    v = e.embed("china train")
    assert cosine(3.7 * u, 3.7 * v) == pytest.approx(cosine(u, v), rel=1e-12)


class ScaledEmbedder:
    def __init__(self, base, factor):
        self.base = base
        self.factor = factor

    def embed(self, text):
        return self.factor * self.base.embed(text)

    def embed_tokens(self, token_lists):
        return self.factor * self.base.embed_tokens(token_lists)


def test_embedder_scaling_leaves_ranking_unchanged(data_dir):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    index = build_index(docs)
    model = tfidf_fit(docs)
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    base = extend_prompt("urbanization of China", index, model, HashEmbedder(),
                         gen, 1.0, 0.1, 12, gaz)
    scaled = extend_prompt("urbanization of China", index, model,
                           ScaledEmbedder(HashEmbedder(), 41.5), gen,
                           1.0, 0.1, 12, gaz)
    assert [c.text for c in base] == [c.text for c in scaled]


@pytest.mark.parametrize("width", [64, 7])
def test_embed_tokens_rows_equal_the_scalar_accumulation(width):
    e = HashEmbedder(width)
    token_lists = [[], tokenize("china city china china"), ["city", "wheat"], [],
                   tokenize("night train to the river city at night"), ["china"]]
    got = e.embed_tokens(token_lists)
    assert got.shape == (len(token_lists), width) and got.dtype == np.float64
    for row, tokens in zip(got, token_lists):
        assert np.array_equal(row, hash_embedding(tokens, width))
        assert not np.signbit(row[row == 0.0]).any()   # no -0.0
    assert np.array_equal(e.embed("China, city; china CHINA"), got[1])
    assert np.array_equal(e.embed("!!!"), np.zeros(width))
    assert e.embed_tokens([]).shape == (0, width)


def test_cosine_of_a_matrix_is_each_row_cosine():
    e = HashEmbedder()
    texts = ["urbanization of China", "china city growth", "!!!", "wheat village night",
             "China china", "urbanization of China"]
    u, rows = e.embed(texts[0]), np.array([e.embed(t) for t in texts])
    got = cosine(u, rows)
    assert got.shape == (len(texts),) and got.dtype == np.float64
    assert got.tolist() == [cosine(u, row) for row in rows]
    assert got[2] == 0.0 and got[-1] == got[0] == pytest.approx(1.0, rel=1e-12)
    assert cosine(np.zeros(64), rows).tolist() == [0.0] * len(texts)
    assert cosine(u, rows[:0]).shape == (0,)
    for bad in (np.zeros((2, 3)), np.zeros((2, 2, 64)), np.zeros((64, 2))):
        with pytest.raises(ValueError):
            cosine(u, bad)


# ---------------------------------------------------------------------------
# entity counting
# ---------------------------------------------------------------------------

def make_gazetteer():
    return Gazetteer(["Shenzhen", "Qinghai-Tibet Plateau", "China"])


def count_entities(text, gazetteer):
    return entity_count(text, gazetteer, tokenize(text))


def test_entity_count_none():
    assert count_entities("a cat", make_gazetteer()) == (0, 0)


def test_entity_count_place_and_year():
    assert count_entities("Shenzhen in 1980", make_gazetteer()) == (1, 1)


def test_entity_count_longest_match_and_times():
    got = count_entities("Qinghai-Tibet Plateau at 7:30 in March", make_gazetteer())
    assert got == (1, 2)


def test_entity_count_ordinal_and_month():
    spatial, temporal = count_entities("the 3rd of March, 2024 in China",
                                       make_gazetteer())
    assert spatial == 1
    assert temporal == 3  # ordinal day + month + year


def test_entity_year_bounds():
    gaz = Gazetteer([])
    assert count_entities("year 999", gaz) == (0, 0)
    assert count_entities("year 1000", gaz) == (0, 1)
    assert count_entities("year 2999", gaz) == (0, 1)
    assert count_entities("year 3000", gaz) == (0, 0)


def test_gazetteer_non_overlapping():
    gaz = Gazetteer(["china", "china city"])
    # longest match consumes both tokens, leaving no second match
    assert gaz.match_count(tokenize("china city")) == 1
    assert gaz.match_count(tokenize("china china city")) == 2
    gaz = Gazetteer(["China", "China City", "china city north gate", "Lhasa", "Pearl River"])
    assert gaz.longest == {"china": 4, "lhasa": 1, "pearl": 2}
    tokens = tokenize("china city north china lhasa pearl river china city north gate")
    assert gaz.match_count(tokens) == gazetteer_match_count(gaz.phrases, tokens) == 5


# ---------------------------------------------------------------------------
# candidate scoring
# ---------------------------------------------------------------------------

class StubEmbedder:
    """Fixed vectors chosen so the cosine is exactly 0.8."""

    def embed(self, text):
        if text == "query text":
            return np.array([5.0, 0.0])
        return np.array([4.0, 3.0])


def scored(u, v, model, lambda1, lambda2, gazetteer, embedder=HashEmbedder()):
    """``score_candidate`` of text v for prompt u, with v's tokens and the
    embedder's cosine, as ``extend_prompt`` passes them."""
    cos = cosine(embedder.embed(u), embedder.embed(v))
    return score_candidate(v, tokenize(v), cos, model, lambda1, lambda2, gazetteer)


def test_score_candidate_worked_example():
    model = TfidfModel(idf={"shenzhen": 1.0, "1980": 1.0})
    gaz = Gazetteer(["Shenzhen"])
    cand = scored("query text", "shenzhen 1980", model, lambda1=0.5, lambda2=0.1,
                  gazetteer=gaz, embedder=StubEmbedder())
    assert cand.tfidf == 0.5
    assert cand.cos == 0.8
    assert (cand.spatial_entities, cand.temporal_entities) == (1, 1)
    assert cand.score == pytest.approx(1.1, abs=1e-12)
    assert cand.score == 0.5 + 0.5 * 0.8 + 0.1 * 2


def test_score_candidate_reduces_to_tfidf():
    model = TfidfModel(idf={"china": 0.7})
    cand = scored("u", "china", model, 0.0, 0.1, Gazetteer([]))
    assert cand.score == cand.tfidf == pytest.approx(0.7, rel=1e-12)


def test_score_candidate_self_similarity():
    model = TfidfModel(idf={})
    cand = scored("urban china", "urban china", model, lambda1=0.6, lambda2=0.0,
                  gazetteer=Gazetteer([]))
    assert cand.cos == pytest.approx(1.0, rel=1e-12)
    assert cand.score == pytest.approx(0.6, rel=1e-12)


def test_score_candidate_monotone_in_components():
    gaz = Gazetteer(["china"])
    lo = TfidfModel(idf={"china": 0.2})
    hi = TfidfModel(idf={"china": 0.9})
    base = scored("china", "china", lo, 1.0, 0.1, gaz)
    richer_tfidf = scored("china", "china", hi, 1.0, 0.1, gaz)
    assert richer_tfidf.score >= base.score
    with_entity = scored("china", "china in 1980", lo, 1.0, 0.1, gaz)
    without_year = scored("china", "china in town", lo, 1.0, 0.1, gaz)
    assert with_entity.temporal_entities > without_year.temporal_entities
    assert with_entity.score >= without_year.score


BAD_LAMBDAS = [float("nan"), float("inf"), -1.0]


def test_prompt_candidate_source_validation():
    with pytest.raises(ValueError):
        PromptCandidate(text="x", source="weird", tfidf=0, cos=0,
                        spatial_entities=0, temporal_entities=0, score=0)


# ---------------------------------------------------------------------------
# extend_prompt
# ---------------------------------------------------------------------------

class EmptyGenerator:
    def continuations(self, prompt):
        return []

    def responses(self, prompt):
        return []


def test_extend_prompt_empty_everything():
    index = build_index([])
    model = TfidfModel(idf={})
    got = extend_prompt("anything", index, model, HashEmbedder(),
                        EmptyGenerator(), 1.0, 0.1, 5, Gazetteer([]))
    assert got == []


@pytest.mark.parametrize("bad", BAD_LAMBDAS, ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("which", ["lambda1", "lambda2"])
def test_extend_prompt_rejects_non_finite_and_negative_lambdas(data_dir, which, bad):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    index = build_index(docs)
    model = tfidf_from_index(index)
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    lambdas = {"lambda1": 1.0, "lambda2": 0.1, which: bad}
    for u, idx, g in (("urbanization of China", index, gen),
                      ("anything", build_index([]), EmptyGenerator())):   # and an empty pool
        with pytest.raises(ValueError, match="finite"):
            extend_prompt(u, idx, model, HashEmbedder(), g, k=10, **lambdas)


def test_extend_prompt_surfaces_relevant_sentence():
    docs = [
        Document(id="rel", title="Urbanization",
                 body="The urbanization of china accelerated. Cats sleep."),
        Document(id="noise", title="Night sky", body="Stars shine at night."),
    ]
    index = build_index(docs)
    model = tfidf_fit(docs)
    got = extend_prompt("urbanization of china", index, model, HashEmbedder(),
                        EmptyGenerator(), 1.0, 0.1, 10, Gazetteer(["china"]))
    texts = [c.text for c in got]
    assert "The urbanization of china accelerated." in texts
    best = got[0]
    assert best.score > 0.0
    assert "urbanization" in best.text.lower()


def test_extend_prompt_order_invariant_to_pool_order():
    docs = [
        Document(id="a", title="China city", body="Towers rise in Shenzhen."),
        Document(id="b", title="Wheat", body="Children run in wheat fields."),
        Document(id="c", title="Trains", body="A train crosses the plateau in 2006."),
    ]
    model = tfidf_fit(docs)
    gaz = make_gazetteer()
    gen = EmptyGenerator()
    ranked1 = extend_prompt("china train", build_index(docs), model,
                            HashEmbedder(), gen, 1.0, 0.1, 10, gaz)
    ranked2 = extend_prompt("china train", build_index(list(reversed(docs))),
                            model, HashEmbedder(), gen, 1.0, 0.1, 10, gaz)
    assert [(c.text, c.score) for c in ranked1] == [(c.text, c.score) for c in ranked2]
    scores = [c.score for c in ranked1]
    assert scores == sorted(scores, reverse=True)


def test_extend_prompt_uses_generators_and_dedupes(data_dir):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    index = build_index(docs)
    model = tfidf_fit(docs)
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    got = extend_prompt("urbanization of China", index, model, HashEmbedder(),
                        gen, 1.0, 0.1, 50, gaz)
    sources = {c.source for c in got}
    assert "generator-continuation" in sources
    assert "generator-response" in sources
    assert "wiki-sentence" in sources
    normalized = [" ".join(tokenize(c.text)) for c in got]
    assert len(normalized) == len(set(normalized))
    # the duplicated train sentence appears exactly once
    train_hits = [c for c in got if "train runs on the snow" in c.text]
    assert len(train_hits) == 1


class CountingEmbedder(HashEmbedder):
    """Records the text of each ``embed`` call and the token lists of each
    ``embed_tokens`` call made from outside ``embed``."""

    def __init__(self):
        super().__init__()
        self.texts = []
        self.batches = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed_tokens([tokenize(text)])[0]

    def embed_tokens(self, token_lists):
        self.batches.append(list(token_lists))
        return super().embed_tokens(token_lists)


def test_extend_prompt_embeds_prompt_once_per_call(data_dir):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    index = build_index(docs)
    model = tfidf_from_index(index)
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    u = "urbanization of China"
    counting = CountingEmbedder()
    for call in (1, 2):
        got = extend_prompt(u, index, model, counting, gen, 1.0, 0.1, 10, gaz)
        assert len(counting.batches) == call   # one batch per call
        prompts = [batch[0] for batch in counting.batches]
        assert prompts == [tokenize(u)] * call
        assert sum(batch.count(tokenize(u)) for batch in counting.batches) == call
    assert counting.texts == []
    assert all(len(batch) > 2 for batch in counting.batches)   # the candidates were embedded too
    plain = extend_prompt(u, index, model, HashEmbedder(), gen, 1.0, 0.1, 10, gaz)
    assert got == plain


def test_score_candidate_uses_a_given_cosine(data_dir):
    model = tfidf_fit(load_corpus_jsonl(data_dir / "micro_corpus.jsonl"))
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    u, v = "urbanization of China", "Shenzhen grew in 1980."
    fresh = scored(u, v, model, 1.0, 0.1, gaz)
    assert fresh.cos == cosine(HashEmbedder().embed(u), HashEmbedder().embed(v))
    other = score_candidate(v, tokenize(v), 0.25, model, 1.0, 0.1, gaz)
    assert other.cos == 0.25
    assert other.score == fresh.tfidf + 0.25 + 0.1 * (fresh.spatial_entities
                                                      + fresh.temporal_entities)


class ListGenerator:
    def __init__(self, continuations, responses=()):
        self._continuations, self._responses = list(continuations), list(responses)

    def continuations(self, prompt):
        return list(self._continuations)

    def responses(self, prompt):
        return list(self._responses)


@pytest.mark.parametrize("width", [64, 7])
def test_extend_prompt_candidates_equal_one_by_one_scoring(data_dir, monkeypatch, width):
    index = build_index(load_corpus_jsonl(data_dir / "micro_corpus.jsonl"))
    model = tfidf_from_index(index)
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    fixtures = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    u = "urbanization of China"
    token_less = ListGenerator(["!!!", " ", "China city at 6:30"] + fixtures.continuations(u),
                               ["... --- ..."] + fixtures.responses(u))
    calls = []
    real_score = promptx.score_candidate

    def recording_score(v, tokens, cos, model, lambda1, lambda2, gaz, source):
        cand = real_score(v, tokens, cos, model, lambda1, lambda2, gaz, source)
        calls.append((v, tokens, model, lambda1, lambda2, gaz, source, cand))
        return cand

    monkeypatch.setattr(promptx, "score_candidate", recording_score)
    e = HashEmbedder(width)
    for prompt, gen, k in ((u, fixtures, 10), (u, token_less, 50), ("Asian morning", fixtures, 3),
                           ("!!!", token_less, 50)):
        calls.clear()
        got = extend_prompt(prompt, index, model, e, gen, 0.7, 0.2, k, gaz)
        assert len(calls) >= len(got) > 0
        for v, tokens, model_, lambda1, lambda2, gaz_, source, cand in calls:
            assert tokens == tokenize(v)
            cos = cosine(e.embed(prompt), e.embed(v))     # one vector at a time
            alone = real_score(v, tokens, cos, model_, lambda1, lambda2, gaz_, source)
            assert vars(cand) == vars(alone)
            assert type(cand.cos) is float
        assert all(any(c == cand for *_, cand in calls) for c in got)
        if gen is token_less:
            blank = [cand for *_, cand in calls if cand.text in ("!!!", "... --- ...")]
            assert len(blank) == 2 and all(c.cos == 0.0 for c in blank)


def test_score_candidate_with_its_token_list_equals_tokenizing_again(data_dir):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    model = tfidf_fit(docs)
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    u = "urbanization of China"
    texts = [s for doc in docs for s in split_sentences(doc.title) + split_sentences(doc.body)]
    texts += gen.continuations(u) + gen.responses(u)
    for v in texts + ["!!!", "China, China city; 3rd of May 2024 at 7:30"]:
        with_tokens = scored(u, v, model, 1.0, 0.1, gaz)
        assert with_tokens.tfidf == tfidf_score(model, tokenize(v))
        assert (with_tokens.spatial_entities, with_tokens.temporal_entities) == \
            entity_count(v, gaz, tokenize(v))


def test_extend_prompt_tokenizes_each_candidate_at_most_twice(data_dir, monkeypatch):
    index = build_index(load_corpus_jsonl(data_dir / "micro_corpus.jsonl"))
    model = tfidf_from_index(index)
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    gaz = Gazetteer.from_file(data_dir / "gazetteer.txt")
    prompts = ("urbanization of China", "Asian morning")
    plain = [extend_prompt(u, index, model, HashEmbedder(), gen, 1.0, 0.1, 10, gaz)
             for u in prompts]
    calls = Counter()
    real_tokenize, real_score = promptx.tokenize, promptx.score_candidate

    def counting_tokenize(text):
        calls["tokenize"] += 1
        return real_tokenize(text)

    def counting_score(*args, **kwargs):
        calls["scored"] += 1
        return real_score(*args, **kwargs)

    monkeypatch.setattr(promptx, "tokenize", counting_tokenize)
    monkeypatch.setattr(promptx, "score_candidate", counting_score)
    for u, expected in zip(prompts, plain):
        calls.clear()
        assert extend_prompt(u, index, model, HashEmbedder(), gen, 1.0, 0.1, 10, gaz) == expected
        assert calls["scored"] > 10
        # the prompt is tokenized twice: once for BM25, once for its embedding
        assert calls["tokenize"] <= calls["scored"] + 2


@pytest.fixture
def temporal_scans(monkeypatch):
    """Counts the ``findall`` calls of each temporal pattern in ``promptx``."""
    calls = Counter()

    class CountingPattern:
        def __init__(self, name, pattern):
            self.name, self.pattern = name, pattern

        def findall(self, text):
            calls[self.name] += 1
            return self.pattern.findall(text)

    for name in ("_YEAR_RE", "_CLOCK_RE", "_MONTH_RE", "_ORDINAL_DAY_RE"):
        monkeypatch.setattr(promptx, name, CountingPattern(name, getattr(promptx, name)))
    return calls


def test_extend_prompt_runs_no_temporal_pattern_without_digits_or_months(temporal_scans):
    # a count guard, no timing: every pooled text is ASCII with no digit and
    # no month token, so no temporal pattern can match and none runs
    docs = [Document(id="a", title="Red river", body="The river runs by the mill. Boats rest!"),
            Document(id="b", title="Mill", body="Grain comes to the mill at dusk.")]
    index = build_index(docs)
    gen = FixtureGenerator({"river mill": (["a quiet river"], ["the mill, marching on"])})
    got = extend_prompt("river mill", index, tfidf_from_index(index), HashEmbedder(), gen,
                        1.0, 0.1, 10, Gazetteer(["Red River"]))
    assert len(got) == 7
    assert temporal_scans == {}


@pytest.mark.parametrize("text, scans", [
    ("the 3rd bell, 1999", {"_YEAR_RE", "_CLOCK_RE", "_ORDINAL_DAY_RE"}),
    ("\u0663:\u0664\u0665", {"_YEAR_RE", "_CLOCK_RE", "_ORDINAL_DAY_RE", "_MONTH_RE"}),
    ("early March light", {"_MONTH_RE"}),
    ("_may", {"_MONTH_RE"}),
    ("caf\u00e9 light", {"_MONTH_RE"}),
    ("mayday, maytime", set()),
])
def test_entity_count_runs_a_temporal_pattern_only_where_it_could_match(temporal_scans,
                                                                        text, scans):
    # a digit runs the three digit patterns; a month token, or any non-ASCII
    # character, runs the month pattern
    entity_count(text, Gazetteer([]), tokenize(text))
    assert temporal_scans == Counter(dict.fromkeys(scans, 1))


def test_extend_prompt_top_k():
    docs = [Document(id="a", title="china", body="China grows. China builds. China paints.")]
    model = tfidf_fit(docs)
    got = extend_prompt("china", build_index(docs), model, HashEmbedder(),
                        EmptyGenerator(), 1.0, 0.0, 2, Gazetteer([]))
    assert len(got) == 2


def test_split_sentences_rule():
    text = "One grows. Two builds! Three? Four"
    assert split_sentences(text) == ["One grows.", "Two builds!", "Three?", "Four"]


def test_fixture_generator_unknown_prompt(data_dir):
    gen = FixtureGenerator.from_file(data_dir / "fixtures.jsonl")
    assert gen.continuations("missing prompt") == []
    assert gen.responses("missing prompt") == []


@pytest.mark.parametrize("line, message", [
    ('{"continuations": []}', "missing field 'prompt'"),
    ('{"prompt": 3}', "field 'prompt' must be a string, got an integer"),
    ('{"prompt": "y", "continuations": "text"}',
     "field 'continuations' must be an array, got a string"),
    ('{"prompt": "y", "responses": ["ok", null]}', "every entry of 'responses' must be a string"),
    ('"y"', "expected a JSON object, got a string"),
    ('{"prompt": "y"} {}', "invalid JSON: extra data (column 17)"),
])
def test_fixture_generator_rejects_malformed_line(tmp_path, line, message):
    path = tmp_path / "fixtures.jsonl"
    path.write_text('{"prompt": "x", "responses": ["ok"]}\n\n' + line + "\n")
    with pytest.raises(ConfigError) as info:
        FixtureGenerator.from_file(path)
    assert str(info.value) == f"{path}:3: {message}"


def test_fixture_generator_joins_lines_of_a_repeated_prompt(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text('{"prompt": "a", "responses": ["first"]}\n'
                    '{"prompt": "b", "continuations": ["other"]}\n'
                    '{"prompt": "a", "continuations": ["more"], "responses": ["second"]}\n')
    gen = FixtureGenerator.from_file(path)
    assert gen.responses("a") == ["first", "second"]
    assert gen.continuations("a") == ["more"]
    assert gen.continuations("b") == ["other"]


# ---------------------------------------------------------------------------
# captions and histograms
# ---------------------------------------------------------------------------

def test_compose_caption_full():
    meta = ArtworkMeta(title="Starry Night", artist="Vincent van Gogh",
                       style="Post-Impressionism", genre="landscape", year=1889)
    assert compose_caption(meta) == ("Starry Night, a landscape painting by "
                                     "Vincent van Gogh in Post-Impressionism style, 1889")


def test_compose_caption_missing_year():
    meta = ArtworkMeta(title="Starry Night", artist="Vincent van Gogh",
                       style="Post-Impressionism", genre="landscape")
    assert compose_caption(meta) == ("Starry Night, a landscape painting by "
                                     "Vincent van Gogh in Post-Impressionism style")


def test_compose_caption_missing_style_and_genre():
    meta = ArtworkMeta(title="Starry Night", artist="Vincent van Gogh")
    assert compose_caption(meta) == "Starry Night, a painting by Vincent van Gogh"


def test_compose_caption_requires_artist():
    with pytest.raises(ValueError):
        compose_caption(ArtworkMeta(title="x", artist=""))


def test_compose_caption_roundtrip_parse():
    import re
    pattern = re.compile(
        r"^(?:(?P<title>.+), )?a(?: (?P<genre>.+?))? painting by (?P<artist>.+?)"
        r"(?: in (?P<style>.+?) style)?(?:, (?P<year>\d+))?$")
    rng = RngStream(55)
    vocab = ["Nocturne", "Harvest", "Delta", "Mist", "Orchard"]
    artists = ["Ada Vale", "Bo Chen", "Mira Holt"]
    styles = ["", "Symbolism", "Realism"]
    genres = ["", "landscape", "portrait"]
    seen = set()
    for _ in range(200):
        meta = ArtworkMeta(
            title=vocab[int(rng.integers(0, 4, (1,))[0])],
            artist=artists[int(rng.integers(0, 2, (1,))[0])],
            style=styles[int(rng.integers(0, 2, (1,))[0])],
            genre=genres[int(rng.integers(0, 2, (1,))[0])],
            year=None if rng.uniform((1,))[0] < 0.3 else
            1850 + int(rng.integers(0, 100, (1,))[0]))
        caption = compose_caption(meta)
        m = pattern.match(caption)
        assert m, caption
        assert m.group("title") == meta.title
        assert m.group("artist") == meta.artist
        assert (m.group("style") or "") == meta.style
        assert (m.group("genre") or "") == meta.genre
        year = m.group("year")
        assert (int(year) if year else None) == meta.year
        seen.add(caption)
    # differing metas produced differing captions (injectivity over the set)
    assert len(seen) > 100


def test_artist_histogram_examples():
    assert artist_histogram([]) == []
    metas = [ArtworkMeta(title="1", artist="a"), ArtworkMeta(title="2", artist="b"),
             ArtworkMeta(title="3", artist="a")]
    assert artist_histogram(metas) == [("a", 2), ("b", 1)]


def test_artist_histogram_tie_break():
    metas = [ArtworkMeta(title="1", artist="zed"), ArtworkMeta(title="2", artist="ann")]
    assert artist_histogram(metas) == [("ann", 1), ("zed", 1)]


def test_top_share():
    hist = [("a", 6), ("b", 3), ("c", 1)]
    assert top_share(hist, 1) == 0.6
    assert top_share(hist, 3) == 1.0
    assert top_share([], 10) == 0.0


def test_read_artwork_table(data_dir):
    metas, malformed = read_artwork_table(data_dir / "artworks.csv")
    assert malformed == 0
    assert len(metas) == 10
    hist = artist_histogram(metas)
    assert hist[0] == ("Pierre Auguste Renoir", 3)  # ties break by name
    assert hist[1] == ("Vincent van Gogh", 3)
    assert metas[-1].year is None


def test_read_artwork_table_counts_malformed(tmp_path):
    p = tmp_path / "rows.csv"
    p.write_text("t,a,s,g,1900\nbad row\n,missing-artist-title,s,g,\nt2,,s,g,1901\nt3,b,s,g,notyear\n")
    metas, malformed = read_artwork_table(p)
    assert len(metas) == 2
    assert malformed == 3


def test_load_corpus_jsonl(data_dir):
    docs = load_corpus_jsonl(data_dir / "micro_corpus.jsonl")
    assert len(docs) == 6
    assert {d.id for d in docs} >= {"shenzhen", "urban-growth"}


def test_load_corpus_jsonl_accepts_integer_ids_and_line_separators(tmp_path):
    path = tmp_path / "corpus.jsonl"
    # U+2028 is legal inside a JSON string; it does not end the line
    path.write_text('{"id": 7, "title": "a\u2028b"}\r\n\n  {"id": "x", "title": "c", "body": "d"}\n',
                    encoding="utf-8")
    docs = load_corpus_jsonl(path)
    assert docs == [Document(id="7", title="a\u2028b"), Document(id="x", title="c", body="d")]


@pytest.mark.parametrize("line, message", [
    ('{"title": "t"}', "missing field 'id'"),
    ('{"id": true, "title": "t"}', "field 'id' must be a string or an integer, got a boolean"),
    ('{"id": 1.5, "title": "t"}', "field 'id' must be a string or an integer, got a number"),
    ('{"id": "b"}', "missing field 'title'"),
    ('{"id": "b", "title": 5}', "field 'title' must be a string, got an integer"),
    ('{"id": "b", "title": "t", "body": null}', "field 'body' must be a string, got null"),
    ('{"id": "b", "title": ""}', "document 'b' has an empty title"),
    ('{"id": 1, "title": "t"}', "duplicate document id '1' (first on line 1)"),
    ('[1, 2]', "expected a JSON object, got an array"),
    ('{"id": "b" "title": "t"}', "invalid JSON: Expecting ',' delimiter (column 12)"),
])
def test_load_corpus_jsonl_rejects_malformed_line(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "1", "title": "first"}\n' + line + "\n")
    with pytest.raises(ConfigError) as info:
        load_corpus_jsonl(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_load_corpus_jsonl_rejects_non_utf8(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "1", "title": "first"}\n{"id": "2", "title": "\xff"}\n')
    with pytest.raises(ConfigError, match=r":2: not UTF-8 text"):
        load_corpus_jsonl(path)
