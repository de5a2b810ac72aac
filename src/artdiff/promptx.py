"""Textual condition extension: corpus retrieval, prompt fertility and
relatedness scoring, spatio-temporal entity bonuses, combined candidate
ranking, and artwork caption composition.

Heavy external pieces (encoder LMs, generator LMs, neural NER, live
Wikipedia) are replaced by deterministic seams: a hashed bag-of-tokens
embedder, fixture-backed generators, and gazetteer plus regular-expression
entity rules. The ranking pipeline itself is complete.

Retrieval runs over one tokenization pass of the corpus: ``build_index``
sorts the documents by id and stores the postings in compressed sparse
row form (see ``Bm25Index``), and ``tfidf_from_index`` reads the TF-IDF
document frequencies from the same postings. ``bm25_search`` scores only
the postings of the query terms, with Okapi BM25 at k1 = 1.2 and
b = 0.75, and returns the k best documents by descending score, then
ascending id, which is ascending position; documents sharing no term with
the query score 0.0. A query with few postings (``SPARSE_POSTINGS``)
sums over the documents it touches alone, so its cost follows its
postings, not the corpus size.

Candidate scoring runs over one token list per candidate and over the
whole pool at once: ``extend_prompt`` tokenizes each pooled text once and
keys the deduplication on that list. One ``Embedder.embed_tokens`` call
embeds the prompt and the whole pool as the rows of one matrix, and one
``cosine`` pass relates every row to the prompt's. ``_score_pool`` forms
every candidate's TF-IDF score and combined score in whole-pool array
passes, each sum in a fixed left-to-right order, and calls
``entity_count`` per candidate; ``score_candidate`` is the same scorer on
a one-candidate pool. Ranking runs on pool indices, and only the returned
candidates become ``PromptCandidate`` objects. ``Gazetteer.match_count``
returns at once for a text sharing no token with a place name's first
token and skips every position whose token starts no place name, and
``entity_count`` runs a temporal pattern only on a text that could match
it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_LAMBDA1 = 1.0
DEFAULT_LAMBDA2 = 0.1
EMBED_WIDTH = 64
# bm25_search sums over the touched documents alone when the query's
# postings number fewer than this many per document. At n = 20,000 on a
# 2-vCPU x86-64 VM, accumulating and finding the touched documents took
# 9 us sparse and 60 us dense for 20 postings, 43 and 82 us for 2,000, and
# the same (119-124 us) for 5,000-6,000; at 10,000 sparse took 204 us and
# dense 158 us.
SPARSE_POSTINGS = 0.25
INT32_KEYS = 2 ** 31   # ``_count_terms``'s keys are int32 below this len(vocab) * n

# Byte table for ``tokenize``: every byte outside [a-z0-9] becomes a space.
_TOKEN_BYTES = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                     for c in range(256))
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")

CANDIDATE_SOURCES = ("wiki-sentence", "generator-continuation", "generator-response")


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on any non-alphanumeric run.

    Equal to ``re.findall(r"[a-z0-9]+", text.lower())``: lowercasing runs
    first, so a character that lowercases to ASCII (U+212A KELVIN SIGN to
    ``k``) joins a token, and every other non-ASCII character, lone
    surrogates included, encodes to ``?`` and then splits like punctuation.
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


# ---------------------------------------------------------------------------
# Documents and BM25
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Document:
    id: str
    title: str
    body: str = ""

    def __post_init__(self):
        if not self.title:
            raise ValueError(f"document {self.id!r} must have a nonempty title")

    def text(self) -> str:
        return f"{self.title} {self.body}" if self.body else self.title


@dataclass(frozen=True, eq=False)
class Bm25Index:
    """Inverted index over title+body tokens with Okapi scoring state, at
    ``DEFAULT_K1`` and ``DEFAULT_B``.

    ``documents`` is the corpus in ascending id order, and a document is
    addressed by its position there, so position order is id order.
    Postings are stored in compressed sparse row (CSR) form: term
    ``vocab[t]`` owns the slice ``indptr[row]:indptr[row + 1]`` of
    ``doc_pos`` (document positions, ascending) and ``tfs`` (term
    frequencies), so its document frequency is the slice length. ``norms``
    holds each document's length norm ``k1 * (1.0 - b + b * dl / avgdl)``
    for its token count ``dl`` and the mean count ``avgdl``, built once in
    that operation order, so a query gathers the scalar formula's value bit
    for bit instead of computing it over every posting. When ``avgdl`` is 0
    every document is empty, no posting reads a norm, and each norm is
    ``k1 * (1 - b)``. The arrays are read-only and int32, except ``indptr``
    (int64) and ``norms`` (float64).
    """

    documents: tuple[Document, ...]
    vocab: dict[str, int]
    indptr: np.ndarray
    doc_pos: np.ndarray
    tfs: np.ndarray
    norms: np.ndarray


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _count_terms(docs: tuple[Document, ...]
                 ) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize every document once and count its terms.

    Returns ``(vocab, indptr, doc_pos, tfs, lengths)`` as laid out on
    ``Bm25Index``, with rows in order of first appearance. The token ids of
    all documents stream into one buffer; the (term, document) keys
    ``row * n + pos`` are then sorted once, so each run of equal keys is one
    posting and its length is the term frequency. Keys are int32 while
    ``len(vocab) * n < INT32_KEYS`` and int64 otherwise.
    """
    vocab: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # new term: next row
    ids, lengths = array("i"), array("i")
    for doc in docs:
        tokens = tokenize(doc.text())
        ids.extend(map(vocab.__getitem__, tokens))
        lengths.append(len(tokens))
    n = len(docs)
    dtype = np.int32 if len(vocab) * n < INT32_KEYS else np.int64
    key = np.frombuffer(ids, dtype=np.intc).astype(dtype, copy=False)  # int32 keys reuse ids
    del ids
    key *= n
    key += np.repeat(np.arange(n, dtype=dtype), lengths)
    key.sort()
    bounds = np.empty(key.size + 1, dtype=bool)   # where a run starts, and the end
    bounds[0] = bounds[-1] = True
    np.not_equal(key[1:], key[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    key = key[bounds[:-1]]                         # one key per posting
    tfs = np.empty(key.size, dtype=np.int32)
    np.subtract(bounds[1:], bounds[:-1], out=tfs, casting="unsafe")
    del bounds
    doc_pos = (key % max(n, 1)).astype(np.int32, copy=False)
    key //= max(n, 1)                              # now the row of each posting
    indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=len(vocab)), out=indptr[1:])
    return (dict(vocab), indptr, doc_pos, tfs,
            np.frombuffer(lengths, dtype=np.intc).astype(np.int32))


def build_index(corpus: Iterable[Document]) -> Bm25Index:
    """Index ``corpus``, sorted by id, in one tokenization pass (see
    ``_count_terms``), with the length norms of ``DEFAULT_K1`` and
    ``DEFAULT_B``."""
    k1, b = DEFAULT_K1, DEFAULT_B
    docs = tuple(sorted(corpus, key=lambda doc: doc.id))
    for prev, doc in zip(docs, docs[1:]):   # a duplicate sits next to its twin
        if prev.id == doc.id:
            raise ValueError(f"duplicate document id {doc.id!r}")
    vocab, indptr, doc_pos, tfs, lengths = _count_terms(docs)
    avgdl = int(lengths.sum()) / len(docs) if docs else 0.0
    # avgdl is 0 only when every length is 0: dividing by 1 skips 0 / 0 and gives k1 * (1 - b)
    norms = k1 * (1.0 - b + b * lengths / (avgdl or 1.0))
    return Bm25Index(documents=docs, vocab=vocab, indptr=_frozen(indptr, np.int64),
                     doc_pos=_frozen(doc_pos, np.int32), tfs=_frozen(tfs, np.int32),
                     norms=_frozen(norms, np.float64))


def bm25_search(index: Bm25Index, query: str, k: int) -> list[tuple[Document, float]]:
    """Top-k documents by Okapi score, ties broken by ascending id.

    Query tokens contribute once per occurrence; an empty query scores
    every document zero. Only the postings of the query terms are read:
    each token adds ``idf * (tf*(k1+1)) / (tf + k1*(1-b+b*dl/avgdl))`` to
    its documents, in query-token order starting from 0.0 (one
    ``np.bincount`` over every token's postings), with
    ``idf = ln(1 + (n - df + 0.5) / (df + 0.5))`` for the term's posting
    count ``df``, ``k1 = DEFAULT_K1`` and the length norm read from
    ``index.norms``, so every score is bit-identical to the scalar
    formula. Documents the query does not touch score 0.0; when fewer
    than k are touched they fill the tail in ascending id order. Positions
    are in id order, so ties and padding both follow position.

    Every contribution is > 0, so the touched documents are the distinct
    posting positions. With fewer than ``SPARSE_POSTINGS`` postings per
    document, they are found with ``np.unique`` and summed over their
    own slots, in the same order, so the cost follows the postings; with
    more, one slot per document is summed and the nonzero ones are kept.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(index.documents)
    k = min(k, n)
    k1 = DEFAULT_K1
    positions, contributions = [], []
    for term in tokenize(query):
        row = index.vocab.get(term)
        if row is None:
            continue
        lo, hi = int(index.indptr[row]), int(index.indptr[row + 1])
        pos, tf = index.doc_pos[lo:hi], index.tfs[lo:hi]
        df = hi - lo
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        positions.append(pos)
        contributions.append(idf * (tf * (k1 + 1.0)) / (tf + index.norms[pos]))
    pos = np.concatenate(positions) if positions else np.zeros(0, dtype=np.int32)
    contrib = np.concatenate(contributions) if contributions else np.zeros(0)
    # bincount adds each document's contributions from 0.0 in input order,
    # which is query-token order, in either form
    if pos.size < SPARSE_POSTINGS * n:
        touched, slot = np.unique(pos, return_inverse=True)
        scores = np.bincount(slot, contrib, minlength=touched.size)
    else:
        acc = np.bincount(pos, contrib, minlength=n)
        touched = np.flatnonzero(acc)
        scores = acc[touched]
    if touched.size > k:
        kth = np.partition(scores, touched.size - k)[touched.size - k]
        keep = scores >= kth                     # every tie at the k-th score
        touched, scores = touched[keep], scores[keep]
    order = np.argsort(-scores, kind="stable")[:k]   # ties stay in id order
    ranked = list(zip(touched[order].tolist(), scores[order].tolist()))
    if len(ranked) < k:   # fewer than k touched, so k untouched lie below k
        pad = np.setdiff1d(np.arange(k), touched, assume_unique=True)[:k - len(ranked)]
        ranked += [(p, 0.0) for p in pad.tolist()]
    return [(index.documents[p], score) for p, score in ranked]


# ---------------------------------------------------------------------------
# TF-IDF fertility scoring
# ---------------------------------------------------------------------------

def _idf_table(vocab: dict[str, int], indptr: np.ndarray, n: int) -> dict[str, float]:
    """Per-term inverse document frequencies, ln(n / (1 + df)) clamped at 0,
    for CSR postings: a term's df is its row length. The log runs once per
    distinct df, on the same integers, so every idf has the bits of the
    per-term formula."""
    dfs, which = np.unique(np.diff(indptr), return_inverse=True)
    logs = [max(0.0, math.log(n / (1.0 + count))) for count in dfs.tolist()]
    return dict(zip(vocab, map(logs.__getitem__, which.tolist())))


def tfidf_fit(training_corpus: Iterable[Document]) -> dict[str, float]:
    """The idf of every term of ``training_corpus``, counted as
    ``build_index`` counts it; duplicate document ids are allowed, and no
    document gives no idf."""
    docs = tuple(training_corpus)
    vocab, indptr, *_ = _count_terms(docs)
    return _idf_table(vocab, indptr, len(docs))


def tfidf_from_index(index: Bm25Index) -> dict[str, float]:
    """The idf ``tfidf_fit`` gives on the indexed documents, read from the
    index's document frequencies instead of tokenizing them again."""
    return _idf_table(index.vocab, index.indptr, len(index.documents))


# ---------------------------------------------------------------------------
# Embedding and cosine relatedness
# ---------------------------------------------------------------------------

class Embedder(Protocol):
    """Texts to vectors. ``embed_tokens`` embeds many texts, each given as
    its ``tokenize`` list, as the rows of one (len(token_lists), width)
    float64 matrix; a row depends only on its own token list."""

    def embed_tokens(self, token_lists: Sequence[list[str]]) -> np.ndarray:
        ...


def cosine(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The float64 array of the n cosines of vector ``u`` against the rows
    of the (n, width) matrix ``rows``, with the zero-vector convention of 0,
    from one matrix-vector product and one pass over the row norms."""
    u = np.asarray(u, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if u.ndim != 1 or rows.ndim != 2 or rows.shape[1:] != u.shape:
        raise ValueError(f"cosine takes a vector and an (n, width) matrix, "
                         f"got {u.shape} and {rows.shape}")
    nu = math.sqrt(float(u @ u))
    nv = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    cos = np.zeros(nv.shape)
    if nu != 0.0:
        np.divide(rows @ u, nu * nv, out=cos, where=nv != 0.0)
    return cos


def _token_ids(token_lists: Sequence[list[str]]) -> tuple[dict[str, int], np.ndarray,
                                                         np.ndarray]:
    """``(ids, at, lengths)``: each distinct token's id, in order of first
    appearance, every list's token ids one after another as one int array,
    and each list's length."""
    ids: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # new token: next id
    flat, lengths = array("i"), array("i")
    for tokens in token_lists:
        flat.extend(map(ids.__getitem__, tokens))
        lengths.append(len(tokens))
    return ids, np.frombuffer(flat, dtype=np.intc), np.frombuffer(lengths, dtype=np.intc)


# copied once per token: a copy costs less than building a blake2b state
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


class HashEmbedder:
    """Deterministic signed-hash bag-of-tokens embedding.

    A stand-in for a sentence encoder that preserves the property the
    relatedness score relies on: texts sharing vocabulary have high cosine.
    Each token adds +1.0 or -1.0 at one of ``width`` slots, both read from
    its blake2b digest, so every entry is an integer no larger in size than
    the text's token count: dot products and norms of these vectors are
    exact in any summation order.
    """

    def __init__(self, width: int = EMBED_WIDTH):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = int(width)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_tokens([tokenize(text)])[0]

    def embed_tokens(self, token_lists: Sequence[list[str]]) -> np.ndarray:
        """One row per token list. Each distinct token is hashed once per
        call, from a copy of one empty blake2b state, and one
        ``np.bincount`` adds every row's signs from 0.0 in token order, so
        a row has the bits of adding them one at a time."""
        width = self.width
        distinct, at, lengths = _token_ids(token_lists)
        raw = []
        for token in distinct:
            state = _BLAKE2B_8.copy()
            state.update(token.encode("utf-8"))
            raw.append(state.digest())
        # each distinct token's 8-byte digest as a little-endian integer: its
        # low 32 bits pick the slot and bit 32 (the fifth byte's low bit) the sign
        digests = np.frombuffer(b"".join(raw), dtype="<u8")
        slots = ((digests & 0xFFFFFFFF) % width).astype(np.intp)
        signs = np.where(digests & (1 << 32), 1.0, -1.0)
        n = len(lengths)
        keys = np.repeat(np.arange(0, n * width, width), lengths) + slots[at]
        sums = np.bincount(keys, signs[at], minlength=n * width)
        return sums.astype(np.float64, copy=False).reshape(n, width)   # int64 when no token


# ---------------------------------------------------------------------------
# Entity counting
# ---------------------------------------------------------------------------

_YEAR_RE = re.compile(r"\b[12][0-9]{3}\b")
_CLOCK_RE = re.compile(r"\b\d{1,2}:\d{2}\b")
_ORDINAL_DAY_RE = re.compile(r"\b\d{1,2}(?:st|nd|rd|th)\b", re.IGNORECASE)
_MONTHS = ("january", "february", "march", "april", "may", "june", "july",
           "august", "september", "october", "november", "december")
_MONTH_RE = re.compile(r"\b(?:" + "|".join(_MONTHS) + r")\b", re.IGNORECASE)
_MONTH_TOKENS = frozenset(_MONTHS)
_DIGIT_RE = re.compile(r"\d")


class Gazetteer:
    """Pre-tokenized place-name phrases for longest-match counting.

    ``longest`` maps each token that starts a phrase to the length of the
    longest phrase it starts.
    """

    def __init__(self, names: Iterable[str]):
        phrases = set()
        longest: dict[str, int] = {}
        for name in names:
            tokens = tuple(tokenize(name))
            if tokens:
                phrases.add(tokens)
                longest[tokens[0]] = max(longest.get(tokens[0], 0), len(tokens))
        self.phrases = frozenset(phrases)
        self.longest = longest

    @classmethod
    def from_file(cls, path) -> "Gazetteer":
        """Text that is not UTF-8 raises ``ConfigError`` naming the file and line."""
        lines = _read_utf8(path).splitlines()
        return cls(line.strip() for line in lines if line.strip())

    def match_count(self, tokens: list[str]) -> int:
        """Number of non-overlapping phrase matches, longest match first.

        Scanning left to right, a position past the last match whose token
        starts a phrase tries the lengths from its longest phrase down to 1;
        every other position is skipped at once.
        """
        longest, phrases = self.longest, self.phrases
        if longest.keys().isdisjoint(tokens):
            return 0
        count = 0
        end = 0   # positions before ``end`` lie inside the last match
        n = len(tokens)
        for i, token in enumerate(tokens):
            top = longest.get(token)
            if top is None or i < end:
                continue
            for length in range(min(top, n - i), 0, -1):
                if tuple(tokens[i:i + length]) in phrases:
                    count += 1
                    end = i + length
                    break
        return count


def entity_count(text: str, gazetteer: Gazetteer, tokens: list[str]) -> tuple[int, int]:
    r"""(spatial, temporal) entity counts.

    Spatial entities are gazetteer phrase matches over the token stream;
    temporal entities are regex matches on the raw text for 4-digit years
    1000-2999, month names, clock times, and ordinal day numbers.
    ``tokens`` is ``tokenize(text)``.

    A pattern runs only on a text it could match, and each gate is exact:

    - Every match of the year, clock and ordinal patterns holds a ``\d``
      character, so a text in which ``\d`` (any Unicode digit) finds
      nothing has none of them.
    - In ASCII text a month match is a whole ``[A-Za-z0-9_]`` run equal to
      a month name. The characters around it are none of those, so they
      split tokens too, and ``tokenize`` yields the run as one lowercase
      token: no month token means no match. Non-ASCII text always runs the
      month pattern, because IGNORECASE lets some non-ASCII letters match
      ASCII ones (U+017F LONG S matches ``s``, U+212A KELVIN SIGN ``k``,
      U+0131 DOTLESS I ``i``): "augu\u017ft" is a month although its tokens
      are ``augu`` and ``t``.
    """
    spatial = gazetteer.match_count(tokens)
    temporal = 0
    if _DIGIT_RE.search(text):
        temporal += (len(_YEAR_RE.findall(text)) + len(_CLOCK_RE.findall(text))
                     + len(_ORDINAL_DAY_RE.findall(text)))
    if not text.isascii() or not _MONTH_TOKENS.isdisjoint(tokens):
        temporal += len(_MONTH_RE.findall(text))
    return spatial, temporal


# ---------------------------------------------------------------------------
# Candidate scoring and the extension pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PromptCandidate:
    text: str
    source: str
    tfidf: float
    cos: float
    spatial_entities: int
    temporal_entities: int
    score: float

    def __post_init__(self):
        if self.source not in CANDIDATE_SOURCES:
            raise ValueError(f"unknown candidate source {self.source!r}")


def _score_pool(texts: Sequence[str], token_lists: Sequence[list[str]], cosines: np.ndarray,
                idf: dict[str, float], lambda1: float, lambda2: float, gazetteer: Gazetteer
                ) -> tuple[list[float], list[int], list[int], list[float]]:
    """The tfidf, spatial and temporal entity counts and combined score of
    every candidate of a pool, as lists: candidate text ``texts[i]`` has
    tokens ``token_lists[i]`` and cosine ``cosines[i]``.

    A candidate's tfidf is the mean over its token occurrences of
    ``(count / length) * idf``, an OOV term's idf being 0 and a token-less
    text's tfidf 0.0. The pool's tokens are mapped to ids once; one
    ``np.unique`` over (candidate, id) keys counts every occurrence within
    its candidate, and one ``np.bincount`` adds each candidate's terms from
    0.0 in token order, so a sum has the bits of adding its terms left to
    right, whatever the Python version. The scores are
    ``tfidf + lambda1 * cos + lambda2 * (spatial + temporal)`` in that
    order; one that overflows is inf, for the caller to refuse.
    """
    n = len(token_lists)
    distinct, at, lengths = _token_ids(token_lists)
    rows = np.repeat(np.arange(n), lengths)
    _, occurrence, counts = np.unique(rows * len(distinct) + at, return_inverse=True,
                                      return_counts=True)
    weights = np.array([idf.get(token, 0.0) for token in distinct], dtype=np.float64)
    terms = (counts[occurrence] / lengths[rows]) * weights[at]
    sums = np.bincount(rows, terms, minlength=n)
    fert = sums.astype(np.float64, copy=False)   # int64 when no token
    np.divide(fert, lengths, out=fert, where=lengths > 0)
    entities = np.array([entity_count(text, gazetteer, tokens)
                         for text, tokens in zip(texts, token_lists)], dtype=np.int64)
    spatial, temporal = entities.reshape(n, 2).T
    with np.errstate(over="ignore", invalid="ignore"):
        scores = fert + lambda1 * cosines + lambda2 * (spatial + temporal)
    return fert.tolist(), spatial.tolist(), temporal.tolist(), scores.tolist()


def score_candidate(v: str, tokens: list[str], cos: float, idf: dict[str, float],
                    lambda1: float, lambda2: float, gazetteer: Gazetteer) -> PromptCandidate:
    """Combined importance of candidate text ``v`` for a prompt u:
    tfidf(v) + lambda1 * cos(embed(u), embed(v)) + lambda2 * (spatial +
    temporal entity count), from ``_score_pool`` on a one-candidate pool.
    ``tokens`` is ``tokenize(v)`` and ``cos`` the cosine; the candidate is
    a wiki sentence."""
    (fert,), (spatial,), (temporal,), (score,) = _score_pool(
        [v], [tokens], np.array([cos], dtype=np.float64), idf, lambda1, lambda2, gazetteer)
    return PromptCandidate(text=v, source="wiki-sentence", tfidf=fert, cos=cos,
                           spatial_entities=spatial, temporal_entities=temporal, score=score)


class Generator(Protocol):
    def continuations(self, prompt: str) -> list[str]:
        ...

    def responses(self, prompt: str) -> list[str]:
        ...


class FixtureGenerator:
    """Canned generator outputs keyed by prompt, loaded from JSON Lines.

    Each line is an object with a string ``prompt`` and optional lists of
    strings ``continuations`` and ``responses``. A prompt on several lines
    gets the lists of all of them, in file order. Unknown prompts yield
    empty lists.
    """

    def __init__(self, table: dict[str, tuple[list[str], list[str]]]):
        self._table = dict(table)

    @classmethod
    def from_file(cls, path) -> "FixtureGenerator":
        """A malformed line raises ``ConfigError`` naming the file and line."""
        table: dict[str, tuple[list[str], list[str]]] = {}
        for lineno, row in _jsonl_objects(path):
            prompt = _json_field(row, "prompt", (str,), path, lineno)
            lists = table.setdefault(prompt, ([], []))
            for name, texts_so_far in zip(("continuations", "responses"), lists):
                texts = _json_field(row, name, (list,), path, lineno, default=[])
                if not all(type(text) is str for text in texts):
                    raise ConfigError(f"{path}:{lineno}: every entry of {name!r} "
                                      "must be a string")
                texts_so_far.extend(texts)
        return cls(table)

    def continuations(self, prompt: str) -> list[str]:
        return list(self._table.get(prompt, ([], []))[0])

    def responses(self, prompt: str) -> list[str]:
        return list(self._table.get(prompt, ([], []))[1])


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace; drop empties."""
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def extend_prompt(u: str, index: Bm25Index, idf: dict[str, float], embedder: Embedder,
                  generator: Generator, lambda1: float, lambda2: float, k: int,
                  gazetteer: Gazetteer) -> list[PromptCandidate]:
    """Ranked prompt extensions for ``u``.

    The candidate pool is the sentences of the top-k retrieved documents
    plus the generator's continuations and responses. Candidates are
    deduplicated on their space-joined tokens (keeping the best-scoring
    variant) and the top k are returned, ties broken by ascending text.
    ``k`` must be >= 1 (``bm25_search`` checks it), and ``lambda1`` and
    ``lambda2`` finite and >= 0.

    Each candidate is tokenized once, for its key and its scores. One
    ``embedder.embed_tokens`` call embeds the prompt and every candidate,
    one ``cosine`` pass gives every candidate's cosine, and
    ``_score_pool`` scores the whole pool in array passes. Deduplication
    and ranking run on pool indices, and only the k returned candidates
    become ``PromptCandidate`` objects.
    """
    if not (math.isfinite(lambda1) and math.isfinite(lambda2)
            and lambda1 >= 0.0 and lambda2 >= 0.0):
        raise ValueError(f"lambda1 and lambda2 must be finite and >= 0, "
                         f"got {lambda1!r} and {lambda2!r}")
    pool: list[tuple[str, str]] = []
    for doc, _ in bm25_search(index, u, k):
        for sentence in split_sentences(doc.title) + split_sentences(doc.body):
            pool.append((sentence, "wiki-sentence"))
    for text in generator.continuations(u):
        pool.append((text, "generator-continuation"))
    for text in generator.responses(u):
        pool.append((text, "generator-response"))

    pool = [(text, source) for text, source in pool if text.strip()]
    texts = [text for text, _ in pool]
    token_lists = [tokenize(text) for text in texts]
    vectors = embedder.embed_tokens([tokenize(u), *token_lists])
    cosines = cosine(vectors[0], vectors[1:])
    fert, spatial, temporal, scores = _score_pool(texts, token_lists, cosines, idf,
                                                  lambda1, lambda2, gazetteer)
    best: dict[str, int] = {}   # a key's best candidate so far
    for i, tokens in enumerate(token_lists):
        key = " ".join(tokens)
        j = best.get(key)
        if (j is None or scores[i] > scores[j]
                or (scores[i] == scores[j] and texts[i] < texts[j])):
            best[key] = i
    ranked = sorted(best.values(), key=lambda i: (-scores[i], texts[i]))[:k]
    cos = cosines.tolist()
    return [PromptCandidate(text=texts[i], source=pool[i][1], tfidf=fert[i], cos=cos[i],
                            spatial_entities=spatial[i], temporal_entities=temporal[i],
                            score=scores[i]) for i in ranked]


# ---------------------------------------------------------------------------
# Artwork captions and corpus statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArtworkMeta:
    title: str
    artist: str
    style: str = ""
    genre: str = ""
    year: Optional[int] = None


def compose_caption(meta: ArtworkMeta) -> str:
    """Conditioning caption: "<title>, a <genre> painting by <artist> in
    <style> style, <year>" with absent fields elided."""
    if not meta.artist:
        raise ValueError("artwork metadata must include an artist")
    middle = f"a {meta.genre} painting" if meta.genre else "a painting"
    caption = f"{middle} by {meta.artist}"
    if meta.style:
        caption += f" in {meta.style} style"
    if meta.year is not None:
        caption += f", {meta.year}"
    if meta.title:
        caption = f"{meta.title}, {caption}"
    return caption


def artist_histogram(metas: Iterable[ArtworkMeta]) -> list[tuple[str, int]]:
    """Exact artist counts, descending, ties by ascending artist name."""
    counts: Counter = Counter(meta.artist for meta in metas)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def top_share(histogram: list[tuple[str, int]], k: int) -> float:
    """Fraction of all artworks contributed by the k most prolific artists."""
    total = sum(count for _, count in histogram)
    if total == 0:
        return 0.0
    return sum(count for _, count in histogram[:k]) / total


# ---------------------------------------------------------------------------
# File loaders
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_MISSING = object()


def _read_utf8(path, newline: str | None = None) -> str:
    """The whole text of a file, read with ``open``'s newline mode. Bytes
    that are not UTF-8 raise ``ConfigError`` naming the file and line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _jsonl_objects(path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) for each nonblank line of a JSON Lines
    file. Only a line feed ends a line, so a U+2028 inside a string stays
    in its line. Text that is not UTF-8, a line that is not JSON and a value that
    is not an object raise ``ConfigError`` naming the file and line."""
    lines = _read_utf8(path).split("\n")
    decode = json.JSONDecoder().raw_decode   # json.loads without its per-call wrapping
    for lineno, line in enumerate(lines, 1):
        start = len(line) - len(line.lstrip())
        if start == len(line):
            continue
        try:
            row, end = decode(line, start)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid JSON: {exc.msg} "
                              f"(column {exc.colno})") from None
        rest = line[end:].lstrip()
        if rest:
            raise ConfigError(f"{path}:{lineno}: invalid JSON: extra data "
                              f"(column {len(line) - len(rest) + 1})")
        if type(row) is not dict:
            raise ConfigError(f"{path}:{lineno}: expected a JSON object, "
                              f"got {_JSON_KINDS[type(row)]}")
        yield lineno, row


def _json_field(row: dict, name: str, kinds: tuple, path, lineno: int, default=_MISSING):
    """``row[name]``, whose exact type must be one of ``kinds``."""
    value = row.get(name, default)
    if value is _MISSING:
        raise ConfigError(f"{path}:{lineno}: missing field {name!r}")
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise ConfigError(f"{path}:{lineno}: field {name!r} must be {wanted}, "
                          f"got {_JSON_KINDS[type(value)]}")
    return value


def load_corpus_jsonl(path) -> list[Document]:
    """Corpus file: one JSON object per line with fields ``id`` (a string or
    an integer, unique), ``title`` (a nonempty string) and ``body`` (a
    string, optional). A malformed line raises ``ConfigError`` naming the
    file and its line."""
    docs = []
    first_line: dict[str, int] = {}
    for lineno, row in _jsonl_objects(path):
        doc_id = str(_json_field(row, "id", (str, int), path, lineno))
        title = _json_field(row, "title", (str,), path, lineno)
        body = _json_field(row, "body", (str,), path, lineno, default="")
        if not title:
            raise ConfigError(f"{path}:{lineno}: document {doc_id!r} has an empty title")
        if doc_id in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate document id {doc_id!r} "
                              f"(first on line {first_line[doc_id]})")
        first_line[doc_id] = lineno
        docs.append(Document(id=doc_id, title=title, body=body))
    return docs


def _csv_rows(fh, delimiter: str, path) -> Iterator[list[str]]:
    """The rows ``csv.reader`` reads from fh; a ``csv.Error`` becomes a
    ``ConfigError`` naming the file and line."""
    reader = csv.reader(fh, delimiter=delimiter)
    try:
        yield from reader
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None


def read_artwork_table(path, delimiter: str = ",") -> tuple[list[ArtworkMeta], int]:
    """Character-separated artwork metadata with columns
    title, artist, style, genre, year. Returns (rows, malformed count);
    malformed rows are skipped, not fatal. Text that is not UTF-8, or that
    the csv module refuses (a field over its length limit), raises
    ``ConfigError`` naming the file and line."""
    metas = []
    malformed = 0
    with io.StringIO(_read_utf8(path, newline=""), newline="") as fh:
        for row in _csv_rows(fh, delimiter, path):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 5:
                malformed += 1
                continue
            title, artist, style, genre, year_text = (cell.strip() for cell in row)
            if not artist:
                malformed += 1
                continue
            year: Optional[int] = None
            if year_text:
                try:
                    year = int(year_text)
                except ValueError:
                    malformed += 1
                    continue
            metas.append(ArtworkMeta(title=title, artist=artist, style=style,
                                     genre=genre, year=year))
    return metas, malformed
