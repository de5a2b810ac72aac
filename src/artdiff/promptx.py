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
the postings of the query terms and returns the k best documents by
descending score, then ascending id, which is ascending position;
documents sharing no term with the query score 0.0.

Candidate scoring runs over one token list per candidate: ``extend_prompt``
tokenizes each pooled text once, keys the deduplication on that list and
hands it to ``tfidf_score`` and ``entity_count``; only the embedder
tokenizes the text again. ``Gazetteer.match_count`` skips every position
whose token starts no place name through a first-token index, and
``entity_count`` runs a temporal pattern only on a text that could match it.
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
from typing import Iterable, Iterator, Optional, Protocol

import numpy as np

from .errors import ConfigError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_LAMBDA1 = 1.0
DEFAULT_LAMBDA2 = 0.1
EMBED_WIDTH = 64

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
    """Inverted index over title+body tokens with Okapi scoring state.

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
    k1: float

    @property
    def size(self) -> int:
        return len(self.documents)

    def idf(self, term: str) -> float:
        n = self.size
        row = self.vocab.get(term)
        df = 0 if row is None else int(self.indptr[row + 1] - self.indptr[row])
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _count_terms(docs: tuple[Document, ...], int32_limit: int = 2**31
                 ) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize every document once and count its terms.

    Returns ``(vocab, indptr, doc_pos, tfs, lengths)`` as laid out on
    ``Bm25Index``, with rows in order of first appearance. The token ids of
    all documents stream into one buffer; the (term, document) keys
    ``row * n + pos`` are then sorted once, so each run of equal keys is one
    posting and its length is the term frequency. Keys are int32 while
    ``len(vocab) * n < int32_limit`` and int64 otherwise.
    """
    vocab: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # new term: next row
    ids, lengths = array("i"), array("i")
    for doc in docs:
        tokens = tokenize(doc.text())
        ids.extend(map(vocab.__getitem__, tokens))
        lengths.append(len(tokens))
    n = len(docs)
    dtype = np.int32 if len(vocab) * n < int32_limit else np.int64
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


def build_index(corpus: Iterable[Document], k1: float = DEFAULT_K1,
                b: float = DEFAULT_B) -> Bm25Index:
    """Index ``corpus``, sorted by id, in one tokenization pass (see
    ``_count_terms``).

    ``k1 >= 0`` and ``0 <= b <= 1`` are required; they make every document
    that shares a term with a query score above zero.
    """
    if not (k1 >= 0.0 and 0.0 <= b <= 1.0):
        raise ValueError("BM25 needs k1 >= 0 and 0 <= b <= 1")
    docs = tuple(sorted(corpus, key=lambda doc: doc.id))
    for prev, doc in zip(docs, docs[1:]):   # a duplicate sits next to its twin
        if prev.id == doc.id:
            raise ValueError(f"duplicate document id {doc.id!r}")
    vocab, indptr, doc_pos, tfs, lengths = _count_terms(docs)
    avgdl = int(lengths.sum()) / len(docs) if docs else 0.0
    if avgdl:
        norms = k1 * (1.0 - b + b * lengths / avgdl)
    else:   # every document is empty: 0 / 0 would warn, and no posting reads it
        norms = np.full(len(docs), k1 * (1.0 - b))
    return Bm25Index(documents=docs, vocab=vocab, indptr=_frozen(indptr, np.int64),
                     doc_pos=_frozen(doc_pos, np.int32), tfs=_frozen(tfs, np.int32),
                     norms=_frozen(norms, np.float64), k1=k1)


def bm25_search(index: Bm25Index, query: str, k: int) -> list[tuple[Document, float]]:
    """Top-k documents by Okapi score, ties broken by ascending id.

    Query tokens contribute once per occurrence; an empty query scores
    every document zero. Only the postings of the query terms are read:
    each token adds ``idf * (tf*(k1+1)) / (tf + k1*(1-b+b*dl/avgdl))`` to
    its documents, in query-token order starting from 0.0 (one
    ``np.bincount`` over every token's postings), with the length norm
    read from ``index.norms``, so every score is bit-identical to the
    scalar formula. Documents the query does not touch score 0.0; when fewer
    than k are touched they fill the tail in ascending id order. Positions
    are in id order, so ties and padding both follow position.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = index.size
    if n == 0:
        return []
    k = min(k, n)
    k1 = index.k1
    positions, contributions = [], []
    for term in tokenize(query):
        row = index.vocab.get(term)
        if row is None:
            continue
        lo, hi = int(index.indptr[row]), int(index.indptr[row + 1])
        pos, tf = index.doc_pos[lo:hi], index.tfs[lo:hi]
        positions.append(pos)
        contributions.append(index.idf(term) * (tf * (k1 + 1.0)) / (tf + index.norms[pos]))
    # bincount adds each document's contributions from 0.0 in input order,
    # which is query-token order
    acc = np.bincount(np.concatenate(positions), np.concatenate(contributions),
                      minlength=n) if positions else np.zeros(n)
    touched = np.flatnonzero(acc)
    if touched.size > k:
        kth = np.partition(acc[touched], touched.size - k)[touched.size - k]
        touched = touched[acc[touched] >= kth]   # every tie at the k-th score
    ranked = touched[np.argsort(-acc[touched], kind="stable")][:k]   # ties stay in id order
    if ranked.size < k:
        ranked = np.concatenate([ranked, np.flatnonzero(acc == 0.0)[:k - ranked.size]])
    return [(index.documents[pos], float(acc[pos])) for pos in ranked.tolist()]


# ---------------------------------------------------------------------------
# TF-IDF fertility scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TfidfModel:
    """Per-term inverse document frequencies, ln(N / (1 + df)) clamped at 0."""

    idf: dict[str, float]
    n_docs: int


def _tfidf_model(vocab: dict[str, int], indptr: np.ndarray, n: int) -> TfidfModel:
    """The model for CSR postings: a term's df is its row length."""
    df = np.diff(indptr).tolist()
    idf = {term: max(0.0, math.log(n / (1.0 + count))) for term, count in zip(vocab, df)}
    return TfidfModel(idf=idf, n_docs=n)


def tfidf_fit(training_corpus: Iterable[Document]) -> TfidfModel:
    """Fit on ``training_corpus``, counted as ``build_index`` counts it;
    duplicate document ids are allowed here."""
    docs = tuple(training_corpus)
    if not docs:
        raise ValueError("tfidf_fit needs a nonempty corpus")
    vocab, indptr, *_ = _count_terms(docs)
    return _tfidf_model(vocab, indptr, len(docs))


def tfidf_from_index(index: Bm25Index) -> TfidfModel:
    """The model ``tfidf_fit`` gives on the indexed documents, read from
    the index's document frequencies instead of tokenizing them again."""
    if index.size == 0:
        raise ValueError("tfidf_from_index needs a nonempty index")
    return _tfidf_model(index.vocab, index.indptr, index.size)


def tfidf_score(model: TfidfModel, tokens: list[str]) -> float:
    """Mean over a text's token occurrences of tf * idf; OOV terms score 0.
    ``tokens`` is ``tokenize`` of the text."""
    if not tokens:
        return 0.0
    counts = Counter(tokens)
    length = len(tokens)
    total = sum((counts[tok] / length) * model.idf.get(tok, 0.0) for tok in tokens)
    return total / length


# ---------------------------------------------------------------------------
# Embedding and cosine relatedness
# ---------------------------------------------------------------------------

class Embedder(Protocol):
    def embed(self, text: str) -> np.ndarray:
        ...


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with the zero-vector convention of 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector width mismatch: {u.shape} vs {v.shape}")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


class HashEmbedder:
    """Deterministic signed-hash bag-of-tokens embedding.

    A stand-in for a sentence encoder that preserves the property the
    relatedness score relies on: texts sharing vocabulary have high cosine.
    """

    def __init__(self, width: int = EMBED_WIDTH):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = int(width)

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.width)
        for token in tokenize(text):
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            idx = int.from_bytes(digest[:4], "little") % self.width
            sign = 1.0 if digest[4] & 1 else -1.0
            vec[idx] += sign
        return vec


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
        count = 0
        end = 0   # positions before ``end`` lie inside the last match
        n = len(tokens)
        longest, phrases = self.longest, self.phrases
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


def score_candidate(u: str, v: str, tfidf_model: TfidfModel, embedder: Embedder,
                    lambda1: float, lambda2: float, gazetteer: Gazetteer,
                    source: str = "wiki-sentence", *,
                    u_embedding: Optional[np.ndarray] = None,
                    tokens: Optional[list[str]] = None) -> PromptCandidate:
    """Combined importance: tfidf(v) + lambda1 * cos(embed(u), embed(v))
    + lambda2 * (spatial + temporal entity count).

    ``u_embedding``, when given, must be ``embedder.embed(u)``; callers
    scoring many candidates for one prompt pass it to embed ``u`` once.
    ``tokens``, when given, must be ``tokenize(v)``; the TF-IDF and entity
    scores then read it instead of tokenizing ``v`` again.
    """
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("lambda1 and lambda2 must be >= 0")
    if tokens is None:
        tokens = tokenize(v)
    fert = tfidf_score(tfidf_model, tokens)
    if u_embedding is None:
        u_embedding = embedder.embed(u)
    cos = cosine(u_embedding, embedder.embed(v))
    spatial, temporal = entity_count(v, gazetteer, tokens)
    score = fert + lambda1 * cos + lambda2 * (spatial + temporal)
    return PromptCandidate(text=v, source=source, tfidf=fert, cos=cos,
                           spatial_entities=spatial, temporal_entities=temporal,
                           score=score)


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


def extend_prompt(u: str, index: Bm25Index, tfidf_model: TfidfModel,
                  embedder: Embedder, generator: Generator,
                  lambda1: float = DEFAULT_LAMBDA1,
                  lambda2: float = DEFAULT_LAMBDA2,
                  k: int = 10, gazetteer: Optional[Gazetteer] = None
                  ) -> list[PromptCandidate]:
    """Ranked prompt extensions for ``u``.

    The candidate pool is the sentences of the top-k retrieved documents
    plus the generator's continuations and responses. Candidates are
    deduplicated on their space-joined tokens (keeping the best-scoring
    variant) and the top k are returned, ties broken by ascending text.
    Each candidate is tokenized once for its key and its scores.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gaz = gazetteer if gazetteer is not None else Gazetteer(())
    pool: list[tuple[str, str]] = []
    for doc, _ in bm25_search(index, u, k):
        for sentence in split_sentences(doc.title) + split_sentences(doc.body):
            pool.append((sentence, "wiki-sentence"))
    for text in generator.continuations(u):
        pool.append((text, "generator-continuation"))
    for text in generator.responses(u):
        pool.append((text, "generator-response"))

    u_embedding = embedder.embed(u)
    best: dict[str, PromptCandidate] = {}
    for text, source in pool:
        if not text.strip():
            continue
        tokens = tokenize(text)
        cand = score_candidate(u, text, tfidf_model, embedder, lambda1, lambda2,
                               gaz, source=source, u_embedding=u_embedding, tokens=tokens)
        key = " ".join(tokens)
        cur = best.get(key)
        if (cur is None or cand.score > cur.score
                or (cand.score == cur.score and cand.text < cur.text)):
            best[key] = cand
    ranked = sorted(best.values(), key=lambda c: (-c.score, c.text))
    return ranked[:k]


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
