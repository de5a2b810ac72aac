"""Deterministic input generators for the benchmark.

Every generator takes the workload seed and nothing else, so the same seed
gives the same bytes. The program under test only ever sees the files and
argv these functions produce.

Regenerate the prompt-extension inputs for seed 1 into a directory with

    python3 bench/inputs.py --seed 1 --out some/dir
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np

N_DOCS = 20_000
VOCAB = 30_000
ZIPF_S = 1.0
N_PLACES = 200
N_QUERIES = 20          # per query class (common and rare)
N_ARTWORKS = 2_000
MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")
# Common-term queries draw from the highest-ranked words; rare-term queries
# from words whose document frequency lies in this range.
COMMON_RANKS = 8
RARE_DF = (1, 12)

_SYLLABLES = [c + v for c in ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
                              "v", "z", "br", "dr", "gl", "kr", "pl", "st", "tr", "sk")
              for v in ("a", "e", "i", "o", "u", "ai", "ou", "ei")]


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"artdiff-bench/{seed}/{label}")


def _words(rng: random.Random, count: int, syllables: int, taken: set[str]) -> list[str]:
    """``count`` distinct lowercase pseudo-words of ``syllables`` syllables,
    none of them in ``taken``."""
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def gazetteer_names(seed: int) -> list[str]:
    """Place names of one to three capitalised three-syllable words."""
    parts = _words(_rng(seed, "places"), 3 * N_PLACES, 3, {m.lower() for m in MONTHS})
    names = []
    for i in range(N_PLACES):
        n = (1, 1, 2, 3)[i % 4]
        names.append(" ".join(p.capitalize() for p in parts[3 * i:3 * i + n]))
    return names


def vocabulary(seed: int) -> list[str]:
    """Zipf-ranked two-syllable vocabulary, rank 1 first, disjoint from place
    and month tokens."""
    taken = {m.lower() for m in MONTHS}
    for name in gazetteer_names(seed):
        taken.update(name.lower().split())
    words = [a + b for a in _SYLLABLES for b in _SYLLABLES if a + b not in taken]
    _rng(seed, "vocab").shuffle(words)
    return words[:VOCAB]


def corpus(seed: int, vocab: list[str], places: list[str]) -> tuple[list[dict], Counter]:
    """20k documents as {id, title, body} rows, and each vocabulary word's
    document frequency (used only to pick queries).

    A title has 2-4 words; a body has 3-6 sentences of 8-15 words drawn
    from the Zipf vocabulary, some ending with a place, a year, a month or
    a clock time.
    """
    rng = np.random.default_rng([seed, 20_000])
    n_title = rng.integers(2, 5, N_DOCS)
    n_sent = rng.integers(3, 7, N_DOCS)
    sent_len = rng.integers(8, 16, int(n_sent.sum()))
    cum = np.cumsum(np.arange(1, VOCAB + 1, dtype=np.float64) ** -ZIPF_S)
    picks = np.searchsorted(cum, rng.random(int(n_title.sum() + sent_len.sum())) * cum[-1],
                            side="right").tolist()
    words = [vocab[i] for i in picks]
    n = len(sent_len)
    roll = rng.random(n).tolist()
    place = rng.integers(0, N_PLACES, n).tolist()
    year = rng.integers(1400, 2021, n).tolist()
    month = rng.integers(0, 12, n).tolist()
    hour, minute = rng.integers(0, 24, n).tolist(), rng.integers(0, 60, n).tolist()

    df: Counter = Counter()
    rows = []
    w = s = 0
    for i in range(N_DOCS):
        title = words[w:w + n_title[i]]
        w += n_title[i]
        in_doc = set(title)
        sentences = []
        for _ in range(n_sent[i]):
            sentence = words[w:w + sent_len[s]]
            w += sent_len[s]
            in_doc.update(sentence)
            if roll[s] < 0.15:
                sentence = sentence + ["in", places[place[s]]]
            elif roll[s] < 0.25:
                sentence = sentence + ["in", str(year[s])]
            elif roll[s] < 0.32:
                sentence = sentence + ["in", MONTHS[month[s]]]
            elif roll[s] < 0.37:
                sentence = sentence + ["at", f"{hour[s]}:{minute[s]:02d}"]
            text = " ".join(sentence)
            sentences.append(text[0].upper() + text[1:] + ".")
            s += 1
        df.update(in_doc)
        rows.append({"id": f"d{i:05d}", "title": " ".join(title).title(),
                     "body": " ".join(sentences)})
    return rows, df


def queries(seed: int, vocab: list[str], df: Counter) -> tuple[list[str], list[str]]:
    """(common-term, rare-term) query lists, N_QUERIES each, three terms per query."""
    rng = _rng(seed, "queries")
    common_pool = vocab[:COMMON_RANKS]
    rare_pool = [w for w in vocab[COMMON_RANKS:] if RARE_DF[0] <= df[w] <= RARE_DF[1]]
    common = [" ".join(rng.sample(common_pool, 3)) for _ in range(N_QUERIES)]
    rare = [" ".join(rng.sample(rare_pool, 3)) for _ in range(N_QUERIES)]
    return common, rare


def fixtures(seed: int, vocab: list[str], places: list[str], prompts: list[str]) -> list[dict]:
    """Generator fixtures for every other prompt; the rest get none."""
    rng = _rng(seed, "fixtures")
    vocab = vocab[:2000]
    rows = []
    for prompt in prompts[::2]:
        def text():
            return " ".join(rng.choices(vocab, k=8)) + f" in {rng.choice(places)}"
        rows.append({"prompt": prompt,
                     "continuations": [text(), text()],
                     "responses": [text() + f" in {rng.randint(1500, 2020)}"]})
    return rows


def artworks() -> list[list[str]]:
    """Metadata rows title,artist,style,genre,year. Most artists are named
    "Surname, Given", which a CSV writer must quote. The table is the same
    for every seed."""
    rng = _rng(0, "artworks")
    names = _words(rng, 240, 2, set())
    artists = [f"{names[2 * i].capitalize()}, {names[2 * i + 1].capitalize()}"
               for i in range(100)]
    artists += [f"Master of {w.capitalize()}" for w in names[200:220]]
    weights = [1.0 / (i + 1) for i in range(len(artists))]
    styles = ("Impressionism", "Baroque", "Cubism", "Romanticism")
    genres = ("landscape", "portrait", "still life", "genre painting")
    rows = []
    for i in range(N_ARTWORKS):
        year = "" if i % 17 == 0 else str(rng.randint(1450, 1950))
        rows.append([f"Work {i}", rng.choices(artists, weights=weights)[0],
                     rng.choice(styles), rng.choice(genres), year])
    return rows


def write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                    encoding="utf-8")


def write_prompt_inputs(seed: int, out: Path) -> dict:
    """Write corpus.jsonl, gazetteer.txt, fixtures.jsonl, queries.json and
    artworks.csv under ``out``; returns the query lists and artwork rows."""
    out.mkdir(parents=True, exist_ok=True)
    vocab, places = vocabulary(seed), gazetteer_names(seed)
    docs, df = corpus(seed, vocab, places)
    common, rare = queries(seed, vocab, df)
    write_jsonl(out / "corpus.jsonl", docs)
    (out / "gazetteer.txt").write_text("\n".join(places) + "\n", encoding="utf-8")
    write_jsonl(out / "fixtures.jsonl", fixtures(seed, vocab, places, common + rare))
    (out / "queries.json").write_text(json.dumps({"common": common, "rare": rare},
                                                 indent=1) + "\n")
    table = artworks()
    with open(out / "artworks.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)
    return {"common": common, "rare": rare, "artworks": table}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_prompt_inputs(args.seed, Path(args.out))
    print(f"wrote prompt-extension inputs for seed {args.seed} to {args.out}")
