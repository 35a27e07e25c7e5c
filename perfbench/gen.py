"""Seeded synthetic corpus generator for the orion benchmark.

The spec (see `CorpusSpec`) fixes the shape of the corpus; the seed fixes its
content. The same (spec, seed) always yields byte-identical files:

* ``corpus.jsonl``  -- one ``{"_id", "title", "text"}`` object per document;
* ``queries.jsonl`` -- one ``{"_id", "text"}`` object per query;
* ``qrels.tsv``     -- ``query-id<TAB>corpus-id<TAB>score`` with a header row;
* ``embeddings.orne`` (only when ``spec.orne_dim`` is set) -- the hash
  embeddings of ``"{title} {text}"``, written by ``orion.dataio`` exactly as
  ``orion index`` writes them.

Model of the text:

* a fixed vocabulary of ``vocab_size`` pseudo-words (three or four
  consonant-vowel syllables, so none is an English stopword), the i-th word at
  Zipf rank i with exponent ``zipf_s``; the words, and so their hash buckets,
  are the same for every seed;
* ``n_topics`` topical clusters; each draws ``head_terms`` head terms from the
  mid-frequency band and weights them Zipf(``head_zipf_s``);
* every document belongs to one topic; its length is lognormal(``len_mu``,
  ``len_sigma``) clipped to [``len_min``, ``len_max``] tokens; each token is a
  stopword with probability ``stop_share``, a head term of its topic with
  probability ``topic_share``, and a background word otherwise; it also gets
  ``distinct_per_doc`` distinctive words from the rare tail of the vocabulary,
  each ``distinct_repeat`` times; its title is two head terms of its topic;
* each query targets one document: ``query_heads`` head terms that occur in
  the target; a fixed share ``query_distinct_p`` of the queries, evenly
  spread, also carries ``query_distinct`` of the target's distinctive words,
  e.g. ``"kadoru mesila of tivopane bagute"``. The share is fixed rather than
  drawn per query so that query difficulty does not vary from seed to seed;
* qrels hold the target with grade 2, plus up to ``extra_targets`` other
  documents of the same topic that contain one of the query's head terms,
  with grade 1.

Usage: ``python3 perfbench/gen.py --spec '<json>' --seed N --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1

_CONSONANTS = "bdgklmnprstvz"
_VOWELS = "aeiou"
_STOPWORDS = ("the", "of", "and", "in", "to", "for", "with", "on", "is", "as")
_STOP_WEIGHTS = np.array([10, 8, 7, 5, 5, 3, 3, 2, 2, 2], dtype=np.float64)


@dataclass(frozen=True)
class CorpusSpec:
    n_docs: int
    n_queries: int
    vocab_size: int = 60000
    zipf_s: float = 1.05
    n_topics: int = 200
    head_terms: int = 40
    head_zipf_s: float = 0.8
    topic_share: float = 0.3
    stop_share: float = 0.2
    len_mu: float = 3.9
    len_sigma: float = 0.3
    len_min: int = 25
    len_max: int = 240
    distinct_per_doc: int = 3
    distinct_repeat: int = 3
    query_heads: int = 2
    query_distinct: int = 2
    query_distinct_p: float = 0.6
    extra_targets: int = 0
    orne_dim: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def pseudo_word(i: int) -> str:
    """The i-th vocabulary word: at least three consonant-vowel syllables."""
    base = len(_CONSONANTS) * len(_VOWELS)
    sylls = []
    n = i
    while True:
        n, r = divmod(n, base)
        sylls.append(_CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
        if n == 0 and len(sylls) >= 3:
            break
    return "".join(sylls)


def _zipf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def generate(spec: CorpusSpec, seed: int):
    """Return (docs, queries, qrels) as plain lists; see the module docstring."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    words = [pseudo_word(i) for i in range(spec.vocab_size)]
    background = _zipf(spec.vocab_size, spec.zipf_s)
    band_lo, band_hi = spec.vocab_size // 200, spec.vocab_size // 4
    tail_lo = spec.vocab_size // 2

    heads = np.stack(
        [rng.choice(np.arange(band_lo, band_hi), spec.head_terms, replace=False)
         for _ in range(spec.n_topics)]
    )
    head_w = _zipf(spec.head_terms, spec.head_zipf_s)

    topics = rng.integers(0, spec.n_topics, spec.n_docs)
    lengths = np.clip(
        np.rint(rng.lognormal(spec.len_mu, spec.len_sigma, spec.n_docs)),
        spec.len_min,
        spec.len_max,
    ).astype(np.int64)
    total = int(lengths.sum())
    kind = rng.random(total)
    bg_tok = rng.choice(spec.vocab_size, total, p=background)
    head_pos = rng.choice(spec.head_terms, total, p=head_w)
    stop_tok = rng.choice(len(_STOPWORDS), total, p=_STOP_WEIGHTS / _STOP_WEIGHTS.sum())
    distinct = rng.integers(tail_lo, spec.vocab_size, (spec.n_docs, spec.distinct_per_doc))
    title_pos = rng.choice(spec.head_terms, (spec.n_docs, 2), p=head_w)

    docs = []
    doc_terms: list[set[int]] = []
    starts = np.concatenate([[0], np.cumsum(lengths)])
    for d in range(spec.n_docs):
        a, b = starts[d], starts[d + 1]
        topic_heads = heads[topics[d]]
        toks: list[str] = []
        ids: set[int] = set()
        for j in range(a, b):
            if kind[j] < spec.stop_share:
                toks.append(_STOPWORDS[stop_tok[j]])
                continue
            w = topic_heads[head_pos[j]] if kind[j] < spec.stop_share + spec.topic_share else bg_tok[j]
            ids.add(int(w))
            toks.append(words[w])
        # distinctive words land at seeded positions, `distinct_repeat` times each
        for w in np.repeat(distinct[d], spec.distinct_repeat):
            toks.insert(int(rng.integers(0, len(toks) + 1)), words[w])
            ids.add(int(w))
        title = " ".join(words[topic_heads[p]] for p in title_pos[d])
        ids.update(int(topic_heads[p]) for p in title_pos[d])
        docs.append({"_id": f"d{d:06d}", "title": title, "text": " ".join(toks)})
        doc_terms.append(ids)

    by_topic: dict[int, list[int]] = {}
    for d, t in enumerate(topics):
        by_topic.setdefault(int(t), []).append(d)

    queries, qrels = [], []
    for qi, d in enumerate(rng.choice(spec.n_docs, spec.n_queries, replace=False)):
        d = int(d)
        topic_heads = [int(h) for h in heads[topics[d]]]
        present = [h for h in topic_heads if h in doc_terms[d]]
        pool = present if len(present) >= spec.query_heads else topic_heads
        picked = [pool[i] for i in sorted(rng.choice(len(pool), spec.query_heads, replace=False))]
        text = " ".join(words[h] for h in picked)
        # a fixed, evenly spread share of the queries carries distinctive words
        if int((qi + 1) * spec.query_distinct_p) > int(qi * spec.query_distinct_p):
            own = rng.choice(spec.distinct_per_doc, spec.query_distinct, replace=False)
            text += " of " + " ".join(words[distinct[d][i]] for i in sorted(own))
        qid = f"q{qi:05d}"
        queries.append({"_id": qid, "text": text})
        qrels.append((qid, docs[d]["_id"], 2))
        if spec.extra_targets:
            mates = [m for m in by_topic[int(topics[d])]
                     if m != d and any(h in doc_terms[m] for h in picked)]
            take = min(spec.extra_targets, len(mates))
            for m in sorted(rng.choice(len(mates), take, replace=False)) if take else ():
                qrels.append((qid, docs[mates[int(m)]]["_id"], 1))
    return docs, queries, qrels


def write(spec: CorpusSpec, seed: int, out: Path) -> None:
    """Generate and write the corpus files into `out` (created if missing)."""
    docs, queries, qrels = generate(spec, seed)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps(q) + "\n")
    with open(out / "qrels.tsv", "w", encoding="utf-8") as fh:
        fh.write("query-id\tcorpus-id\tscore\n")
        for qid, did, grade in qrels:
            fh.write(f"{qid}\t{did}\t{grade}\n")
    if spec.orne_dim:
        from orion import dataio
        from orion.embed import HashEmbedder

        embed = HashEmbedder(spec.orne_dim)
        vectors = {d["_id"]: embed(f"{d['title']} {d['text']}".strip()) for d in docs}
        dataio.write_embeddings(vectors, out / "embeddings.orne")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spec", required=True, help="CorpusSpec as a JSON object")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    args = p.parse_args(argv)
    write(CorpusSpec(**json.loads(args.spec)), args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
