"""Seeded synthetic citation corpora written in the TSV layout `hnhn ingest` reads.

Each generator draws from numpy's own PCG64 generator, never from the
package under test, and writes docs.tsv, relations.tsv and labels.tsv. It
returns the ground truth the ingest checks compare against: which relations
survive pruning (two or more distinct members), which documents they reach,
and every document's class name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus.

    Texts mix topic words (drawn from the document's own class with
    probability `own_topic`, otherwise from a random class) with background
    words drawn Zipf(`background_zipf`) from a shared vocabulary.
    """

    name: str
    mode: str
    n_docs: int
    class_names: tuple[str, ...]
    class_weights: tuple[float, ...]
    words_per_doc: tuple[int, int]
    topic_words_per_doc: tuple[int, int]
    topic_vocab: int
    background_vocab: int
    background_zipf: float
    own_topic: float
    n_relations: int
    relation_size: str
    homophily: float


@dataclass(frozen=True)
class CorpusTruth:
    """What ingest must produce from the files, derived from the generator."""

    doc_ids: list[str]
    doc_texts: list[str]
    doc_class: list[str]
    relation_ids: list[str]
    relation_members: list[list[str]]
    kept_relations: list[int]
    kept_docs: list[int]
    class_names: list[str]


def _word(i: int) -> str:
    k = len(_SYLLABLES)
    return _SYLLABLES[i % k] + _SYLLABLES[(i // k) % k] + _SYLLABLES[(i // (k * k)) % k]


def _texts(spec: CorpusSpec, rng: np.random.Generator, doc_class: np.ndarray) -> list[str]:
    n_classes = len(spec.class_names)
    vocab = [_word(i) for i in range(n_classes * spec.topic_vocab + spec.background_vocab)]
    ranks = np.arange(1, spec.background_vocab + 1, dtype=np.float64)
    bg_cdf = np.cumsum(ranks ** -spec.background_zipf)
    bg_cdf /= bg_cdf[-1]
    bg_base = n_classes * spec.topic_vocab

    lengths = rng.integers(spec.words_per_doc[0], spec.words_per_doc[1] + 1, spec.n_docs)
    n_topic = np.minimum(
        rng.integers(spec.topic_words_per_doc[0], spec.topic_words_per_doc[1] + 1, spec.n_docs),
        lengths,
    )
    total = int(lengths.sum())
    doc_of = np.repeat(np.arange(spec.n_docs), lengths)
    offset = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    is_topic = offset < np.repeat(n_topic, lengths)

    topic_class = np.where(
        rng.random(total) < spec.own_topic, doc_class[doc_of], rng.integers(0, n_classes, total)
    )
    topic_word = topic_class * spec.topic_vocab + rng.integers(0, spec.topic_vocab, total)
    bg_word = bg_base + np.searchsorted(bg_cdf, rng.random(total), side="right")
    words = np.where(is_topic, topic_word, np.minimum(bg_word, len(vocab) - 1))
    # Topic words sit at random positions inside each text.
    order = np.lexsort((rng.random(total), doc_of))
    words = words[order]

    texts = []
    start = 0
    for length in lengths.tolist():
        texts.append(" ".join(vocab[w] for w in words[start : start + length].tolist()).capitalize() + ".")
        start += length
    return texts


def _relation_sizes(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.relation_size == "cites":
        # Citing documents list 1 + Geometric cited papers (mean about 3.2).
        return 1 + rng.geometric(0.45, spec.n_relations)
    if spec.relation_size == "authors":
        # Papers per author: discrete Pareto, many single-paper authors.
        return np.minimum(np.floor(rng.pareto(1.3, spec.n_relations) + 1.0), 250).astype(np.int64)
    if spec.relation_size == "planted":
        # Sizes from 2 up with a Pareto tail, so the edge-size exponent alpha matters.
        return np.minimum(np.floor(2.0 * (rng.pareto(2.0, spec.n_relations) + 1.0)), 40).astype(np.int64)
    raise ValueError(f"unknown relation size law {spec.relation_size!r}")


def _relations(
    spec: CorpusSpec, rng: np.random.Generator, doc_class: np.ndarray, owner: np.ndarray
) -> list[np.ndarray]:
    """Member documents of every relation.

    Members come from the owner's class with probability `homophily`.
    Inside a class, documents are picked with Pareto popularity weights, so
    node degrees are heavy-tailed.
    """
    n_classes = len(spec.class_names)
    popularity = rng.pareto(1.5, spec.n_docs) + 1.0
    pools = [np.flatnonzero(doc_class == c) for c in range(n_classes)]
    cdfs = []
    for pool in pools:
        cdf = np.cumsum(popularity[pool])
        cdfs.append(cdf / cdf[-1])

    sizes = _relation_sizes(spec, rng)
    rel_of = np.repeat(np.arange(spec.n_relations), sizes)
    total = len(rel_of)
    member_class = np.where(
        rng.random(total) < spec.homophily, owner[rel_of], rng.integers(0, n_classes, total)
    )
    draw = rng.random(total)
    members = np.empty(total, dtype=np.int64)
    for c in range(n_classes):
        at = np.flatnonzero(member_class == c)
        picks = np.minimum(np.searchsorted(cdfs[c], draw[at], side="right"), len(pools[c]) - 1)
        members[at] = pools[c][picks]
    return np.split(members, np.cumsum(sizes)[:-1])


def generate(spec: CorpusSpec, seed: int, out_dir: Path) -> CorpusTruth:
    """Write docs.tsv, relations.tsv and labels.tsv under out_dir."""
    rng = np.random.default_rng([seed, sum(map(ord, spec.name))])
    n_classes = len(spec.class_names)
    doc_class = rng.choice(n_classes, spec.n_docs, p=np.asarray(spec.class_weights))
    texts = _texts(spec, rng, doc_class)
    doc_ids = [f"doc{i:06d}" for i in range(spec.n_docs)]

    if spec.mode == "cocite":
        # One relation per citing document, owned by the citer's class; the
        # citer never lists itself.
        citers = rng.choice(spec.n_docs, spec.n_relations, replace=False)
        member_lists = _relations(spec, rng, doc_class, doc_class[citers])
        relation_ids = [doc_ids[d] for d in citers.tolist()]
        relation_members = [
            [doc_ids[d] for d in members.tolist() if d != citer]
            for citer, members in zip(citers.tolist(), member_lists)
        ]
    else:
        owner = rng.choice(n_classes, spec.n_relations, p=np.asarray(spec.class_weights))
        member_lists = _relations(spec, rng, doc_class, owner)
        relation_ids = [f"rel{j:06d}" for j in range(spec.n_relations)]
        relation_members = [[doc_ids[d] for d in members.tolist()] for members in member_lists]

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "docs.tsv", "w", encoding="utf-8") as fh:
        for doc, text in zip(doc_ids, texts):
            fh.write(f"{doc}\t{text}\n")
    with open(out_dir / "relations.tsv", "w", encoding="utf-8") as fh:
        for rid, members in zip(relation_ids, relation_members):
            fh.write(f"{rid}\t{' '.join(members)}\n")
    names = [spec.class_names[c] for c in doc_class.tolist()]
    with open(out_dir / "labels.tsv", "w", encoding="utf-8") as fh:
        for doc, name in zip(doc_ids, names):
            fh.write(f"{doc}\t{name}\n")

    index_of = {d: i for i, d in enumerate(doc_ids)}
    kept_relations = [j for j, members in enumerate(relation_members) if len(set(members)) >= 2]
    reached = set()
    for j in kept_relations:
        reached.update(index_of[d] for d in relation_members[j])
    return CorpusTruth(
        doc_ids=doc_ids,
        doc_texts=texts,
        doc_class=names,
        relation_ids=relation_ids,
        relation_members=relation_members,
        kept_relations=kept_relations,
        kept_docs=sorted(reached),
        class_names=sorted(spec.class_names),
    )
