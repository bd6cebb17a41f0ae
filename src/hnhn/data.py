"""Citation-corpus ingestion: TSV loading, hypergraph construction with
pruning, n-gram featurization, and the on-disk layout the CLI trains from.

Input layout (tab-separated):
  docs.tsv       doc id <TAB> raw text
  relations.tsv  relation id <TAB> space-separated member doc ids
  labels.tsv     doc id <TAB> class name

Output layout (one directory):
  hypergraph.txt  canonical text format
  features.bin    tensor binary (row/col header + float64 payload)
  labels.csv      node id -> class id (-1 when unlabeled)
  edge_labels.csv edge id -> class id of the relation's own document, if any
  vocab.txt       one vocabulary term per line, column order
  classes.txt     class names, id order
"""

from __future__ import annotations

import csv
import math
import re
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from .autodiff import write_tensor
from .hypergraph import (
    Hypergraph,
    build_hypergraph,
    degree_stats,
    prune,
    write_hypergraph,
)
from .rng import CounterRng

_TOKEN = re.compile(r"[a-z0-9]+")

# Elements per block of _l2_normalize_rows: a block's squares are a 128 KB
# temporary, the same block size as training.ADAM_BLOCK.
NORM_BLOCK = 16_384


@dataclass
class Corpus:
    documents: dict[str, str]
    relations: dict[str, list[str]]
    labels: dict[str, int]
    class_names: list[str]


@dataclass
class FeatureMatrix:
    matrix: np.ndarray
    vocabulary: dict[str, int]


@dataclass
class BuiltHypergraph:
    """Pruned hypergraph plus the document/relation id behind each index."""

    h: Hypergraph
    node_docs: list[str]
    edge_relations: list[str]


def _read_tsv_pairs(path: str | Path, what: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            key, sep, rest = line.partition("\t")
            if not sep:
                raise ValueError(f"{what} line {lineno} has no tab separator")
            pairs.append((key.strip(), rest))
    return pairs


def load_corpus(
    docs_path: str | Path,
    relations_path: str | Path,
    labels_path: str | Path | None = None,
) -> Corpus:
    """Read the TSV layout; class names map to dense ids in sorted order."""
    documents: dict[str, str] = {}
    for doc_id, text in _read_tsv_pairs(docs_path, "docs"):
        if doc_id in documents:
            raise ValueError(f"duplicate document id {doc_id!r}")
        documents[doc_id] = text
    relations: dict[str, list[str]] = {}
    for rel_id, members_text in _read_tsv_pairs(relations_path, "relations"):
        members = members_text.split()
        unknown = [d for d in members if d not in documents]
        if unknown:
            raise ValueError(
                f"relation {rel_id!r} references unknown documents {unknown[:3]}"
            )
        if rel_id in relations:
            raise ValueError(f"duplicate relation id {rel_id!r}")
        relations[rel_id] = members
    raw_labels: dict[str, str] = {}
    if labels_path is not None:
        for doc_id, name in _read_tsv_pairs(labels_path, "labels"):
            if doc_id not in documents:
                raise ValueError(f"label for unknown document {doc_id!r}")
            raw_labels[doc_id] = name.strip()
    class_names = sorted(set(raw_labels.values()))
    name_to_id = {name: i for i, name in enumerate(class_names)}
    labels = {doc: name_to_id[name] for doc, name in raw_labels.items()}
    return Corpus(
        documents=documents,
        relations=relations,
        labels=labels,
        class_names=class_names,
    )


def _build_from_relations(corpus: Corpus) -> BuiltHypergraph:
    doc_ids = list(corpus.documents)
    node_of = {doc: i for i, doc in enumerate(doc_ids)}
    rel_ids = [rid for rid, members in corpus.relations.items() if members]
    edges = [
        tuple(sorted({node_of[d] for d in corpus.relations[rid]})) for rid in rel_ids
    ]
    h = build_hypergraph(edges, len(doc_ids))
    pruned, remap = prune(h)
    if pruned.n == 0 or pruned.m == 0:
        raise ValueError("hypergraph is empty after pruning")
    node_docs = [doc_ids[i] for i in np.flatnonzero(remap.node_map >= 0)]
    edge_relations = [rel_ids[j] for j in np.flatnonzero(remap.edge_map >= 0)]
    return BuiltHypergraph(h=pruned, node_docs=node_docs, edge_relations=edge_relations)


def build_cocitation_hypergraph(corpus: Corpus) -> BuiltHypergraph:
    """One hypernode per document, one hyperedge per citing document: the
    edge joins the papers that document cites."""
    return _build_from_relations(corpus)


def build_coauthorship_hypergraph(corpus: Corpus) -> BuiltHypergraph:
    """One hypernode per document, one hyperedge per author joining the
    papers that author wrote."""
    return _build_from_relations(corpus)


def tokenize(text: str, ngrams: tuple[int, ...] = (1, 2)) -> list[str]:
    """Lowercase tokens split on non-alphanumeric runs; n-grams join tokens
    with a single space. Raises ValueError for an n-gram length below 1."""
    if min(ngrams, default=1) < 1:
        raise ValueError(f"n-gram lengths must be at least 1, got {ngrams}")
    words = _TOKEN.findall(text.lower())
    out = []
    for n in ngrams:
        out.extend(map(" ".join, zip(*(words[i:] for i in range(n)))))
    return out


def _term_count_matrix(
    documents: list[str], vocab_size: int, max_doc_freq: float, ngrams: tuple[int, ...]
) -> tuple[np.ndarray, dict[str, int], np.ndarray]:
    """Term counts of each document over the chosen vocabulary, the
    vocabulary (term -> column) and each column's document frequency.

    Every distinct token gets an integer id in order of first appearance;
    the (document, id) pairs and their counts come from one np.unique over
    doc * n_terms + id, document and corpus frequencies from bincounts.
    Terms in more than max_doc_freq of the documents are dropped; the rest
    rank by corpus count, ties broken lexicographically, and only the terms
    that reach the vocab_size-th largest count are sorted in Python.
    """
    if not documents:
        raise ValueError("no documents to featurize")
    # A token seen for the first time gets the next id.
    ids: defaultdict[str, int] = defaultdict(count().__next__)
    token_ids: list[int] = []
    lengths = np.empty(len(documents), dtype=np.int64)
    for row, text in enumerate(documents):
        tokens = tokenize(text, ngrams)
        lengths[row] = len(tokens)
        token_ids.extend(map(ids.__getitem__, tokens))
    n_terms = len(ids)
    token_terms = np.array(token_ids, dtype=np.int64)
    token_rows = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
    pairs, tf = np.unique(token_rows * n_terms + token_terms, return_counts=True)
    pair_rows, pair_terms = np.divmod(pairs, n_terms)
    doc_freq = np.bincount(pair_terms, minlength=n_terms)
    corpus_freq = np.bincount(token_terms, minlength=n_terms)

    kept = np.flatnonzero(doc_freq <= max_doc_freq * len(documents))
    if len(kept) == 0:
        raise ValueError("vocabulary is empty after document-frequency filtering")
    if 0 < vocab_size < len(kept):
        cut = len(kept) - vocab_size
        floor = np.partition(corpus_freq[kept], cut)[cut]
        kept = kept[corpus_freq[kept] >= floor]
    terms = list(ids)
    ranked = sorted(kept.tolist(), key=lambda t: (-corpus_freq[t], terms[t]))
    chosen = np.array(ranked[:vocab_size], dtype=np.int64)

    column_of = np.full(n_terms, -1, dtype=np.int64)
    column_of[chosen] = np.arange(len(chosen))
    columns = column_of[pair_terms]
    hit = columns >= 0
    counts = np.zeros((len(documents), len(chosen)), dtype=np.float64)
    counts[pair_rows[hit], columns[hit]] = tf[hit]
    vocabulary = {terms[t]: i for i, t in enumerate(chosen.tolist())}
    return counts, vocabulary, doc_freq[chosen].astype(np.float64)


def _l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm in place; a zero row stays zero.

    Runs over blocks of whole rows, about NORM_BLOCK elements each, so the
    squares it sums are one block's, not a copy of the whole matrix. Each
    row's norm is the sum np.linalg.norm(axis=1) forms, bit for bit.
    """
    rows = max(1, NORM_BLOCK // max(1, matrix.shape[1]))
    for lo in range(0, matrix.shape[0], rows):
        block = matrix[lo : lo + rows]
        norms = np.sqrt(np.add.reduce(block * block, axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        block /= norms
    return matrix


def tfidf_features(
    documents: list[str],
    vocab_size: int = 1000,
    max_doc_freq: float = 0.2,
    ngrams: tuple[int, ...] = (1, 2),
) -> FeatureMatrix:
    """tf * ln(n_docs / (1 + df)) over the capped vocabulary, rows unit-L2.

    Terms in more than max_doc_freq of documents are discarded before the
    vocabulary is truncated to the vocab_size most frequent terms (raw
    corpus counts, ties broken lexicographically). A document none of whose
    terms made the vocabulary has nothing to normalize and keeps an
    all-zero row. The idf scaling and the normalization run in place on the
    count matrix. Raises ValueError for no documents, an n-gram length
    below 1, or a vocabulary left empty.
    """
    counts, vocabulary, doc_freq = _term_count_matrix(
        documents, vocab_size, max_doc_freq, ngrams
    )
    counts *= np.log(len(documents) / (1.0 + doc_freq))
    return FeatureMatrix(matrix=_l2_normalize_rows(counts), vocabulary=vocabulary)


def bow_features(
    documents: list[str],
    vocab_size: int = 1000,
    max_doc_freq: float = 0.2,
    ngrams: tuple[int, ...] = (1, 2),
) -> FeatureMatrix:
    """Raw term counts over the same vocabulary construction, rows unit-L2
    (all-zero for a document with no vocabulary term)."""
    counts, vocabulary, _ = _term_count_matrix(
        documents, vocab_size, max_doc_freq, ngrams
    )
    return FeatureMatrix(matrix=_l2_normalize_rows(counts), vocabulary=vocabulary)


def load_labels(path: str | Path) -> np.ndarray:
    """Read labels.csv (node,label) into a dense int array, -1 = unlabeled."""
    rows: dict[int, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.reader(fh):
            if not record or record[0] == "node" or record[0] == "edge":
                continue
            rows[int(record[0])] = int(record[1])
    if not rows:
        raise ValueError(f"no label rows in {path}")
    n = max(rows) + 1
    labels = np.full(n, -1, dtype=np.int64)
    for node, label in rows.items():
        labels[node] = label
    return labels


def split_labeled(
    labels: np.ndarray, label_rate: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test masks over the labeled rows.

    Takes ceil(label_rate * n_labeled) training rows, allocated per class by
    largest remainder, shuffled within class by the seed. Raises if any
    class ends up with no training row or nothing is left for testing.
    """
    if not 0.0 < label_rate < 1.0:
        raise ValueError(f"label rate must be in (0, 1), got {label_rate}")
    labels = np.asarray(labels, dtype=np.int64)
    labeled = np.flatnonzero(labels >= 0)
    if len(labeled) == 0:
        raise ValueError("no labeled rows to split")
    total = math.ceil(label_rate * len(labeled))

    classes = np.unique(labels[labeled])
    counts = {int(c): int(np.sum(labels[labeled] == c)) for c in classes}
    quotas = {c: total * counts[c] / len(labeled) for c in counts}
    picks = {c: min(int(quotas[c]), counts[c]) for c in counts}
    leftover = total - sum(picks.values())
    by_remainder = sorted(
        counts, key=lambda c: (-(quotas[c] - int(quotas[c])), -counts[c], c)
    )
    while leftover > 0:
        progressed = False
        for c in by_remainder:
            if leftover == 0:
                break
            if picks[c] < counts[c]:
                picks[c] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break
    empty = [c for c in counts if picks[c] == 0]
    if empty:
        raise ValueError(f"classes {empty} got no training rows at rate {label_rate}")

    rng = CounterRng(seed)
    train_mask = np.zeros(len(labels), dtype=bool)
    for c in sorted(counts):
        members = labeled[labels[labeled] == c]
        members = members[rng.permutation(len(members))]
        train_mask[members[: picks[c]]] = True
    test_mask = (labels >= 0) & ~train_mask
    if not test_mask.any():
        raise ValueError(f"label rate {label_rate} leaves no labeled test rows")
    return train_mask, test_mask


def _write_label_csv(path: Path, column: str, values: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([column, "label"])
        for i, value in enumerate(values):
            writer.writerow([i, int(value)])


def run_ingest(
    docs_path: str | Path,
    relations_path: str | Path,
    labels_path: str | Path | None,
    out_dir: str | Path,
    mode: str = "cocite",
    feature_kind: str = "tfidf",
    vocab_size: int = 1000,
    max_doc_freq: float = 0.2,
) -> dict:
    """Full ingestion: corpus -> pruned hypergraph + features + labels on disk.

    Features are computed over the documents that survive pruning, so rows
    align with hypernode ids. Returns a stats dict for reporting, with the
    wall seconds of the load, hypergraph, features and write phases
    (load_s, hypergraph_s, features_s, write_s).
    """
    if mode not in ("cocite", "coauthor"):
        raise ValueError(f"mode must be cocite or coauthor, got {mode!r}")
    if feature_kind not in ("tfidf", "bow"):
        raise ValueError(f"features must be tfidf or bow, got {feature_kind!r}")
    started = time.perf_counter()
    corpus = load_corpus(docs_path, relations_path, labels_path)
    loaded = time.perf_counter()
    build = build_cocitation_hypergraph if mode == "cocite" else build_coauthorship_hypergraph
    built = build(corpus)
    hypergraph_done = time.perf_counter()
    featurize = tfidf_features if feature_kind == "tfidf" else bow_features
    feats = featurize(
        [corpus.documents[d] for d in built.node_docs],
        vocab_size=vocab_size,
        max_doc_freq=max_doc_freq,
    )
    featurized = time.perf_counter()
    node_labels = np.array(
        [corpus.labels.get(d, -1) for d in built.node_docs], dtype=np.int64
    )
    edge_labels = np.array(
        [corpus.labels.get(r, -1) for r in built.edge_relations], dtype=np.int64
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_hypergraph(built.h, out / "hypergraph.txt")
    with open(out / "features.bin", "wb") as fh:
        write_tensor(fh, feats.matrix)
    _write_label_csv(out / "labels.csv", "node", node_labels)
    _write_label_csv(out / "edge_labels.csv", "edge", edge_labels)
    columns = sorted(feats.vocabulary, key=feats.vocabulary.get)
    (out / "vocab.txt").write_text("\n".join(columns) + "\n", encoding="utf-8")
    (out / "classes.txt").write_text(
        "\n".join(corpus.class_names) + "\n", encoding="utf-8"
    )
    written = time.perf_counter()

    stats = degree_stats(built.h)
    return {
        "n": built.h.n,
        "m": built.h.m,
        "avg_deg": stats.avg_node_degree,
        "avg_edge_size": stats.avg_edge_size,
        "feature_dim": feats.matrix.shape[1],
        "classes": len(corpus.class_names),
        "labeled_nodes": int(np.sum(node_labels >= 0)),
        "labeled_edges": int(np.sum(edge_labels >= 0)),
        "load_s": loaded - started,
        "hypergraph_s": hypergraph_done - loaded,
        "features_s": featurized - hypergraph_done,
        "write_s": written - featurized,
    }
