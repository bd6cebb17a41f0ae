"""Correctness checks that do not trust the package under test.

Files are parsed here without the package's readers, and the reference
forward pass and normalization tables are rebuilt from the incidence
matrix with scipy.sparse. Every check raises CheckFailed with the measured
numbers when it fails; none compares against stored output.
"""

from __future__ import annotations

import csv
import re
import struct
from pathlib import Path

import numpy as np

FORWARD_TOL = 1e-9
TABLE_TOL = 1e-12


class CheckFailed(AssertionError):
    """A benchmark output disagreed with its independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- independent readers -------------------------------------------------------


def read_edges(path: Path) -> tuple[int, list[tuple[int, ...]]]:
    """Node count and member lists from the hypergraph text format."""
    rows = [
        line.split()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [tuple(sorted(int(t) for t in row)) for row in rows[1:]]
    _require(len(edges) == m, f"{path.name}: header says {m} edges, file has {len(edges)}")
    return n, edges


def read_features(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    rows, cols = struct.unpack("<QQ", raw[:16])
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, cols)


def read_label_column(path: Path) -> list[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))[1:]
    _require(
        [int(r[0]) for r in records] == list(range(len(records))),
        f"{path.name}: ids are not 0..{len(records) - 1} in order",
    )
    return [int(r[1]) for r in records]


def incidence_matrix(n: int, edges: list[tuple[int, ...]]):
    """0/1 node-by-edge incidence matrix (scipy.sparse CSR)."""
    import scipy.sparse as sp  # not at module level: set-up time must not include it

    rows = np.fromiter((i for e in edges for i in e), dtype=np.int64)
    cols = np.repeat(np.arange(len(edges)), [len(e) for e in edges])
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, len(edges)))


# -- ingest ---------------------------------------------------------------------


def check_ingest(truth, data_dir: Path, mode: str) -> None:
    """Ingest output against the generator's own account of the corpus."""
    n, edges = read_edges(data_dir / "hypergraph.txt")
    _require(
        n == len(truth.kept_docs),
        f"n={n}, but {len(truth.kept_docs)} documents are in a relation of two or more",
    )
    _require(
        len(edges) == len(truth.kept_relations),
        f"m={len(edges)}, but {len(truth.kept_relations)} relations have two or more members",
    )
    node_of = {truth.doc_ids[d]: i for i, d in enumerate(truth.kept_docs)}
    expected = [
        tuple(sorted({node_of[d] for d in truth.relation_members[j]})) for j in truth.kept_relations
    ]
    wrong = sum(a != b for a, b in zip(edges, expected))
    _require(wrong == 0, f"{wrong} of {len(edges)} hyperedges differ from the generated relations")

    class_id = {name: k for k, name in enumerate(truth.class_names)}
    labels = read_label_column(data_dir / "labels.csv")
    want = [class_id[truth.doc_class[d]] for d in truth.kept_docs]
    _require(labels == want, f"{sum(a != b for a, b in zip(labels, want))} node labels disagree")
    edge_labels = read_label_column(data_dir / "edge_labels.csv")
    doc_index = {d: i for i, d in enumerate(truth.doc_ids)}
    want_edges = [
        class_id[truth.doc_class[doc_index[truth.relation_ids[j]]]]
        if mode == "cocite"
        else -1
        for j in truth.kept_relations
    ]
    _require(edge_labels == want_edges, "edge labels disagree with the citing documents' classes")
    classes = (data_dir / "classes.txt").read_text(encoding="utf-8").split("\n")[:-1]
    _require(classes == truth.class_names, f"classes.txt lists {classes}")

    vocabulary = set((data_dir / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1])
    has_terms = np.array([not _terms(truth.doc_texts[d]).isdisjoint(vocabulary) for d in truth.kept_docs])
    check_unit_rows(read_features(data_dir / "features.bin"), has_terms)


def _terms(text: str) -> set[str]:
    """Unigrams and bigrams of the lowercase alphanumeric runs of `text`."""
    words = re.findall(r"[a-z0-9]+", text.lower())
    return set(words) | {f"{a} {b}" for a, b in zip(words, words[1:])}


def check_unit_rows(features: np.ndarray, has_terms: np.ndarray) -> None:
    """Unit rows for documents with a vocabulary term, zero rows for the rest:
    a document none of whose terms made the vocabulary has no tf-idf direction."""
    n = len(has_terms)
    _require(features.shape[0] == n, f"{features.shape[0]} feature rows for {n} nodes")
    norms = np.linalg.norm(features, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)[has_terms], initial=0.0))
    _require(worst <= 1e-12, f"tf-idf row norms are off unit length by up to {worst:.3g}")
    empty = int(np.count_nonzero(norms[~has_terms]))
    _require(empty == 0, f"{empty} documents with no vocabulary term have nonzero feature rows")


# -- normalization and forward ---------------------------------------------------


def _degree_weights(incidence, alpha: float, beta: float):
    degree = np.asarray(incidence.sum(axis=1)).ravel()
    size = np.asarray(incidence.sum(axis=0)).ravel()
    _require(degree.min() > 0 and size.min() > 0, "incidence has an empty node or edge")
    node_weight = degree**beta
    edge_weight = size**alpha
    return node_weight, edge_weight, incidence @ edge_weight, incidence.T @ node_weight


def check_tables(tables, incidence) -> None:
    """The package's normalization tables against sparse degree products."""
    node_weight, edge_weight, node_div, edge_div = _degree_weights(
        incidence, tables.alpha, tables.beta
    )
    for name, got, want in (
        ("node_scale_beta", tables.node_scale_beta, node_weight),
        ("edge_scale_alpha", tables.edge_scale_alpha, edge_weight),
        ("node_divisor_alpha", tables.node_divisor_alpha, node_div),
        ("edge_divisor_beta", tables.edge_divisor_beta, edge_div),
    ):
        err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
        _require(
            err <= TABLE_TOL,
            f"{name} at alpha={tables.alpha}, beta={tables.beta} is off by {err:.3g} (relative)",
        )


def reference_forward(model, incidence, features: np.ndarray):
    """Eval-mode node logits and final edge states, from sparse products."""
    import scipy.sparse as sp

    node_weight, edge_weight, node_div, edge_div = _degree_weights(
        incidence, model.alpha, model.beta
    )
    into_edges = sp.diags(1.0 / edge_div) @ incidence.T @ sp.diags(node_weight)
    into_nodes = sp.diags(1.0 / node_div) @ incidence @ sp.diags(edge_weight)
    x = features @ model.input_weight.values + model.input_bias.values
    edges = np.zeros((incidence.shape[1], model.hidden_dim))
    for layer in range(model.n_layers):
        edges = np.maximum(
            (into_edges @ x) @ model.edge_weights[layer].values + model.edge_biases[layer].values,
            0.0,
        )
        x = np.maximum(
            (into_nodes @ edges) @ model.node_weights[layer].values + model.node_biases[layer].values,
            0.0,
        )
    return x @ model.node_head_weight.values + model.node_head_bias.values, edges


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float = FORWARD_TOL) -> None:
    _require(got.shape == want.shape, f"{name}: shape {got.shape}, reference {want.shape}")
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    _require(err <= tol * scale, f"{name}: differs from the sparse reference by {err:.3g}")


# -- training properties ---------------------------------------------------------


def check_directional_derivative(loss_at, grads: list[np.ndarray], direction: list[np.ndarray]) -> None:
    """Central differences of loss_at(t) at t=0 against <grad, direction>.

    loss_at(t) evaluates the loss with every parameter moved by t*direction.
    A ReLU whose input crosses zero within the step bends the difference,
    and with hundreds of thousands of units one sometimes does: on the
    coauthor_dblp corpus of seed 306 steps of 1e-5 and 1e-6 were off by 8e-4
    while 1e-7 agreed to 4e-11. So the check passes when one of three steps,
    a decade apart, agrees; a wrong gradient disagrees at every step.
    """
    analytic = float(sum(np.vdot(g, d) for g, d in zip(grads, direction)))
    numeric = []
    for step in (1e-6, 1e-7, 1e-8):
        numeric.append((loss_at(step) - loss_at(-step)) / (2 * step))
        if abs(numeric[-1] - analytic) <= 1e-6 + 1e-4 * abs(analytic):
            return
    raise CheckFailed(
        "directional derivative: finite differences "
        + ", ".join(f"{v:.9g}" for v in numeric)
        + f" at steps 1e-6, 1e-7, 1e-8; gradient {analytic:.9g}"
    )


def check_loss_decreased(name: str, losses: list[float]) -> None:
    _require(
        losses[-1] < losses[0],
        f"{name}: final training loss {losses[-1]:.4g} is not below the first {losses[0]:.4g}",
    )


def chance_bound(test_labels: np.ndarray) -> float:
    """Accuracy of always guessing the largest test class, plus 3 sigma."""
    share = np.bincount(test_labels).max() / len(test_labels)
    return float(share + 3.0 * np.sqrt(share * (1.0 - share) / len(test_labels)))


def check_above_chance(name: str, accuracy: float, test_labels: np.ndarray) -> None:
    bound = chance_bound(test_labels)
    _require(accuracy > bound, f"{name}: accuracy {accuracy:.4f} is not above chance bound {bound:.4f}")
