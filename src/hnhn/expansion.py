"""Clique and star expansions of a hypergraph, and executable structural checks.

The clique expansion replaces each hyperedge with a clique plus per-member
self-loops, so its adjacency C equals A A^T for the incidence matrix A.
The star expansion is the bipartite node/edge graph with adjacency
B = [[0, A], [A^T, 0]]. This module materializes these matrices densely
(small instances only) and provides the checks that tie the two-sided
convolution to plain graph convolution on the expansions:

- check_clique_product: C equals A A^T entrywise (integer-exact).
- check_linear_collapse: without the nonlinearity, the two-step update
  collapses to one clique-expansion convolution with merged weights.
- check_weight_tied: with shared weights/biases and plain-sum aggregation,
  the two-sided update equals graph convolution on B applied to the
  zero-padded concatenated state.
"""

from __future__ import annotations

import itertools

import numpy as np

from hnhn.hypergraph import Hypergraph, build_hypergraph

DEFAULT_SIZE_CAP = 10_000

# 7-point projective plane: every pair of nodes shares exactly one edge.
FANO_EDGES: tuple[tuple[int, ...], ...] = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def incidence_matrix(h: Hypergraph, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Materialize the dense n x m 0/1 incidence matrix (oracle use only)."""
    if max(h.n, h.m) > cap:
        raise ValueError(f"hypergraph too large for dense incidence (cap {cap})")
    a = np.zeros((h.n, h.m), dtype=np.float64)
    for j, members in enumerate(h.edge_to_nodes):
        a[list(members), j] = 1.0
    return a


def clique_adjacency(h: Hypergraph, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Dense clique-expansion adjacency: entry (i1, i2) counts shared edges.

    Diagonal entries count self-loops, one per edge membership, so the
    diagonal equals the node degrees.
    """
    if h.n > cap:
        raise ValueError(f"node count {h.n} exceeds dense cap {cap}")
    c = np.zeros((h.n, h.n), dtype=np.float64)
    for members in h.edge_to_nodes:
        idx = list(members)
        c[np.ix_(idx, idx)] += 1.0
    return c


def star_adjacency(h: Hypergraph, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Dense bipartite adjacency on nodes + edges: [[0, A], [A^T, 0]]."""
    if h.n + h.m > cap:
        raise ValueError(f"size {h.n + h.m} exceeds dense cap {cap}")
    b = np.zeros((h.n + h.m, h.n + h.m), dtype=np.float64)
    for j, members in enumerate(h.edge_to_nodes):
        idx = list(members)
        b[idx, h.n + j] = 1.0
        b[h.n + j, idx] = 1.0
    return b


def graph_convolution_step(
    adj: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """One plain graph convolution: relu(adj @ x @ w + b), bias broadcast per row."""
    adj = np.asarray(adj, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1)
    if adj.shape[1] != x.shape[0]:
        raise ValueError(f"adjacency {adj.shape} does not match features {x.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"features {x.shape} do not match weights {w.shape}")
    if b.shape[1] != w.shape[1]:
        raise ValueError(f"bias {b.shape} does not match weights {w.shape}")
    return np.maximum(adj @ x @ w + b, 0.0)


def _gather_edge_sums(h: Hypergraph, x_nodes: np.ndarray) -> np.ndarray:
    """Per-edge sums of member node rows, computed from the incidence lists."""
    out = np.zeros((h.m, x_nodes.shape[1]), dtype=np.float64)
    for j, members in enumerate(h.edge_to_nodes):
        for i in members:
            out[j] += x_nodes[i]
    return out


def _gather_node_sums(h: Hypergraph, x_edges: np.ndarray) -> np.ndarray:
    """Per-node sums of incident edge rows, computed from the incidence lists."""
    out = np.zeros((h.n, x_edges.shape[1]), dtype=np.float64)
    for i, incident in enumerate(h.node_to_edges):
        for j in incident:
            out[i] += x_edges[j]
    return out


def check_clique_product(h: Hypergraph, cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Clique adjacency equals A A^T entrywise as exact integers."""
    a = incidence_matrix(h, cap)
    c = clique_adjacency(h, cap)
    return bool(np.array_equal(np.rint(c).astype(np.int64), np.rint(a @ a.T).astype(np.int64)))


def check_linear_collapse(
    h: Hypergraph,
    x_v: np.ndarray,
    w_e: np.ndarray,
    w_v: np.ndarray,
    b_e: np.ndarray,
    b_v: np.ndarray,
    tol: float = 1e-9,
) -> bool:
    """Nonlinearity-free two-step update equals clique convolution with merged weights.

    Node-side result of (edge update, node update) without sigma must equal
    C x_v (w_e w_v) + b_c, where b_c row i is degree(i) * b_e w_v + b_v.
    """
    b_e = np.asarray(b_e, dtype=np.float64).reshape(1, -1)
    b_v = np.asarray(b_v, dtype=np.float64).reshape(1, -1)
    x_e = _gather_edge_sums(h, x_v) @ w_e + b_e
    two_step = _gather_node_sums(h, x_e) @ w_v + b_v

    c = clique_adjacency(h)
    merged_w = w_e @ w_v
    merged_b = h.node_degrees[:, None].astype(np.float64) * (b_e @ w_v) + b_v
    collapsed = c @ x_v @ merged_w + merged_b
    return bool(np.max(np.abs(two_step - collapsed)) < tol)


def check_weight_tied(
    h: Hypergraph,
    x_v: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    layers: int = 2,
    tol: float = 1e-9,
) -> bool:
    """Weight-tied two-sided convolution matches convolution on the star expansion.

    With shared w and b, plain-sum aggregation, and ReLU, each half-step of
    the two-sided update must equal the active block of one convolution step
    on B applied to the concatenated state whose inactive block is held at
    zero. Node and edge blocks alternate as the active block.
    """
    b = np.asarray(b, dtype=np.float64).reshape(1, -1)
    big = star_adjacency(h)
    d = x_v.shape[1]

    state = np.zeros((h.n + h.m, d), dtype=np.float64)
    state[: h.n] = x_v
    cur_nodes = np.asarray(x_v, dtype=np.float64)
    for _ in range(layers):
        cur_edges = np.maximum(_gather_edge_sums(h, cur_nodes) @ w + b, 0.0)
        state = graph_convolution_step(big, state, w, b)
        state[: h.n] = 0.0
        if np.max(np.abs(state[h.n :] - cur_edges)) >= tol:
            return False
        cur_nodes = np.maximum(_gather_node_sums(h, cur_edges) @ w + b, 0.0)
        state = graph_convolution_step(big, state, w, b)
        state[h.n :] = 0.0
        if np.max(np.abs(state[: h.n] - cur_nodes)) >= tol:
            return False
    return True


def symmetric_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending; asymmetric input is rejected."""
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)


def fano_pair() -> tuple[Hypergraph, Hypergraph]:
    """The 7-point plane F and the copy F' with its third and sixth nodes swapped.

    Both have the complete graph (plus degree self-loops) as clique
    expansion, yet their edge sets differ, so clique-based convolution
    cannot tell them apart.
    """
    f = build_hypergraph(FANO_EDGES, 7)
    swap = {2: 5, 5: 2}
    swapped = [[swap.get(i, i) for i in members] for members in FANO_EDGES]
    f_swapped = build_hypergraph(swapped, 7)
    return f, f_swapped


def count_fano_relabelings() -> int:
    """Number of distinct hypergraphs obtained by permuting the 7 node labels.

    Enumerates all 5040 permutations, canonicalizes each relabeled edge set,
    and verifies every distinct copy still has the complete-graph clique
    expansion (off-diagonal all 1, diagonal all 3).
    """
    distinct: set[frozenset[frozenset[int]]] = set()
    for perm in itertools.permutations(range(7)):
        edge_set = frozenset(
            frozenset(perm[i] for i in members) for members in FANO_EDGES
        )
        distinct.add(edge_set)
    expected_clique = np.ones((7, 7)) + 2.0 * np.eye(7)
    for edge_set in distinct:
        h = build_hypergraph([sorted(e) for e in sorted(edge_set, key=sorted)], 7)
        if not np.array_equal(clique_adjacency(h), expected_clique):
            raise AssertionError("relabeled copy lost the complete clique expansion")
    return len(distinct)
