"""Incidence-list hypergraph storage and degree-power normalization tables.

A hypergraph is stored as dual adjacency lists (node -> incident edge ids,
edge -> member node ids); the dense n x m incidence matrix is never
materialized here. Normalization tables precompute the per-edge/per-node
scale and divisor vectors used by the convolution's weighted-mean
aggregation, parameterized by real exponents alpha (edge sizes) and
beta (node degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import SegmentIndex


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph over nodes 0..n-1 and edges 0..m-1.

    Invariants: dual consistency (j in node_to_edges[i] iff
    i in edge_to_nodes[j]), all ids in range, lists sorted ascending
    with no duplicates.
    """

    n: int
    m: int
    node_to_edges: tuple[tuple[int, ...], ...]
    edge_to_nodes: tuple[tuple[int, ...], ...]

    @cached_property
    def node_degrees(self) -> np.ndarray:
        return np.array([len(es) for es in self.node_to_edges], dtype=np.int64)

    @cached_property
    def edge_sizes(self) -> np.ndarray:
        return np.array([len(vs) for vs in self.edge_to_nodes], dtype=np.int64)

    @property
    def incidence_count(self) -> int:
        return int(self.edge_sizes.sum()) if self.m else 0

    @cached_property
    def edge_incidence_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(edge_id, node_id) incidence pairs, flattened edge-major."""
        edge_ids = np.repeat(np.arange(self.m, dtype=np.int64), self.edge_sizes)
        node_ids = np.array(
            [i for members in self.edge_to_nodes for i in members], dtype=np.int64
        )
        return edge_ids, node_ids

    @cached_property
    def segment_indices(self) -> tuple[SegmentIndex, SegmentIndex]:
        """(into_edges, into_nodes): the aggregation indices of the convolution.

        into_edges gathers member nodes into each edge in edge-major order;
        into_nodes is its transpose, the same pairs node-major with each
        node's edges ascending. Each serves the other's backward pass, and
        both keep their bin ids per row width for the life of the hypergraph.
        """
        into_edges = SegmentIndex(self.m, *self.edge_incidence_flat)
        return into_edges, into_edges.transposed(self.n)


@dataclass(frozen=True)
class NormalizationTables:
    """Degree-power scale/divisor vectors for weighted-mean aggregation.

    edge_scale_alpha[j]   = |edge j|^alpha
    node_divisor_alpha[i] = sum of |edge j|^alpha over edges j incident to i
    node_scale_beta[i]    = degree(i)^beta
    edge_divisor_beta[j]  = sum of degree(i)^beta over nodes i in edge j

    Divisors that would be zero (degree-0 nodes kept by the caller) are
    replaced by 1 so the aggregation emits a zero row instead of NaN.
    """

    alpha: float
    beta: float
    edge_scale_alpha: np.ndarray
    node_divisor_alpha: np.ndarray
    node_scale_beta: np.ndarray
    edge_divisor_beta: np.ndarray


@dataclass(frozen=True)
class PruneRemap:
    """Dense order-preserving id remapping produced by prune (-1 = removed)."""

    node_map: np.ndarray
    edge_map: np.ndarray


@dataclass(frozen=True)
class DegreeStats:
    avg_node_degree: float
    std_node_degree: float
    avg_edge_size: float
    std_edge_size: float


def build_hypergraph(edges: Iterable[Sequence[int]], n: int) -> Hypergraph:
    """Build a validated Hypergraph from edge member lists.

    Edge order is preserved; incidence lists are sorted ascending.
    Raises ValueError for out-of-range ids, duplicate ids within an
    edge, or empty edges.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    node_to_edges: list[list[int]] = [[] for _ in range(n)]
    edge_to_nodes: list[tuple[int, ...]] = []
    for j, members in enumerate(edges):
        members = list(members)
        if not members:
            raise ValueError(f"edge {j} is empty")
        seen = set()
        for i in members:
            i = int(i)
            if not 0 <= i < n:
                raise ValueError(f"edge {j} references node {i}, outside 0..{n - 1}")
            if i in seen:
                raise ValueError(f"edge {j} lists node {i} more than once")
            seen.add(i)
        sorted_members = tuple(sorted(seen))
        for i in sorted_members:
            node_to_edges[i].append(j)
        edge_to_nodes.append(sorted_members)
    return Hypergraph(
        n=n,
        m=len(edge_to_nodes),
        node_to_edges=tuple(tuple(es) for es in node_to_edges),
        edge_to_nodes=tuple(edge_to_nodes),
    )


def prune(
    h: Hypergraph,
    drop_dangling_nodes: bool = True,
    drop_singleton_edges: bool = True,
) -> tuple[Hypergraph, PruneRemap]:
    """Remove degree-0 nodes and/or size-1 edges, to a fixed point.

    Removing a singleton edge can strand its node, so node degrees are
    counted over the kept edges. A dropped node belongs to no kept edge, so
    no edge shrinks and one pass of each rule reaches the fixed point. The
    returned remapping is dense and order-preserving; removed ids map to -1.
    May return an empty hypergraph.
    """
    keep_edges = np.ones(h.m, dtype=bool)
    if drop_singleton_edges:
        keep_edges &= h.edge_sizes > 1
    keep_nodes = np.ones(h.n, dtype=bool)
    if drop_dangling_nodes:
        edge_ids, node_ids = h.edge_incidence_flat
        keep_nodes = np.bincount(node_ids[keep_edges[edge_ids]], minlength=h.n) > 0

    node_map = np.full(h.n, -1, dtype=np.int64)
    node_map[keep_nodes] = np.arange(int(keep_nodes.sum()))
    edge_map = np.full(h.m, -1, dtype=np.int64)
    edge_map[keep_edges] = np.arange(int(keep_edges.sum()))

    new_edges = [
        [int(node_map[i]) for i in h.edge_to_nodes[j]]
        for j in range(h.m)
        if keep_edges[j]
    ]
    pruned = build_hypergraph(new_edges, int(keep_nodes.sum()))
    return pruned, PruneRemap(node_map=node_map, edge_map=edge_map)


def normalization_tables(h: Hypergraph, alpha: float, beta: float) -> NormalizationTables:
    """Precompute the degree-power scale and divisor vectors for (alpha, beta).

    Degrees are integers; powers are computed in double precision. With
    alpha = 0 the edge scales are all 1 and the node divisors equal the
    node degrees (plain mean normalization); symmetrically for beta = 0.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not np.isfinite(alpha) or not np.isfinite(beta):
        raise ValueError("alpha and beta must be finite")

    edge_scale_alpha = _degree_power(h.edge_sizes, alpha)
    node_scale_beta = _degree_power(h.node_degrees, beta)

    # bincount adds in pair order: each node's edges and each edge's
    # members ascending by id. With no pairs at all it returns integers.
    edge_ids, node_ids = h.edge_incidence_flat
    node_divisor_alpha = np.bincount(
        node_ids, weights=edge_scale_alpha[edge_ids], minlength=h.n
    ).astype(np.float64, copy=False)
    edge_divisor_beta = np.bincount(
        edge_ids, weights=node_scale_beta[node_ids], minlength=h.m
    ).astype(np.float64, copy=False)

    # Degree-0 entities: divisor 1 makes the aggregation emit zeros.
    node_divisor_alpha[node_divisor_alpha == 0.0] = 1.0
    edge_divisor_beta[edge_divisor_beta == 0.0] = 1.0

    return NormalizationTables(
        alpha=alpha,
        beta=beta,
        edge_scale_alpha=edge_scale_alpha,
        node_divisor_alpha=node_divisor_alpha,
        node_scale_beta=node_scale_beta,
        edge_divisor_beta=edge_divisor_beta,
    )


def _degree_power(degrees: np.ndarray, exponent: float) -> np.ndarray:
    """degrees**exponent with 0^0 = 1 and 0^p = 0 kept finite for p < 0."""
    out = np.ones(len(degrees), dtype=np.float64)
    positive = degrees > 0
    if exponent != 0.0:
        out[positive] = degrees[positive].astype(np.float64) ** exponent
        out[~positive] = 0.0
    return out


def unit_tables(h: Hypergraph) -> NormalizationTables:
    """Identity scaling: all scales and divisors 1, so aggregation is a plain sum."""
    return NormalizationTables(
        alpha=0.0,
        beta=0.0,
        edge_scale_alpha=np.ones(h.m),
        node_divisor_alpha=np.ones(h.n),
        node_scale_beta=np.ones(h.n),
        edge_divisor_beta=np.ones(h.m),
    )


def degree_stats(h: Hypergraph) -> DegreeStats:
    """Arithmetic mean and population std of node degrees and edge sizes."""
    if h.n == 0 or h.m == 0:
        raise ValueError("degree statistics need a non-empty hypergraph")
    deg = h.node_degrees.astype(np.float64)
    sz = h.edge_sizes.astype(np.float64)
    return DegreeStats(
        avg_node_degree=float(deg.mean()),
        std_node_degree=float(deg.std()),
        avg_edge_size=float(sz.mean()),
        std_edge_size=float(sz.std()),
    )


def relabel(h: Hypergraph, node_perm: Sequence[int], edge_perm: Sequence[int] | None = None) -> Hypergraph:
    """Apply permutations old id -> new id to nodes (and optionally edges)."""
    node_perm = list(node_perm)
    if sorted(node_perm) != list(range(h.n)):
        raise ValueError("node_perm must be a permutation of 0..n-1")
    if edge_perm is None:
        edge_perm = list(range(h.m))
    else:
        edge_perm = list(edge_perm)
        if sorted(edge_perm) != list(range(h.m)):
            raise ValueError("edge_perm must be a permutation of 0..m-1")
    new_edges: list[list[int]] = [[] for _ in range(h.m)]
    for j, members in enumerate(h.edge_to_nodes):
        new_edges[edge_perm[j]] = [node_perm[i] for i in members]
    return build_hypergraph(new_edges, h.n)


def write_hypergraph(h: Hypergraph, path: str | Path) -> None:
    """Write the canonical text format: header "n m", then one line per edge."""
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(str(i) for i in members) for members in h.edge_to_nodes)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_hypergraph(path: str | Path) -> Hypergraph:
    """Parse the canonical text format; lines starting with '#' are comments."""
    rows: list[list[str]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    if not rows:
        raise ValueError(f"{path}: no content")
    header = rows[0]
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    edge_rows = rows[1:]
    if len(edge_rows) != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(edge_rows)}")
    edges = [[int(tok) for tok in row] for row in edge_rows]
    return build_hypergraph(edges, n)
