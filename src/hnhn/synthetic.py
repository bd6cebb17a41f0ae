"""Synthetic hypergraph generators for checks, benchmarks, and the planted
two-community learning task."""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph, build_hypergraph
from .rng import CounterRng


def random_hypergraph(
    n: int,
    m: int,
    seed: int = 0,
    min_size: int = 1,
    max_size: int = 4,
) -> Hypergraph:
    """Uniform random hypergraph: each edge samples a size in [min_size,
    max_size] and that many distinct nodes.

    An edge's members are the `size` nodes with the smallest of n random
    keys, ordered by (key, node id): the first `size` entries of
    `rng.permutation(n)`, found by a partition instead of a full sort.
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n} m={m}")
    if not 1 <= min_size <= max_size <= n:
        raise ValueError(f"bad size range [{min_size}, {max_size}] for n={n}")
    rng = CounterRng(seed)
    edges = []
    for _ in range(m):
        size = min_size + int(rng.integers(max_size - min_size + 1, 1)[0])
        edges.append(tuple(_smallest_keys(rng.random(n), size)))
    return build_hypergraph(edges, n)


def _smallest_keys(keys: np.ndarray, size: int) -> np.ndarray:
    """Indices of the `size` smallest keys in (key, index) order, the prefix
    of np.argsort(keys, kind="stable"); keys tied with the cut are all kept
    as candidates so ties resolve by index as the stable sort does."""
    cut = np.partition(keys, size - 1)[size - 1]
    candidates = np.flatnonzero(keys <= cut)
    return candidates[np.argsort(keys[candidates], kind="stable")][:size]


def planted_two_communities(
    n: int = 200,
    m: int = 60,
    seed: int = 0,
    min_size: int = 4,
    max_size: int = 8,
) -> tuple[Hypergraph, np.ndarray]:
    """Hypergraph whose edges each stay inside one of two node communities.

    Nodes split into halves labeled 0 and 1; each community gets m/2 edges.
    Community members are dealt round-robin across those edges before any
    random top-up, so every node is covered and no node dangles.
    """
    if n < 4 or n % 2 or m < 2 or m % 2:
        raise ValueError(f"need even n >= 4 and even m >= 2, got n={n} m={m}")
    half_n, half_m = n // 2, m // 2
    if not 1 <= min_size <= max_size <= half_n:
        raise ValueError(f"bad size range [{min_size}, {max_size}] for halves of {n}")
    rng = CounterRng(seed)
    edges: list[tuple[int, ...]] = []
    for community in range(2):
        base = community * half_n
        members = [set() for _ in range(half_m)]
        dealt = rng.shuffled(np.arange(half_n) + base)
        for pos, node in enumerate(dealt):
            members[pos % half_m].add(int(node))
        for edge in members:
            target = min_size + int(rng.integers(max_size - min_size + 1, 1)[0])
            pool = rng.shuffled(np.arange(half_n) + base)
            for node in pool:
                if len(edge) >= target:
                    break
                edge.add(int(node))
        edges.extend(tuple(sorted(edge)) for edge in members)
    labels = np.repeat([0, 1], half_n).astype(np.int64)
    return build_hypergraph(edges, n), labels


def identity_features(n: int) -> np.ndarray:
    """One-hot node identity features."""
    return np.eye(n, dtype=np.float64)
