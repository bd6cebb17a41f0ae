"""Tests for the synthetic generators."""

import numpy as np
import pytest

from hnhn.hypergraph import build_hypergraph
from hnhn.rng import CounterRng
from hnhn.synthetic import _smallest_keys, random_hypergraph


def _random_hypergraph_by_permutation(n, m, seed, min_size, max_size):
    """The generator's reference form: each edge is a prefix of a full
    random permutation of the nodes."""
    rng = CounterRng(seed)
    edges = []
    for _ in range(m):
        size = min_size + int(rng.integers(max_size - min_size + 1, 1)[0])
        edges.append(tuple(rng.permutation(n)[:size]))
    return build_hypergraph(edges, n)


@pytest.mark.parametrize(
    "n, m, seed, min_size, max_size",
    [
        (1, 3, 0, 1, 1),
        (5, 40, 1, 1, 5),
        (12, 30, 2, 2, 4),
        (300, 120, 3, 1, 4),
        (2500, 200, 4, 3, 8),
    ],
)
def test_random_hypergraph_matches_permutation_prefixes(n, m, seed, min_size, max_size):
    fast = random_hypergraph(n, m, seed=seed, min_size=min_size, max_size=max_size)
    reference = _random_hypergraph_by_permutation(n, m, seed, min_size, max_size)
    assert fast == reference


def test_smallest_keys_breaks_ties_at_the_cut_by_index():
    keys = np.array([0.5, 0.1, 0.5, 0.3, 0.5, 0.1])
    for size in range(1, len(keys) + 1):
        expected = np.argsort(keys, kind="stable")[:size]
        assert np.array_equal(_smallest_keys(keys, size), expected)
