import numpy as np
import pytest

from hnhn.hypergraph import (
    build_hypergraph,
    degree_stats,
    normalization_tables,
    prune,
    read_hypergraph,
    relabel,
    unit_tables,
    write_hypergraph,
)


def test_build_basic_incidence():
    h = build_hypergraph([(0, 1), (1, 2, 3)], 4)
    assert h.n == 4 and h.m == 2
    assert h.edge_to_nodes == ((0, 1), (1, 2, 3))
    assert h.node_to_edges == ((0,), (0, 1), (1,), (1,))
    assert list(h.node_degrees) == [1, 2, 1, 1]
    assert list(h.edge_sizes) == [2, 3]
    assert h.incidence_count == 5


def test_build_sorts_edge_members():
    h = build_hypergraph([(3, 0, 2)], 4)
    assert h.edge_to_nodes == ((0, 2, 3),)


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_hypergraph([()], 3)
    with pytest.raises(ValueError):
        build_hypergraph([(0, 3)], 3)
    with pytest.raises(ValueError):
        build_hypergraph([(-1, 0)], 3)
    with pytest.raises(ValueError):
        build_hypergraph([(1, 1)], 3)


def test_incidence_flat_pairs_are_duals():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 12))
        edges = []
        for _ in range(m):
            size = int(rng.integers(1, min(4, n) + 1))
            edges.append(tuple(rng.choice(n, size=size, replace=False)))
        h = build_hypergraph(edges, n)
        edge_ids, node_ids = h.edge_incidence_flat
        pairs = set(zip(edge_ids.tolist(), node_ids.tolist()))
        assert len(pairs) == h.incidence_count
        # The aggregation indices: the edge-major pairs, and their transpose,
        # node-major with each node's edges ascending, which links back.
        into_edges, into_nodes = h.segment_indices
        assert np.array_equal(into_edges.target_ids, edge_ids)
        assert np.array_equal(into_edges.source_ids, node_ids)
        node_major = [(i, j) for i, incident in enumerate(h.node_to_edges) for j in incident]
        assert list(zip(into_nodes.target_ids.tolist(), into_nodes.source_ids.tolist())) == node_major
        assert set((j, i) for i, j in node_major) == pairs
        assert (into_edges.n_targets, into_nodes.n_targets) == (h.m, h.n)
        assert into_edges.transposed(h.n) is into_nodes
        assert into_nodes.transposed(h.m) is into_edges


def _loop_divisors(h, edge_scale, node_scale):
    """The per-node and per-edge divisor sums as plain loops, in id order."""
    node_divisor = np.zeros(h.n)
    for i, incident in enumerate(h.node_to_edges):
        for j in incident:
            node_divisor[i] += edge_scale[j]
    edge_divisor = np.zeros(h.m)
    for j, members in enumerate(h.edge_to_nodes):
        for i in members:
            edge_divisor[j] += node_scale[i]
    node_divisor[node_divisor == 0.0] = 1.0
    edge_divisor[edge_divisor == 0.0] = 1.0
    return node_divisor, edge_divisor


def _loop_prune_masks(h, drop_dangling, drop_singletons):
    """Kept-node and kept-edge masks of the alternating fixed-point loop."""
    keep_nodes = np.ones(h.n, dtype=bool)
    keep_edges = np.ones(h.m, dtype=bool)
    changed = True
    while changed:
        changed = False
        if drop_singletons:
            for j in range(h.m):
                if keep_edges[j] and len(h.edge_to_nodes[j]) <= 1:
                    keep_edges[j] = False
                    changed = True
        if drop_dangling:
            degree = np.zeros(h.n, dtype=np.int64)
            for j in range(h.m):
                if keep_edges[j]:
                    for i in h.edge_to_nodes[j]:
                        degree[i] += 1
            newly_dropped = keep_nodes & (degree == 0)
            if newly_dropped.any():
                keep_nodes[newly_dropped] = False
                changed = True
    return keep_nodes, keep_edges


def test_tables_and_prune_match_loop_reference():
    rng = np.random.default_rng(3)
    n = 60
    edges = [tuple(rng.choice(n - 1, size=int(rng.integers(2, 7)), replace=False)) for _ in range(25)]
    edges.append((7,))  # a singleton edge; node n - 1 is in no edge
    h = build_hypergraph(edges, n)
    assert h.node_degrees[n - 1] == 0
    for alpha, beta in [(0.0, 0.0), (1.0, -0.5), (-0.75, 0.25), (0.3, 1.7)]:
        tables = normalization_tables(h, alpha, beta)
        node_divisor, edge_divisor = _loop_divisors(
            h, tables.edge_scale_alpha, tables.node_scale_beta
        )
        assert np.array_equal(tables.node_divisor_alpha, node_divisor)
        assert np.array_equal(tables.edge_divisor_beta, edge_divisor)
    for flags in [(True, True), (True, False), (False, True), (False, False)]:
        pruned, remap = prune(h, *flags)
        keep_nodes, keep_edges = _loop_prune_masks(h, *flags)
        assert np.array_equal(remap.node_map >= 0, keep_nodes)
        assert np.array_equal(remap.edge_map >= 0, keep_edges)
        assert (pruned.n, pruned.m) == (keep_nodes.sum(), keep_edges.sum())
    edgeless = normalization_tables(build_hypergraph([], 3), 0.5, 0.5)
    assert edgeless.node_divisor_alpha.dtype == np.float64
    assert np.array_equal(edgeless.node_divisor_alpha, np.ones(3))


class TestPrune:
    def test_drops_singletons_then_dangling(self):
        # Singleton edge {2} goes away, leaving node 2 dangling.
        h = build_hypergraph([(0, 1), (2,)], 3)
        pruned, remap = prune(h)
        assert pruned.n == 2 and pruned.m == 1
        assert pruned.edge_to_nodes == ((0, 1),)
        assert list(remap.node_map) == [0, 1, -1]
        assert list(remap.edge_map) == [0, -1]

    def test_cascades_to_fixed_point(self):
        # Removing {3} strands node 3; removing node 2 (degree 0) is direct.
        h = build_hypergraph([(0, 1), (1, 3), (3,)], 5)
        pruned, remap = prune(h)
        assert pruned.n == 3 and pruned.m == 2
        assert list(remap.node_map) == [0, 1, -1, 2, -1]

    def test_noop_on_clean_hypergraph(self):
        h = build_hypergraph([(0, 1), (1, 2)], 3)
        pruned, remap = prune(h)
        assert pruned.edge_to_nodes == h.edge_to_nodes
        assert list(remap.node_map) == [0, 1, 2]

    def test_flags_disable_each_rule(self):
        h = build_hypergraph([(0, 1), (2,)], 4)
        keep_singletons, _ = prune(h, drop_singleton_edges=False)
        assert keep_singletons.m == 2
        assert keep_singletons.n == 3  # node 3 still dangles and goes away
        keep_dangling, _ = prune(h, drop_dangling_nodes=False)
        assert keep_dangling.n == 4 and keep_dangling.m == 1


class TestNormalizationTables:
    def test_zero_exponents_give_plain_mean(self):
        h = build_hypergraph([(0, 1), (1, 2, 3)], 4)
        t = normalization_tables(h, 0.0, 0.0)
        assert np.array_equal(t.edge_scale_alpha, np.ones(2))
        assert np.array_equal(t.node_scale_beta, np.ones(4))
        assert np.array_equal(t.node_divisor_alpha, h.node_degrees)
        assert np.array_equal(t.edge_divisor_beta, h.edge_sizes)

    def test_alpha_one_matches_manual(self):
        h = build_hypergraph([(0, 1), (1, 2, 3)], 4)
        t = normalization_tables(h, 1.0, 0.0)
        assert list(t.edge_scale_alpha) == [2.0, 3.0]
        # node 1 touches both edges: |e0|^1 + |e1|^1 = 5.
        assert list(t.node_divisor_alpha) == [2.0, 5.0, 3.0, 3.0]

    def test_negative_beta_matches_manual(self):
        h = build_hypergraph([(0, 1), (1, 2)], 3)
        t = normalization_tables(h, 0.0, -1.0)
        assert np.allclose(t.node_scale_beta, [1.0, 0.5, 1.0])
        assert np.allclose(t.edge_divisor_beta, [1.5, 1.5])

    def test_degree_zero_node_gets_unit_divisor(self):
        h = build_hypergraph([(0, 1)], 3)
        t = normalization_tables(h, 0.5, 0.5)
        assert t.node_divisor_alpha[2] == 1.0  # replaced, yields zero message
        assert t.node_scale_beta[2] == 0.0

    def test_zero_exponent_on_zero_degree_is_one(self):
        h = build_hypergraph([(0, 1)], 3)
        t = normalization_tables(h, 0.0, 0.0)
        assert t.node_scale_beta[2] == 1.0

    def test_rejects_non_finite_exponents(self):
        h = build_hypergraph([(0, 1)], 2)
        with pytest.raises(ValueError):
            normalization_tables(h, float("nan"), 0.0)
        with pytest.raises(ValueError):
            normalization_tables(h, 0.0, float("inf"))

    def test_unit_tables_are_all_ones(self):
        h = build_hypergraph([(0, 1), (1, 2)], 3)
        t = unit_tables(h)
        for vec in (
            t.edge_scale_alpha,
            t.node_divisor_alpha,
            t.node_scale_beta,
            t.edge_divisor_beta,
        ):
            assert np.array_equal(vec, np.ones(len(vec)))


def test_degree_stats_values():
    h = build_hypergraph([(0, 1), (1, 2, 3)], 4)
    stats = degree_stats(h)
    assert stats.avg_node_degree == pytest.approx(5 / 4)
    assert stats.avg_edge_size == pytest.approx(2.5)
    assert stats.std_edge_size == pytest.approx(0.5)


def test_relabel_round_trip():
    h = build_hypergraph([(0, 1), (1, 2, 3)], 4)
    perm = [2, 0, 3, 1]
    inverse = np.argsort(perm)
    back = relabel(relabel(h, perm), list(inverse))
    assert back.edge_to_nodes == h.edge_to_nodes


def test_text_format_round_trip(tmp_path):
    h = build_hypergraph([(0, 1), (1, 2, 3), (4,)], 5)
    path = tmp_path / "h.txt"
    write_hypergraph(h, path)
    again = read_hypergraph(path)
    assert again.n == h.n and again.m == h.m
    assert again.edge_to_nodes == h.edge_to_nodes


def test_read_skips_comments(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# canonical format\n3 1\n# an edge\n0 2\n")
    h = read_hypergraph(path)
    assert h.n == 3 and h.edge_to_nodes == ((0, 2),)
