import numpy as np
import pytest

from hnhn.expansion import (
    FANO_EDGES,
    check_clique_product,
    check_linear_collapse,
    check_weight_tied,
    clique_adjacency,
    count_fano_relabelings,
    fano_pair,
    graph_convolution_step,
    incidence_matrix,
    star_adjacency,
    symmetric_eigenvalues,
)
from hnhn.hypergraph import build_hypergraph
from hnhn.synthetic import random_hypergraph


def test_single_edge_clique():
    h = build_hypergraph([(0, 1)], 2)
    assert np.array_equal(clique_adjacency(h), [[1, 1], [1, 1]])


def test_fano_clique_is_complete_plus_selfloops():
    h = build_hypergraph(FANO_EDGES, 7)
    c = clique_adjacency(h)
    assert np.array_equal(c, np.ones((7, 7)) + 2 * np.eye(7))


def test_clique_matches_dense_product_on_random_instances():
    for seed in range(20):
        h = random_hypergraph(12, 8, seed=seed, max_size=4)
        a = incidence_matrix(h)
        assert np.array_equal(clique_adjacency(h), a @ a.T)


def test_star_single_edge_is_path():
    h = build_hypergraph([(0, 1)], 2)
    expected = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    assert np.array_equal(star_adjacency(h), expected)


def test_star_fano_is_three_regular_bipartite():
    h = build_hypergraph(FANO_EDGES, 7)
    b = star_adjacency(h)
    assert b.shape == (14, 14)
    assert np.array_equal(b, b.T)
    assert np.array_equal(b.sum(axis=0), np.full(14, 3))
    assert np.array_equal(b[:7, :7], np.zeros((7, 7)))
    assert np.array_equal(b[7:, 7:], np.zeros((7, 7)))


def test_star_square_top_block_is_clique():
    for seed in range(5):
        h = random_hypergraph(10, 7, seed=seed)
        b = star_adjacency(h)
        assert np.array_equal((b @ b)[: h.n, : h.n], clique_adjacency(h))


def test_size_cap_enforced():
    h = build_hypergraph([(0, 1)], 2)
    with pytest.raises(ValueError):
        clique_adjacency(h, cap=1)
    with pytest.raises(ValueError):
        star_adjacency(h, cap=2)


class TestGraphConvolutionStep:
    def test_identity_passthrough(self):
        x = np.array([[1.0, 2.0], [0.5, 3.0]])
        out = graph_convolution_step(np.eye(2), x, np.eye(2), np.zeros(2))
        assert np.array_equal(out, x)

    def test_relu_clips(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = graph_convolution_step(adj, [[1.0], [-2.0]], [[1.0]], [0.0])
        assert np.array_equal(out, [[0.0], [1.0]])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            graph_convolution_step(np.eye(3), np.ones((2, 2)), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            graph_convolution_step(np.eye(2), np.ones((2, 2)), np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            graph_convolution_step(np.eye(2), np.ones((2, 2)), np.eye(2), np.zeros(3))


class TestStructuralChecks:
    def test_single_edge_passes_all(self):
        h = build_hypergraph([(0, 1)], 2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3))
        w_e, w_v = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        b_e, b_v = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        assert check_clique_product(h)
        assert check_linear_collapse(h, x, w_e, w_v, b_e, b_v)
        assert check_weight_tied(h, x, w_e, b_e)

    def test_fano_passes_all(self):
        h = build_hypergraph(FANO_EDGES, 7)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 4))
        w_e, w_v = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        b_e, b_v = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        assert check_clique_product(h)
        assert check_linear_collapse(h, x, w_e, w_v, b_e, b_v)
        assert check_weight_tied(h, x, w_e, b_e, layers=3)

    def test_linear_collapse_against_independent_oracle(self):
        # Rebuild the two-step result straight from the dense incidence
        # matrix, bypassing the gather helpers the check itself uses.
        for seed in range(10):
            h = random_hypergraph(9, 6, seed=seed)
            rng = np.random.default_rng(seed + 100)
            d = 3
            x = rng.normal(size=(h.n, d))
            w_e, w_v = rng.normal(size=(d, d)), rng.normal(size=(d, d))
            b_e, b_v = rng.normal(size=(1, d)), rng.normal(size=(1, d))
            a = incidence_matrix(h)
            dense_two_step = a @ (a.T @ x @ w_e + b_e) @ w_v + b_v
            merged = (a @ a.T) @ x @ (w_e @ w_v) + a.sum(axis=1)[:, None] * (
                b_e @ w_v
            ) + b_v
            assert np.max(np.abs(dense_two_step - merged)) < 1e-9
            assert check_linear_collapse(h, x, w_e, w_v, b_e, b_v)

    def test_perturbed_merged_weight_breaks_the_collapse(self):
        # Negative control: the two routes agree only for the exact merged
        # weight w_e @ w_v and merged bias; a 1e-3 nudge must exceed 1e-9.
        h = build_hypergraph(FANO_EDGES, 7)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 3))
        w_e, w_v = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        b_e, b_v = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        a = incidence_matrix(h)
        two_step = a @ (a.T @ x @ w_e + b_e) @ w_v + b_v
        c = a @ a.T
        merged_b = a.sum(axis=1)[:, None] * (b_e @ w_v) + b_v
        exact = c @ x @ (w_e @ w_v) + merged_b
        assert np.max(np.abs(two_step - exact)) < 1e-9
        off = c @ x @ (w_e @ w_v + 1e-3) + merged_b
        assert np.max(np.abs(two_step - off)) > 1e-9
        off_bias = exact + 1e-3
        assert np.max(np.abs(two_step - off_bias)) > 1e-9

    def test_weight_tied_needs_the_zeroed_inactive_block(self):
        # Iterating plain convolution on B without re-zeroing the inactive
        # block lets sigma(b) leak across half-steps. The star adjacency has
        # a zero node-node block, so the node rows survive two plain steps
        # untouched; the edge rows are where the leak first lands, computed
        # from the stale sigma(b) node rows instead of the fresh node state.
        from hnhn.expansion import _gather_edge_sums, _gather_node_sums

        h = random_hypergraph(8, 5, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(h.n, 3))
        w = rng.normal(size=(3, 3))
        b = rng.normal(size=(1, 3))
        assert check_weight_tied(h, x, w, b)

        big = star_adjacency(h)
        state = np.zeros((h.n + h.m, 3))
        state[: h.n] = x
        plain = graph_convolution_step(big, graph_convolution_step(big, state, w, b), w, b)
        edge_half = np.maximum(_gather_edge_sums(h, x) @ w + b, 0.0)
        node_half = np.maximum(_gather_node_sums(h, edge_half) @ w + b, 0.0)
        assert np.max(np.abs(plain[: h.n] - node_half)) < 1e-9
        second_edge_half = np.maximum(_gather_edge_sums(h, node_half) @ w + b, 0.0)
        assert np.max(np.abs(plain[h.n :] - second_edge_half)) > 1e-6

    def test_checks_hold_on_many_random_instances(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            n = 2 + seed % 18
            h = random_hypergraph(
                n, 1 + seed % 19, seed=seed + 50, max_size=min(4, n)
            )
            d = 1 + seed % 8
            x = rng.normal(size=(h.n, d))
            w_e, w_v = rng.normal(size=(d, d)), rng.normal(size=(d, d))
            b_e, b_v = rng.normal(size=(1, d)), rng.normal(size=(1, d))
            assert check_clique_product(h)
            assert check_linear_collapse(h, x, w_e, w_v, b_e, b_v)
            assert check_weight_tied(h, x, w_e, b_e)


class TestSymmetricEigenvalues:
    def test_identity(self):
        assert np.allclose(symmetric_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_swap_matrix(self):
        eigs = symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(eigs, [-1.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    def test_star_spectrum_relations(self):
        for seed in range(5):
            h = random_hypergraph(8, 6, seed=seed + 10)
            b_eigs = symmetric_eigenvalues(star_adjacency(h))
            c_eigs = symmetric_eigenvalues(clique_adjacency(h))
            # Symmetric about zero.
            assert np.max(np.abs(b_eigs + b_eigs[::-1])) < 1e-7
            # Nonzero eigenvalues of C are exactly the squared nonzero
            # eigenvalues of B, as multisets.
            squared = np.sort(b_eigs[b_eigs > 1e-7] ** 2)
            nonzero_c = np.sort(c_eigs[np.abs(c_eigs) > 1e-7])
            assert len(squared) == len(nonzero_c)
            assert np.max(np.abs(squared - nonzero_c), initial=0.0) < 1e-7


class TestFano:
    def test_pair_edge_sets_differ_but_cliques_match(self):
        f, f2 = fano_pair()
        assert set(f.edge_to_nodes) != set(f2.edge_to_nodes)
        assert np.array_equal(clique_adjacency(f), clique_adjacency(f2))

    def test_pair_is_node_swap(self):
        f, f2 = fano_pair()
        swap = {2: 5, 5: 2}
        swapped = {
            tuple(sorted(swap.get(i, i) for i in edge)) for edge in f.edge_to_nodes
        }
        assert swapped == set(f2.edge_to_nodes)

    def test_every_pair_of_nodes_shares_exactly_one_edge(self):
        f, _ = fano_pair()
        c = clique_adjacency(f)
        off_diag = c[~np.eye(7, dtype=bool)]
        assert np.array_equal(off_diag, np.ones(42))

    def test_relabeling_count(self):
        assert count_fano_relabelings() == 30
