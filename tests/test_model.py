"""Model-level tests: hand-computed fixtures, equivariance, reference
implementations, the folded input against the raw route, checkpoint round
trips, and the Fano separation witness."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import hnhn
from hnhn.autodiff import (
    Tape,
    Tensor,
    add,
    add_bias,
    dropout,
    matmul,
    relu,
    segment_mean_weighted,
    softmax_cross_entropy,
    tensor_sum,
)
from hnhn.expansion import (
    fano_pair,
    graph_convolution_step,
    star_adjacency,
)
from hnhn.hypergraph import (
    build_hypergraph,
    normalization_tables,
    relabel,
    unit_tables,
)
from hnhn.model import (
    HnhnModel,
    distinguishability_test,
    edge_logits,
    fold_input,
    forward,
    init_model,
    load_model,
    predict,
    save_model,
)
from hnhn.rng import CounterRng
from hnhn.synthetic import random_hypergraph
from hnhn.training import TrainConfig, train_node_classifier


def _set(param, values) -> None:
    arr = np.asarray(values, dtype=np.float64).reshape(param.shape)
    param.values = arr


def _scalar_identity_model(n_layers: int = 1) -> HnhnModel:
    """1-dim model with identity weights and zero biases everywhere."""
    model = init_model(
        1, 1, n_classes=1, n_layers=n_layers, dropout_rate=0.0, seed=0
    )
    _set(model.input_weight, [[1.0]])
    _set(model.input_bias, [[0.0]])
    for layer in range(n_layers):
        _set(model.edge_weights[layer], [[1.0]])
        _set(model.edge_biases[layer], [[0.0]])
        _set(model.node_weights[layer], [[1.0]])
        _set(model.node_biases[layer], [[0.0]])
    _set(model.node_head_weight, [[1.0]])
    _set(model.node_head_bias, [[0.0]])
    _set(model.edge_head_weight, [[1.0]])
    _set(model.edge_head_bias, [[0.0]])
    return model


def _mean_reference(model: HnhnModel, h, features: np.ndarray):
    """Plain-loop mean-aggregation forward; the alpha=beta=0 oracle."""
    x = features @ model.input_weight.values + model.input_bias.values
    edge = np.zeros((h.m, model.hidden_dim))
    for layer in range(model.n_layers):
        gathered = np.zeros((h.m, x.shape[1]))
        for j, members in enumerate(h.edge_to_nodes):
            if members:
                gathered[j] = x[list(members)].mean(axis=0)
        edge = np.maximum(
            gathered @ model.edge_weights[layer].values
            + model.edge_biases[layer].values,
            0.0,
        )
        scattered = np.zeros((h.n, edge.shape[1]))
        for i, incident in enumerate(h.node_to_edges):
            if incident:
                scattered[i] = edge[list(incident)].mean(axis=0)
        x = np.maximum(
            scattered @ model.node_weights[layer].values
            + model.node_biases[layer].values,
            0.0,
        )
    logits = x @ model.node_head_weight.values + model.node_head_bias.values
    return logits, edge, x


class TestHandComputedFixtures:
    def test_single_edge_positive_features(self):
        # One edge {0,1}, identity weights, zero biases, plain means:
        # edge gets relu(mean(1, 3)) = 2, both nodes get relu(2) = 2.
        h = build_hypergraph([[0, 1]], 2)
        model = _scalar_identity_model()
        tables = normalization_tables(h, 0.0, 0.0)
        out = forward(model, h, tables, Tensor([[1.0], [3.0]]))
        assert np.max(np.abs(out.edge_state.values - [[2.0]])) < 1e-12
        assert np.max(np.abs(out.node_state.values - [[2.0], [2.0]])) < 1e-12

    def test_single_edge_negative_features_clip_to_zero(self):
        h = build_hypergraph([[0, 1]], 2)
        model = _scalar_identity_model()
        tables = normalization_tables(h, 0.0, 0.0)
        out = forward(model, h, tables, Tensor([[-1.0], [-3.0]]))
        assert np.array_equal(out.edge_state.values, [[0.0]])
        assert np.array_equal(out.node_state.values, [[0.0], [0.0]])

    def test_degree_zero_node_gets_zero_message(self):
        # Node 2 joins no edge; its state is relu(0 * W + b).
        h = build_hypergraph([[0, 1]], 3)
        model = _scalar_identity_model()
        _set(model.node_biases[0], [[-1.0]])
        tables = normalization_tables(h, 0.0, 0.0)
        out = forward(model, h, tables, Tensor([[1.0], [3.0], [9.0]]))
        assert out.node_state.values[2, 0] == 0.0
        assert np.max(np.abs(out.node_state.values[:2] - 1.0)) < 1e-12

    def test_feature_shape_mismatch_raises(self):
        h = build_hypergraph([[0, 1]], 2)
        model = _scalar_identity_model()
        tables = normalization_tables(h, 0.0, 0.0)
        with pytest.raises(ValueError):
            forward(model, h, tables, Tensor([[1.0], [2.0], [3.0]]))

    def test_tables_from_other_hypergraph_raise(self):
        h = build_hypergraph([[0, 1]], 2)
        other = build_hypergraph([[0, 1], [1, 2]], 3)
        model = _scalar_identity_model()
        with pytest.raises(ValueError):
            forward(model, h, normalization_tables(other, 0.0, 0.0), Tensor([[1.0], [2.0]]))


class TestPredict:
    def test_argmax(self):
        assert predict(np.array([[0.1, 0.9]]))[0] == 1

    def test_tie_goes_to_lowest_class(self):
        assert predict(np.array([[0.5, 0.5]]))[0] == 0
        assert predict(np.array([[0.0, 0.0, 0.0]]))[0] == 0

    def test_agrees_with_brute_force_scan(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(40, 6))
        got = predict(logits)
        for row in range(40):
            best, best_val = 0, logits[row, 0]
            for c in range(1, 6):
                if logits[row, c] > best_val:
                    best, best_val = c, logits[row, c]
            assert got[row] == best
        assert got.dtype == np.int64

    def test_accepts_tensor_input(self):
        assert predict(Tensor([[3.0, 1.0]]))[0] == 0


class TestEdgeHead:
    def test_separate_head_applies_to_edge_state(self):
        model = init_model(2, 3, n_classes=2, n_edge_classes=4, seed=1)
        state = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        logits = edge_logits(model, state)
        expected = state.values @ model.edge_head_weight.values + model.edge_head_bias.values
        assert logits.shape == (5, 4)
        assert np.max(np.abs(logits.values - expected)) < 1e-12

    def test_edge_prediction_tie_rule(self):
        model = init_model(1, 1, n_classes=2, seed=0)
        _set(model.edge_head_weight, [[0.0, 0.0]])
        _set(model.edge_head_bias, [[0.5, 0.5]])
        logits = edge_logits(model, Tensor([[1.0]]))
        assert predict(logits)[0] == 0


class TestReferenceAgreement:
    def test_zero_exponents_match_mean_aggregation(self):
        h = random_hypergraph(12, 7, seed=2, max_size=5)
        model = init_model(4, 6, n_classes=3, n_layers=2, dropout_rate=0.0, seed=3)
        features = np.random.default_rng(4).normal(size=(12, 4))
        tables = normalization_tables(h, 0.0, 0.0)
        out = forward(model, h, tables, Tensor(features))
        logits, edge, node = _mean_reference(model, h, features)
        assert np.max(np.abs(out.node_logits.values - logits)) < 1e-12
        assert np.max(np.abs(out.edge_state.values - edge)) < 1e-12
        assert np.max(np.abs(out.node_state.values - node)) < 1e-12

    def test_weight_tied_unit_scaling_matches_star_convolution(self):
        # W_E = W_V, b_E = b_V, unit scaling: each layer is two alternating
        # star-expansion convolution steps on the zero-padded state with the
        # inactive block re-zeroed between half-steps.
        h = random_hypergraph(8, 5, seed=8, max_size=4)
        model = init_model(3, 4, n_classes=2, n_layers=2, dropout_rate=0.0, seed=9)
        for layer in range(2):
            model.node_weights[layer].values = model.edge_weights[layer].values.copy()
            model.node_biases[layer].values = model.edge_biases[layer].values.copy()
        features = np.random.default_rng(10).normal(size=(8, 3))
        out = forward(model, h, unit_tables(h), Tensor(features))

        big = star_adjacency(h)
        state = np.zeros((h.n + h.m, 4))
        state[: h.n] = features @ model.input_weight.values + model.input_bias.values
        for layer in range(2):
            w = model.edge_weights[layer].values
            b = model.edge_biases[layer].values
            half = graph_convolution_step(big, state, w, b)
            half[: h.n] = 0.0
            state = graph_convolution_step(big, half, w, b)
            state[h.n :] = half[h.n :]
        assert np.max(np.abs(out.node_state.values - state[: h.n])) < 1e-9

    def test_training_flag_without_dropout_changes_nothing(self):
        h = random_hypergraph(6, 4, seed=11, max_size=3)
        model = init_model(2, 3, n_classes=2, n_layers=2, dropout_rate=0.0, seed=12)
        features = Tensor(np.random.default_rng(13).normal(size=(6, 2)))
        tables = normalization_tables(h, 0.25, -0.5)
        still = forward(model, h, tables, features)
        trained = forward(model, h, tables, features, training=True, rng=CounterRng(0))
        assert np.array_equal(still.node_logits.values, trained.node_logits.values)

    def test_training_dropout_perturbs_and_needs_rng(self):
        h = random_hypergraph(6, 4, seed=14, max_size=3)
        model = init_model(2, 8, n_classes=2, n_layers=2, dropout_rate=0.5, seed=15)
        features = Tensor(np.random.default_rng(16).normal(size=(6, 2)))
        tables = normalization_tables(h, 0.0, 0.0)
        with pytest.raises(ValueError):
            forward(model, h, tables, features, training=True)
        eval_out = forward(model, h, tables, features)
        train_out = forward(model, h, tables, features, training=True, rng=CounterRng(1))
        assert not np.array_equal(eval_out.node_logits.values, train_out.node_logits.values)


def _unfused_forward(model, h, tables, features, rng, tape):
    """model.forward's raw route with dropout, written with separate
    matmul, add_bias and relu ops: the node logits."""
    into_edges, into_nodes = h.segment_indices
    x = add_bias(matmul(features, model.input_weight, tape), model.input_bias, tape)
    for layer in range(model.n_layers):
        gathered = segment_mean_weighted(
            x, into_edges, tables.node_scale_beta, tables.edge_divisor_beta, tape
        )
        edge = matmul(gathered, model.edge_weights[layer], tape)
        edge = relu(add_bias(edge, model.edge_biases[layer], tape), tape)
        scattered = segment_mean_weighted(
            edge, into_nodes, tables.edge_scale_alpha, tables.node_divisor_alpha, tape
        )
        x = matmul(scattered, model.node_weights[layer], tape)
        x = relu(add_bias(x, model.node_biases[layer], tape), tape)
        if layer < model.n_layers - 1:
            x = dropout(x, model.dropout_rate, training=True, rng=rng, tape=tape)
    return add_bias(matmul(x, model.node_head_weight, tape), model.node_head_bias, tape)


class TestFusedLayers:
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, -0.5)])
    def test_dropout_forward_and_backward_match_unfused_ops(self, alpha, beta):
        h = random_hypergraph(40, 20, seed=41, max_size=5)
        model = init_model(
            6, 8, n_classes=3, n_layers=2, dropout_rate=0.3, alpha=alpha, beta=beta, seed=42
        )
        features = Tensor(np.random.default_rng(43).normal(size=(h.n, 6)))
        labels = np.arange(h.n) % 3
        rows = np.arange(0, h.n, 2)
        tables = normalization_tables(h, alpha, beta)
        results = []
        for fused in (True, False):
            model.zero_grads()
            tape = Tape()
            if fused:
                logits = forward(
                    model, h, tables, features, training=True, rng=CounterRng(44), tape=tape
                ).node_logits
            else:
                logits = _unfused_forward(model, h, tables, features, CounterRng(44), tape)
            tape.backward(softmax_cross_entropy(logits, labels, rows, tape))
            results.append([logits.values] + [p.grad for p in model.parameters()])
        ours, theirs = results
        assert all(p.grad is not None for p in model.parameters()[:-2])
        for mine, ref in zip(ours[:-2], theirs[:-2]):
            assert mine.tobytes() == ref.tobytes()


def _fold_fixture():
    """A graph with a degree-0 node (8) and an all-zero feature row (3).

    At beta = -1100 every degree >= 2 underflows to scale 0, so each edge
    without node 3 (the one node of degree 1) is left uncovered.
    """
    edges = [[0, 1, 2], [1, 2], [2, 3, 4], [4, 5, 6], [5, 6, 7], [0, 7]]
    h = build_hypergraph(edges, n=9)
    rng = np.random.default_rng(5)
    features = rng.normal(size=(h.n, 6)) * (rng.random((h.n, 6)) < 0.5)
    features[3] = 0.0
    return h, features


def _outputs_and_grads(model, h, tables, node_input):
    """Node logits, edge states and every parameter gradient of one forward."""
    model.zero_grads()
    tape = Tape()
    out = forward(model, h, tables, node_input, tape=tape)
    loss = add(
        tensor_sum(out.node_logits, tape),
        tensor_sum(edge_logits(model, out.edge_state, tape), tape),
        tape,
    )
    tape.backward(loss)
    grads = [np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in model.parameters()]
    return out.node_logits.values, out.edge_state.values, grads


class TestFoldedInput:
    # The folded route sums over the incidences in another order.
    TOL = 1e-12
    EXPONENTS = [(0.0, 0.0), (0.5, -0.5), (-1.0, 1.0), (0.25, -1100.0)]

    def test_values_are_the_aggregated_features(self):
        h, features = _fold_fixture()
        for alpha, beta in self.EXPONENTS:
            tables = normalization_tables(h, alpha, beta)
            folded = fold_input(h, tables, features)
            gathered = segment_mean_weighted(
                Tensor(features),
                h.segment_indices[0],
                tables.node_scale_beta,
                tables.edge_divisor_beta,
            )
            assert np.array_equal(folded.values.values, gathered.values)
            assert not folded.values.requires_grad

    def test_extreme_beta_leaves_edges_uncovered(self):
        h, features = _fold_fixture()
        covered = fold_input(h, normalization_tables(h, 0.0, 0.5), features).coverage
        assert np.array_equal(covered, np.ones(6))
        coverage = fold_input(h, normalization_tables(h, 0.0, -1100.0), features).coverage
        assert np.array_equal(coverage, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_raw_route(self, n_layers):
        h, features = _fold_fixture()
        for alpha, beta in self.EXPONENTS:
            tables = normalization_tables(h, alpha, beta)
            model = init_model(
                6, 5, n_classes=3, n_layers=n_layers, alpha=alpha, beta=beta, seed=3
            )
            raw = _outputs_and_grads(model, h, tables, Tensor(features))
            folded = _outputs_and_grads(model, h, tables, fold_input(h, tables, features))
            for ours, theirs in zip(raw[:2] + tuple(raw[2]), folded[:2] + tuple(folded[2])):
                assert np.allclose(ours, theirs, rtol=0.0, atol=self.TOL)
            # Every parameter is reached, except the input weight at the
            # extreme beta, where the one covered edge sees only node 3's
            # zero row.
            reached = [bool(np.any(g != 0.0)) for g in folded[2]]
            assert reached == [beta > -1000.0] + [True] * (len(reached) - 1)

    def test_overflowing_scales_raise_as_on_the_raw_route(self):
        h, features = _fold_fixture()
        with np.errstate(over="ignore"):
            tables = normalization_tables(h, 0.0, 1100.0)
        with pytest.raises(FloatingPointError):
            forward(init_model(6, 5, n_classes=3, seed=0), h, tables, Tensor(features))
        with pytest.raises(FloatingPointError):
            fold_input(h, tables, features)

    def test_rejects_other_tables(self):
        h, features = _fold_fixture()
        model = init_model(6, 5, n_classes=3, seed=0)
        folded = fold_input(h, normalization_tables(h, 0.0, 0.0), features)
        with pytest.raises(ValueError, match="other normalization tables"):
            forward(model, h, normalization_tables(h, 0.0, 0.0), folded)

    def test_rejects_tables_whose_divisors_are_not_scale_sums(self):
        h, features = _fold_fixture()
        tables = normalization_tables(h, 0.0, 0.0)
        doubled = dataclasses.replace(tables, edge_divisor_beta=2.0 * tables.edge_divisor_beta)
        with pytest.raises(ValueError, match="sums of the scales"):
            fold_input(h, doubled, features)

    def test_fit_caches_no_bins_of_feature_width(self):
        h, labels = random_hypergraph(40, 16, seed=2, min_size=2, max_size=5), np.arange(40) % 2
        features = np.random.default_rng(0).random((h.n, 50))
        mask = np.arange(40) < 20
        config = TrainConfig(epochs=3, hidden_dim=8, n_layers=2, seed=0)
        train_node_classifier(h, features, labels, mask, config)
        indices = list(h.segment_indices)
        indices += [t for index in indices for t in index._transposes.values()]
        assert 8 in indices[0]._blocks
        assert all(50 not in index._blocks for index in indices)


class TestEquivariance:
    def test_node_and_edge_permutations_permute_outputs(self):
        h = random_hypergraph(10, 6, seed=17, max_size=4)
        model = init_model(5, 4, n_classes=3, n_layers=2, dropout_rate=0.0, seed=18)
        rng = np.random.default_rng(19)
        features = rng.normal(size=(10, 5))
        node_perm = rng.permutation(10)
        edge_perm = rng.permutation(6)

        relabeled = relabel(h, node_perm.tolist(), edge_perm.tolist())
        permuted = np.zeros_like(features)
        permuted[node_perm] = features

        out1 = forward(model, h, normalization_tables(h, 0.3, -0.4), Tensor(features))
        out2 = forward(
            model,
            relabeled,
            normalization_tables(relabeled, 0.3, -0.4),
            Tensor(permuted),
        )
        assert np.max(np.abs(out2.node_logits.values[node_perm] - out1.node_logits.values)) < 1e-12
        assert np.max(np.abs(out2.node_state.values[node_perm] - out1.node_state.values)) < 1e-12
        assert np.max(np.abs(out2.edge_state.values[edge_perm] - out1.edge_state.values)) < 1e-12


class TestDistinguishability:
    def test_clique_blind_and_model_separates(self):
        report = distinguishability_test(seed=0)
        assert report["clique_diff"] < 1e-12
        assert report["model_diff"] > 1e-6

    def test_holds_across_seeds(self):
        for seed in range(3):
            report = distinguishability_test(seed=seed)
            assert report["clique_diff"] < 1e-12
            assert report["model_diff"] > 1e-6

    def test_automorphism_relabeling_only_permutes_outputs(self):
        # The permutation fixing the edge set (a plane symmetry) must leave
        # the model's outputs unchanged up to that same row permutation.
        first, _ = fano_pair()
        perm = [3, 1, 5, 0, 4, 2, 6]
        relabeled = relabel(first, perm)
        assert {frozenset(e) for e in relabeled.edge_to_nodes} == {
            frozenset(e) for e in first.edge_to_nodes
        }
        model = init_model(7, 8, n_classes=2, n_layers=2, dropout_rate=0.0, seed=0)
        eye = np.eye(7)
        permuted = np.zeros((7, 7))
        permuted[perm] = eye
        out1 = forward(model, first, normalization_tables(first, 0.0, 0.0), Tensor(eye))
        out2 = forward(
            model, relabeled, normalization_tables(relabeled, 0.0, 0.0), Tensor(permuted)
        )
        assert (
            np.max(np.abs(out2.node_state.values[perm] - out1.node_state.values)) < 1e-12
        )


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        model = init_model(
            5,
            6,
            n_classes=3,
            n_edge_classes=4,
            n_layers=2,
            dropout_rate=0.25,
            alpha=-0.3,
            beta=0.7,
            seed=21,
        )
        model.input_weight.values = model.input_weight.values + 0.125
        save_model(model, str(tmp_path / "ckpt"))
        back = load_model(str(tmp_path / "ckpt"))
        assert back.feature_dim == 5 and back.hidden_dim == 6
        assert back.n_classes == 3 and back.n_edge_classes == 4
        assert back.n_layers == 2 and back.dropout_rate == 0.25
        assert back.alpha == -0.3 and back.beta == 0.7 and back.seed == 21
        for mine, theirs in zip(model.parameters(), back.parameters()):
            assert np.array_equal(mine.values, theirs.values)

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        h = random_hypergraph(8, 5, seed=22, max_size=4)
        model = init_model(3, 4, n_classes=2, dropout_rate=0.0, seed=23)
        features = Tensor(np.random.default_rng(24).normal(size=(8, 3)))
        tables = normalization_tables(h, 0.0, 0.0)
        before = forward(model, h, tables, features).node_logits.values
        save_model(model, str(tmp_path / "ckpt"))
        back = load_model(str(tmp_path / "ckpt"))
        after = forward(back, h, tables, features).node_logits.values
        assert np.array_equal(before, after)

    def test_shape_mismatch_is_detected(self, tmp_path):
        model = init_model(3, 4, n_classes=2, seed=25)
        save_model(model, str(tmp_path / "ckpt"))
        manifest = tmp_path / "ckpt" / "manifest.txt"
        text = manifest.read_text().replace("hidden_dim=4", "hidden_dim=5")
        manifest.write_text(text)
        with pytest.raises(ValueError):
            load_model(str(tmp_path / "ckpt"))

    def test_missing_manifest_key_raises(self, tmp_path):
        model = init_model(3, 4, n_classes=2, seed=26)
        save_model(model, str(tmp_path / "ckpt"))
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = [l for l in manifest.read_text().splitlines() if not l.startswith("alpha=")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_model(str(tmp_path / "ckpt"))


class TestInitModel:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            init_model(0, 4, n_classes=2)
        with pytest.raises(ValueError):
            init_model(3, 4, n_classes=2, n_layers=0)

    def test_seed_controls_parameters(self):
        a = init_model(3, 4, n_classes=2, seed=1)
        b = init_model(3, 4, n_classes=2, seed=1)
        c = init_model(3, 4, n_classes=2, seed=2)
        assert np.array_equal(a.input_weight.values, b.input_weight.values)
        assert not np.array_equal(a.input_weight.values, c.input_weight.values)

    def test_bounds_follow_fan_in(self):
        model = init_model(16, 4, n_classes=2, seed=3)
        bound = 1.0 / np.sqrt(16.0)
        assert np.max(np.abs(model.input_weight.values)) <= bound
        assert np.max(np.abs(model.input_bias.values)) <= bound

    def test_biases_are_not_zero(self):
        # Zero biases put degree-0 rows exactly on the ReLU kink.
        model = init_model(3, 4, n_classes=2, seed=4)
        assert np.any(model.node_biases[0].values != 0.0)

    def test_parameter_order_is_stable(self):
        model = init_model(3, 4, n_classes=2, n_layers=2, seed=5)
        params = model.parameters()
        assert params[0] is model.input_weight
        assert params[2] is model.edge_weights[0]
        assert params[-4] is model.node_head_weight
        assert params[-1] is model.edge_head_bias
        assert len(params) == 2 + 4 * 2 + 4


def test_forward_and_backward_never_import_scipy():
    # scipy.sparse alone adds about 22 MB of resident memory to a process;
    # the package must run on NumPy only.
    script = """
import sys
import numpy as np
from hnhn.autodiff import Tape, Tensor, softmax_cross_entropy
from hnhn.hypergraph import normalization_tables
from hnhn.model import forward, init_model
from hnhn.rng import CounterRng
from hnhn.synthetic import random_hypergraph
from hnhn.training import TrainConfig, train_node_classifier
h = random_hypergraph(20, 12, seed=1, min_size=2)
model = init_model(5, 4, 2, seed=1)
tables = normalization_tables(h, 0.5, 0.0)
tape = Tape()
out = forward(model, h, tables, Tensor(np.ones((20, 5))), training=True, rng=CounterRng(2), tape=tape)
loss = softmax_cross_entropy(out.node_logits, np.arange(20) % 2, np.arange(10), tape)
tape.backward(loss)
assert model.input_weight.grad is not None
config = TrainConfig(epochs=2, hidden_dim=4)
train_node_classifier(h, np.ones((20, 5)), np.arange(20) % 2, np.arange(20) < 10, config)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnhn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
