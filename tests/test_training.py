"""Training tests: Adam against a textbook scalar reference and the
allocating whole-array formula, the learning rate schedule, loop determinism,
the one-forward loop against the two-forward loop it replaced, folded-input
fits against raw-route fits, and (alpha, beta) cross-validation."""

import numpy as np
import pytest

from hnhn import autodiff, training
from hnhn.autodiff import Tape, Tensor, softmax_cross_entropy
from hnhn.hypergraph import normalization_tables
from hnhn.model import edge_logits, fold_input, forward, init_model, predict
from hnhn.rng import CounterRng
from hnhn.synthetic import identity_features, planted_two_communities, random_hypergraph
from hnhn.training import (
    DEFAULT_SWEEP_VALUES,
    AdamState,
    CvCell,
    RunMetrics,
    TrainConfig,
    _assign_folds,
    adam_step,
    axis_sweep_grid,
    cross_validate_alpha_beta,
    lr_at,
    summarize_accuracies,
    train_edge_classifier,
    train_node_classifier,
)


def _reference_adam(grads, lr, steps=None, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam on a scalar starting at 0."""
    w, m, v = 0.0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(w)
    return trajectory


def _allocating_adam_step(params, grads, state, lr):
    """The whole-array Adam step that adam_step replaced, one fresh array per
    intermediate."""
    state.t += 1
    correction1 = 1.0 - state.beta1**state.t
    correction2 = 1.0 - state.beta2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros(p.shape)
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / correction1
        v_hat = state.v[i] / correction2
        p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + state.eps)


class TestAdam:
    def test_matches_allocating_formula_bitwise(self):
        # Shapes that fill one block, split into row blocks with a partial
        # last block, and hold a row wider than a block.
        rng = np.random.default_rng(0)
        shapes = [(1, 5), (300, 70), (3, 20_000)]
        initial = [rng.standard_normal(shape) for shape in shapes]
        ours = [Tensor(v, requires_grad=True) for v in initial]
        theirs = [Tensor(v, requires_grad=True) for v in initial]
        ours_state = AdamState.for_params(ours)
        theirs_state = AdamState.for_params(theirs)
        for step in range(6):
            grads = [rng.standard_normal(shape) * 10.0**-step for shape in shapes]
            if step >= 3:
                # A parameter whose gradient stops, with nonzero moments.
                grads[1] = None
            lr = 0.04 * 0.51 ** (step // 2)
            before = [p.values for p in ours]
            adam_step(ours, grads, ours_state, lr)
            _allocating_adam_step(theirs, grads, theirs_state, lr)
            assert all(p.values is b for p, b in zip(ours, before))
            for i in range(len(shapes)):
                assert np.array_equal(ours[i].values, theirs[i].values)
                assert np.array_equal(ours_state.m[i], theirs_state.m[i])
                assert np.array_equal(ours_state.v[i], theirs_state.v[i])
        assert ours_state.t == theirs_state.t == 6

    def test_step_leaves_the_source_array_and_its_other_tensors(self):
        # A parameter copies the array it is built from, so stepping one in
        # place moves neither that array nor a second parameter built from it.
        source = np.array([[1.0, -2.0], [0.5, 3.0]])
        kept = source.copy()
        stepped = Tensor(source, requires_grad=True)
        other = Tensor(source, requires_grad=True)
        adam_step([stepped], [np.ones((2, 2))], AdamState.for_params([stepped]), 0.1)
        assert not np.array_equal(stepped.values, kept)
        assert np.array_equal(source, kept)
        assert np.array_equal(other.values, kept)

    def test_mismatched_gradient_shape_raises(self):
        p = Tensor([[1.0, 2.0]], requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step([p], [np.zeros((1, 1))], state, lr=0.1)

    def test_matches_scalar_reference(self):
        grads = [0.5, -1.25, 2.0, 0.1, -0.6, 3.0]
        p = Tensor([[0.0]], requires_grad=True)
        state = AdamState.for_params([p])
        for g, expected in zip(grads, _reference_adam(grads, lr=0.04)):
            adam_step([p], [np.array([[g]])], state, lr=0.04)
            assert abs(p.values[0, 0] - expected) < 1e-12

    def test_first_step_is_signed_learning_rate(self):
        # m_hat = g and v_hat = g*g at t=1, so the move is lr * sign(g).
        p = Tensor([[1.0, 1.0]], requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.array([[4.0, -0.5]])], state, lr=0.1)
        assert abs(p.values[0, 0] - 0.9) < 1e-8
        assert abs(p.values[0, 1] - 1.1) < 1e-8

    def test_zero_gradient_leaves_parameter_fixed(self):
        p = Tensor([[2.0]], requires_grad=True)
        state = AdamState.for_params([p])
        for _ in range(3):
            adam_step([p], [np.zeros((1, 1))], state, lr=0.1)
        assert p.values[0, 0] == 2.0

    def test_none_gradient_leaves_parameter_fixed(self):
        # Parameters outside the loss path report no gradient at all.
        p = Tensor([[2.0]], requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [None], state, lr=0.1)
        assert p.values[0, 0] == 2.0

    def test_descends_a_quadratic_bowl(self):
        p = Tensor([[3.0, -2.0]], requires_grad=True)
        state = AdamState.for_params([p])
        for _ in range(400):
            adam_step([p], [2.0 * p.values], state, lr=0.05)
        assert np.max(np.abs(p.values)) < 1e-3

    def test_non_finite_gradient_raises(self):
        p = Tensor([[1.0]], requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(FloatingPointError):
            adam_step([p], [np.array([[np.nan]])], state, lr=0.1)

    def test_parallel_list_mismatch_raises(self):
        p = Tensor([[1.0]], requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step([p], [np.zeros((1, 1)), np.zeros((1, 1))], state, lr=0.1)


class TestSchedule:
    def test_decay_steps_every_hundred_epochs(self):
        config = TrainConfig()
        assert abs(lr_at(0, config) - 0.04) < 1e-15
        assert abs(lr_at(99, config) - 0.04) < 1e-15
        assert abs(lr_at(100, config) - 0.0204) < 1e-15
        assert abs(lr_at(199, config) - 0.0204) < 1e-15
        assert abs(lr_at(200, config) - 0.010404) < 1e-15

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.2)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)

    def test_with_overrides_returns_new_config(self):
        base = TrainConfig()
        tweaked = base.with_overrides(alpha=0.5, epochs=7)
        assert tweaked.alpha == 0.5 and tweaked.epochs == 7
        assert base.alpha == 0.0 and base.epochs == 200


def _small_task(seed: int = 0):
    h, labels = planted_two_communities(n=24, m=8, seed=seed, min_size=3, max_size=5)
    mask = np.zeros(h.n, dtype=bool)
    mask[np.flatnonzero(labels == 0)[:6]] = True
    mask[np.flatnonzero(labels == 1)[:6]] = True
    return h, identity_features(h.n), labels, mask


def _small_edge_task():
    h, labels = planted_two_communities(n=24, m=12, seed=1, min_size=3, max_size=5)
    edge_labels = np.array(
        [int(labels[members[0]]) for members in h.edge_to_nodes], dtype=np.int64
    )
    mask = np.zeros(h.m, dtype=bool)
    mask[np.flatnonzero(edge_labels == 0)[:3]] = True
    mask[np.flatnonzero(edge_labels == 1)[:3]] = True
    return h, identity_features(h.n), edge_labels, mask


class TestNodeTrainingLoop:
    CONFIG = TrainConfig(epochs=12, hidden_dim=16, dropout=0.0, seed=0)

    def test_loss_decreases(self):
        h, features, labels, mask = _small_task()
        _, metrics = train_node_classifier(h, features, labels, mask, self.CONFIG)
        assert len(metrics.losses) == 12
        assert metrics.losses[-1] < metrics.losses[0]
        assert np.isfinite(metrics.losses).all()

    def test_metrics_columns_align(self):
        h, features, labels, mask = _small_task()
        _, metrics = train_node_classifier(h, features, labels, mask, self.CONFIG)
        assert metrics.epochs == list(range(12))
        assert len(metrics.train_accs) == len(metrics.test_accs) == 12
        assert all(0.0 <= a <= 1.0 for a in metrics.train_accs + metrics.test_accs)
        assert metrics.final_test_acc == metrics.test_accs[-1]
        assert metrics.seconds > 0.0

    def test_bit_reproducible_for_fixed_config(self):
        h, features, labels, mask = _small_task()
        config = TrainConfig(epochs=6, hidden_dim=16, dropout=0.3, seed=3)
        _, a = train_node_classifier(h, features, labels, mask, config)
        _, b = train_node_classifier(h, features, labels, mask, config)
        assert a.losses == b.losses
        assert a.train_accs == b.train_accs
        assert a.test_accs == b.test_accs

    def test_seed_changes_the_run(self):
        h, features, labels, mask = _small_task()
        _, a = train_node_classifier(
            h, features, labels, mask, self.CONFIG.with_overrides(seed=1)
        )
        _, b = train_node_classifier(
            h, features, labels, mask, self.CONFIG.with_overrides(seed=2)
        )
        assert a.losses != b.losses

    def test_learns_the_planted_communities(self):
        h, features, labels, mask = _small_task()
        _, metrics = train_node_classifier(
            h, features, labels, mask, TrainConfig(epochs=40, hidden_dim=32, dropout=0.0, seed=0)
        )
        assert metrics.final_test_acc >= 0.75

    def test_mask_validation(self):
        h, features, labels, mask = _small_task()
        with pytest.raises(ValueError):
            train_node_classifier(h, features, labels, mask.astype(int), self.CONFIG)
        with pytest.raises(ValueError):
            train_node_classifier(
                h, features, labels, np.zeros(h.n, dtype=bool), self.CONFIG
            )

    def test_unlabeled_masked_row_rejected(self):
        h, features, labels, mask = _small_task()
        broken = labels.copy()
        broken[np.flatnonzero(mask)[0]] = -1
        with pytest.raises(ValueError):
            train_node_classifier(h, features, broken, mask, self.CONFIG)

    def test_mask_covering_every_label_rejected(self):
        # Nothing would be left to score the test column.
        h, features, labels, _ = _small_task()
        with pytest.raises(ValueError):
            train_node_classifier(
                h, features, labels, np.ones(h.n, dtype=bool), self.CONFIG
            )

    def test_empty_metrics_property_raises(self):
        with pytest.raises(ValueError):
            RunMetrics().final_test_acc


def _two_forward_loop(h, features, labels, mask, config, on_edges, *, fold=True):
    """The loop the one-forward loop replaced: each epoch a taped training
    forward at the current parameters, then, after the step, an eval
    forward that scores the epoch. Every forward takes the folded input a
    fit builds, or with fold=False the raw feature Tensor."""
    train_rows = np.flatnonzero(mask)
    eval_rows = np.flatnonzero(~mask & (labels >= 0))
    tables = normalization_tables(h, config.alpha, config.beta)
    x = fold_input(h, tables, features) if fold else Tensor(features)
    model = init_model(
        features.shape[1],
        config.hidden_dim,
        int(labels.max()) + 1,
        n_layers=config.n_layers,
        dropout_rate=config.dropout,
        alpha=config.alpha,
        beta=config.beta,
        seed=config.seed,
    )
    params = model.parameters()
    state = AdamState.for_params(params)
    dropout_streams = CounterRng(config.seed)
    metrics = RunMetrics()
    for epoch in range(config.epochs):
        tape = Tape()
        out = forward(
            model, h, tables, x, training=True, rng=dropout_streams.spawn(epoch), tape=tape
        )
        scored = edge_logits(model, out.edge_state, tape) if on_edges else out.node_logits
        loss = softmax_cross_entropy(scored, labels, train_rows, tape)
        model.zero_grads()
        tape.backward(loss)
        _allocating_adam_step(params, [p.grad for p in params], state, lr_at(epoch, config))
        eval_out = forward(model, h, tables, x, training=False)
        eval_scored = (
            edge_logits(model, eval_out.edge_state) if on_edges else eval_out.node_logits
        )
        predicted = predict(eval_scored)
        metrics.losses.append(float(loss.values[0, 0]))
        metrics.train_accs.append(float(np.mean(predicted[train_rows] == labels[train_rows])))
        metrics.test_accs.append(float(np.mean(predicted[eval_rows] == labels[eval_rows])))
    return model, metrics


class TestOneForwardPerEpoch:
    EPOCHS = 5

    # (edge task, n_layers, dropout, forwards the fit makes): a forward that
    # draws no dropout mask scores the step before it, so only the two-layer
    # fit with dropout keeps a separate eval forward per epoch.
    CASES = {
        "one-layer node": (False, 1, 0.3, EPOCHS + 1),
        "two-layer node, dropout 0": (False, 2, 0.0, EPOCHS + 1),
        "two-layer node, dropout 0.3": (False, 2, 0.3, 2 * EPOCHS),
        "one-layer edge": (True, 1, 0.3, EPOCHS + 1),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_two_forward_loop_bitwise(self, case, monkeypatch):
        on_edges, n_layers, dropout, expected_forwards = case
        h, features, labels, mask = _small_edge_task() if on_edges else _small_task()
        # Width 130 splits each hidden-by-hidden weight into two Adam blocks.
        config = TrainConfig(
            epochs=self.EPOCHS,
            hidden_dim=130,
            n_layers=n_layers,
            dropout=dropout,
            alpha=0.25,
            beta=-0.5,
            seed=4,
        )
        reference, expected = _two_forward_loop(h, features, labels, mask, config, on_edges)

        calls = []

        def counted_forward(*args, **kwargs):
            calls.append(kwargs.get("training", False))
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", counted_forward)
        fit = train_edge_classifier if on_edges else train_node_classifier
        model, metrics = fit(h, features, labels, mask, config)

        assert len(calls) == expected_forwards
        for ours, theirs in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(ours.values, theirs.values)
        assert np.array_equal(metrics.losses, expected.losses)
        assert np.array_equal(metrics.train_accs, expected.train_accs)
        assert np.array_equal(metrics.test_accs, expected.test_accs)


class TestFoldedInputFit:
    EPOCHS = 8
    # Sums over the incidences in another order: parameters agree to this
    # absolute tolerance, and every per-epoch accuracy is equal.
    TOL = 1e-12

    # (edge task, n_layers, dropout)
    CASES = {
        "one-layer node": (False, 1, 0.0),
        "two-layer node, dropout 0.3": (False, 2, 0.3),
        "one-layer edge": (True, 1, 0.0),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_raw_route_fit(self, case):
        on_edges, n_layers, dropout = case
        h, features, labels, mask = _small_edge_task() if on_edges else _small_task()
        config = TrainConfig(
            epochs=self.EPOCHS,
            hidden_dim=24,
            n_layers=n_layers,
            dropout=dropout,
            alpha=0.25,
            beta=-0.5,
            seed=2,
        )
        reference, expected = _two_forward_loop(
            h, features, labels, mask, config, on_edges, fold=False
        )
        fit = train_edge_classifier if on_edges else train_node_classifier
        model, metrics = fit(h, features, labels, mask, config)

        for ours, theirs in zip(model.parameters(), reference.parameters()):
            assert np.allclose(ours.values, theirs.values, rtol=0.0, atol=self.TOL)
        assert np.allclose(metrics.losses, expected.losses, rtol=0.0, atol=self.TOL)
        assert metrics.train_accs == expected.train_accs
        assert metrics.test_accs == expected.test_accs


def _wide_task(on_edges: bool):
    """Random graph, features and three-class labels, 10% of rows labelled
    for training, at sizes whose hidden gradients (600 x 128) lie above the
    floor of the row-restricted backward."""
    h = random_hypergraph(600, 600, seed=5, min_size=2, max_size=5)
    rng = CounterRng(6)
    features = rng.uniform(0.0, 1.0, (h.n, 30))
    labels = rng.integers(3, h.m if on_edges else h.n).astype(np.int64)
    mask = np.zeros(len(labels), dtype=bool)
    mask[::10] = True
    return h, features, labels, mask


class TestRestrictedBackwardFit:
    EPOCHS = 6
    # The weight and bias gradients sum the reached rows only, grouped
    # differently: parameters and losses agree to this absolute tolerance,
    # and every per-epoch accuracy is equal.
    TOL = 1e-12

    # (edge task, n_layers, dropout)
    CASES = {
        "one-layer node": (False, 1, 0.0),
        "one-layer edge": (True, 1, 0.0),
        "two-layer node, dropout 0.3": (False, 2, 0.3),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_dense_backward_fit(self, case, monkeypatch, restricted_steps):
        on_edges, n_layers, dropout = case
        h, features, labels, mask = _wide_task(on_edges)
        config = TrainConfig(
            epochs=self.EPOCHS,
            hidden_dim=128,
            n_layers=n_layers,
            dropout=dropout,
            alpha=0.25,
            beta=-0.5,
            seed=3,
        )
        fit = train_edge_classifier if on_edges else train_node_classifier
        model, metrics = fit(h, features, labels, mask, config)
        assert any(restricted_steps)
        restricted_steps.clear()
        monkeypatch.setattr(autodiff, "ROW_RESTRICT_FLOOR", np.iinfo(np.int64).max)
        dense, expected = fit(h, features, labels, mask, config)
        assert not any(restricted_steps)

        for ours, theirs in zip(model.parameters(), dense.parameters()):
            assert np.allclose(ours.values, theirs.values, rtol=0.0, atol=self.TOL)
        assert np.allclose(metrics.losses, expected.losses, rtol=0.0, atol=self.TOL)
        assert metrics.train_accs == expected.train_accs
        assert metrics.test_accs == expected.test_accs


class TestFitsReleaseGradients:
    @pytest.mark.parametrize("on_edges", [False, True])
    def test_no_parameter_keeps_a_gradient(self, on_edges):
        h, features, labels, mask = _small_edge_task() if on_edges else _small_task()
        fit = train_edge_classifier if on_edges else train_node_classifier
        model, _ = fit(h, features, labels, mask, TrainConfig(epochs=3, hidden_dim=8, seed=0))
        assert all(p.grad is None for p in model.parameters())


class TestEdgeTrainingLoop:
    def test_edge_loop_runs_and_improves(self):
        h, features, edge_labels, mask = _small_edge_task()
        config = TrainConfig(epochs=25, hidden_dim=16, dropout=0.0, seed=2)
        _, metrics = train_edge_classifier(h, features, edge_labels, mask, config)
        assert len(metrics.losses) == 25
        assert metrics.losses[-1] < metrics.losses[0]
        assert metrics.final_test_acc >= 0.5


class TestSummaries:
    def test_single_run_has_zero_spread(self):
        assert summarize_accuracies([0.5]) == (0.5, 0.0)

    def test_mean_and_sample_std(self):
        mean, std = summarize_accuracies([0.4, 0.6])
        assert abs(mean - 0.5) < 1e-15
        assert abs(std - np.std([0.4, 0.6], ddof=1)) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_accuracies([])


class TestFoldAssignment:
    def test_balanced_and_stratified(self):
        labels = np.repeat([0, 1], 50)
        rows = np.arange(100)
        fold_of = _assign_folds(labels, rows, folds=5, seed=0)
        assert np.array_equal(np.bincount(fold_of), [20] * 5)
        for k in range(5):
            per_class = np.bincount(labels[rows][fold_of == k], minlength=2)
            assert np.array_equal(per_class, [10, 10])

    def test_deterministic_per_seed(self):
        labels = np.repeat([0, 1, 2], 12)
        rows = np.arange(36)
        a = _assign_folds(labels, rows, folds=3, seed=5)
        b = _assign_folds(labels, rows, folds=3, seed=5)
        assert np.array_equal(a, b)


class TestCrossValidation:
    CONFIG = TrainConfig(epochs=2, hidden_dim=8, dropout=0.0, seed=0)

    def test_singleton_grid_returns_that_cell(self):
        h, features, labels, mask = _small_task()
        best, cells = cross_validate_alpha_beta(
            h, features, labels, mask, [(0.25, -0.5)], folds=2, config=self.CONFIG
        )
        assert best == (0.25, -0.5)
        assert len(cells) == 1
        assert cells[0].alpha == 0.25 and cells[0].beta == -0.5
        assert len(cells[0].fold_accs) == 2

    def test_exact_ties_prefer_origin_then_lexicographic(self):
        # Constant feature rows make the forward pass independent of the
        # normalization exponents (a weighted mean of identical rows is that
        # row), so every grid cell scores identically and only the tie rule
        # decides.
        h, _, labels, mask = _small_task()
        features = np.ones((h.n, 3))
        grid = [(1.0, 1.0), (0.5, -0.5), (-0.5, -0.5), (0.0, 1.0)]
        best, cells = cross_validate_alpha_beta(
            h, features, labels, mask, grid, folds=2, config=self.CONFIG
        )
        means = {(c.alpha, c.beta): c.mean for c in cells}
        assert len(set(means.values())) == 1
        assert best == (-0.5, -0.5)

    def test_closest_to_origin_wins_ties(self):
        h, _, labels, mask = _small_task()
        features = np.ones((h.n, 3))
        grid = [(1.0, 0.0), (0.0, 0.25), (0.75, 0.75)]
        best, _ = cross_validate_alpha_beta(
            h, features, labels, mask, grid, folds=2, config=self.CONFIG
        )
        assert best == (0.0, 0.25)

    def test_cell_statistics(self):
        cell = CvCell(alpha=0.0, beta=0.0, fold_accs=[0.4, 0.6])
        assert abs(cell.mean - 0.5) < 1e-15
        assert abs(cell.std - np.std([0.4, 0.6], ddof=1)) < 1e-15
        single = CvCell(alpha=0.0, beta=0.0, fold_accs=[0.7])
        assert single.std == 0.0

    def test_validation_errors(self):
        h, features, labels, mask = _small_task()
        with pytest.raises(ValueError):
            cross_validate_alpha_beta(
                h, features, labels, mask, [(0.0, 0.0)], folds=1, config=self.CONFIG
            )
        with pytest.raises(ValueError):
            cross_validate_alpha_beta(
                h, features, labels, mask, [], folds=2, config=self.CONFIG
            )

    def test_class_too_small_for_folds_raises(self):
        # A single labeled row of class 1 cannot reach both folds, even
        # after the one reseeded retry.
        h = random_hypergraph(10, 6, seed=6, max_size=4)
        labels = np.zeros(10, dtype=np.int64)
        labels[3] = 1
        mask = np.ones(10, dtype=bool)
        mask[8:] = False
        with pytest.raises(ValueError):
            cross_validate_alpha_beta(
                h,
                identity_features(10),
                labels,
                mask,
                [(0.0, 0.0)],
                folds=2,
                config=self.CONFIG,
            )


class TestSweepGrid:
    def test_alpha_axis(self):
        assert axis_sweep_grid([0.0, 0.5], "alpha", fixed=-1.0) == [
            (0.0, -1.0),
            (0.5, -1.0),
        ]

    def test_beta_axis(self):
        assert axis_sweep_grid([0.0, 0.5], "beta", fixed=0.25) == [
            (0.25, 0.0),
            (0.25, 0.5),
        ]

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            axis_sweep_grid([0.0], "gamma")

    def test_default_values_span_minus_one_to_one(self):
        assert DEFAULT_SWEEP_VALUES == [
            -1.0,
            -0.75,
            -0.5,
            -0.25,
            0.0,
            0.25,
            0.5,
            0.75,
            1.0,
        ]
