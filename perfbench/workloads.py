"""The benchmark's workloads and the user pipeline they drive.

A run sets up once (ingest the generated TSV corpus, read the data
directory back, split the labels) and then repeats identical rounds: the
workload's fits followed by forward-only inference with the trained node
classifier. Everything goes through the package's public functions, looked
up on their modules at call time so that a tracer can wrap them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hnhn import autodiff, data, hypergraph, model, training
from hnhn.rng import CounterRng

from corpora import CorpusSpec
import checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    vocab: int
    label_rate: float
    train: dict
    infer_passes: int
    edge_epochs: int = 0
    dropout_epochs: int = 0
    cv_alphas: tuple[float, ...] = ()
    cv_folds: int = 0

    @property
    def ops_per_round(self) -> int:
        """Calls a round makes: the sweep, each fit, each inference pass."""
        return (
            int(bool(self.cv_alphas))
            + 1
            + int(self.edge_epochs > 0)
            + int(self.dropout_epochs > 0)
            + self.infer_passes
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cocite_citeseer",
            why="CiteSeer-shaped co-citation at hidden width 400: wide rows make matmul, "
            "Adam and the aggregation dominate, ingest stays small",
            corpus=CorpusSpec(
                name="cocite_citeseer",
                mode="cocite",
                n_docs=2100,
                class_names=("AI", "Agents", "DB", "HCI", "IR", "ML"),
                class_weights=(0.08, 0.18, 0.21, 0.15, 0.20, 0.18),
                words_per_doc=(120, 260),
                topic_words_per_doc=(30, 70),
                topic_vocab=400,
                background_vocab=6000,
                background_zipf=1.0,
                own_topic=0.85,
                n_relations=1250,
                relation_size="cites",
                homophily=0.95,
            ),
            vocab=2000,
            label_rate=0.1,
            train=dict(epochs=18, lr0=0.005, hidden_dim=400, n_layers=1),
            edge_epochs=10,
            infer_passes=60,
        ),
        Workload(
            name="coauthor_dblp",
            why="DBLP-shaped co-authorship, about 14x the incidences with narrow rows: "
            "per-incidence gather/scatter and the Python loops of ingest dominate",
            corpus=CorpusSpec(
                name="coauthor_dblp",
                mode="coauthor",
                n_docs=32000,
                class_names=("AI", "CV", "DB", "DM", "IR", "ML"),
                class_weights=(0.2, 0.15, 0.2, 0.15, 0.1, 0.2),
                words_per_doc=(6, 14),
                topic_words_per_doc=(3, 5),
                topic_vocab=40,
                background_vocab=8000,
                background_zipf=0.8,
                own_topic=0.95,
                n_relations=22000,
                relation_size="authors",
                homophily=0.95,
            ),
            vocab=400,
            label_rate=0.1,
            train=dict(epochs=30, lr0=0.04, hidden_dim=24, n_layers=1),
            dropout_epochs=10,
            infer_passes=60,
        ),
        Workload(
            name="alpha_sweep",
            why="cross-validated alpha sweep of many short small fits on a planted "
            "corpus: fixed per-fit and per-op costs dominate",
            corpus=CorpusSpec(
                name="alpha_sweep",
                mode="coauthor",
                n_docs=1000,
                class_names=("c0", "c1", "c2", "c3"),
                class_weights=(0.25, 0.25, 0.25, 0.25),
                # Long enough texts that the one cold set-up a run times
                # (about half a second) is not lost in the machine's noise.
                words_per_doc=(150, 250),
                topic_words_per_doc=(30, 60),
                topic_vocab=40,
                background_vocab=3000,
                background_zipf=0.7,
                own_topic=0.9,
                n_relations=700,
                relation_size="planted",
                homophily=0.97,
            ),
            vocab=250,
            label_rate=0.4,
            train=dict(epochs=40, lr0=0.04, hidden_dim=16, n_layers=1),
            cv_alphas=(-1.0, -0.5, 0.0, 0.5, 1.0),
            cv_folds=3,
            infer_passes=300,
        ),
    )
}


@dataclass
class Loaded:
    """A data directory read back the way a user of the package would."""

    data_dir: Path
    h: object
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray
    edge_labels: np.ndarray | None = None
    edge_train_mask: np.ndarray | None = None


@dataclass
class FitCall:
    """One timed call that trains: its wall time and, per fit it ran, the
    gaps between consecutive Adam steps, each one whole epoch."""

    seconds: float
    epoch_gaps: list[list[float]]

    @property
    def rest_seconds(self) -> float:
        """The part outside the gaps: tables, init, the first epoch's forward
        and backward, the last epoch's step and scoring, held-out forwards."""
        return self.seconds - sum(sum(gaps) for gaps in self.epoch_gaps)


@contextmanager
def _adam_stamps(stamps: list):
    """While inside, note the time of every `training.adam_step` call and
    whether it is the first step of a fit."""
    original = training.adam_step

    def adam_step(params, grads, state, lr):
        stamps.append((time.perf_counter(), state.t == 0))
        return original(params, grads, state, lr)

    training.adam_step = adam_step
    try:
        yield
    finally:
        training.adam_step = original


def _timed_fit(calls: list, fit, *args):
    """Call `fit(*args)`, appending its FitCall to `calls`."""
    stamps = []
    with _adam_stamps(stamps):
        started = time.perf_counter()
        result = fit(*args)
        seconds = time.perf_counter() - started
    fits = []
    for stamp, opens_fit in stamps:
        if opens_fit:
            fits.append([])
        fits[-1].append(stamp)
    calls.append(FitCall(seconds, [np.diff(f).tolist() for f in fits]))
    return result


@dataclass
class Round:
    fit_calls: list[FitCall]
    epochs: int
    infer_seconds: list[float]
    alpha_beta: tuple[float, float]
    node_net: object
    node_fit: object
    predictions: np.ndarray
    edge_net: object = None
    edge_fit: object = None
    dropout_net: object = None


def _padded(labels: np.ndarray, length: int) -> np.ndarray:
    if len(labels) >= length:
        return labels
    return np.concatenate([labels, np.full(length - len(labels), -1, dtype=np.int64)])


def set_up(w: Workload, corpus_dir: Path, data_dir: Path, seed: int) -> Loaded:
    """Ingest the TSV corpus, read the data directory, split the labels."""
    data.run_ingest(
        corpus_dir / "docs.tsv",
        corpus_dir / "relations.tsv",
        corpus_dir / "labels.tsv",
        data_dir,
        mode=w.corpus.mode,
        feature_kind="tfidf",
        vocab_size=w.vocab,
    )
    h = hypergraph.read_hypergraph(data_dir / "hypergraph.txt")
    with open(data_dir / "features.bin", "rb") as fh:
        features = autodiff.read_tensor(fh)
    labels = _padded(data.load_labels(data_dir / "labels.csv"), h.n)
    train_mask, test_mask = data.split_labeled(labels, w.label_rate, seed=seed)
    loaded = Loaded(data_dir, h, features, labels, train_mask, test_mask)
    if w.edge_epochs:
        loaded.edge_labels = _padded(data.load_labels(data_dir / "edge_labels.csv"), h.m)
        loaded.edge_train_mask, _ = data.split_labeled(loaded.edge_labels, w.label_rate, seed=seed)
    return loaded


def run_round(w: Workload, d: Loaded, seed: int) -> Round:
    """One round: the workload's fits, then timed forward-only inference."""
    config = training.TrainConfig(seed=seed, **w.train)
    calls = []
    epochs = 0
    if w.cv_alphas:
        grid = training.axis_sweep_grid(list(w.cv_alphas), axis="alpha", fixed=config.beta)
        best, _ = _timed_fit(
            calls, training.cross_validate_alpha_beta,
            d.h, d.features, d.labels, d.train_mask, grid, w.cv_folds, config,
        )
        epochs += len(grid) * w.cv_folds * config.epochs
        config = config.with_overrides(alpha=best[0], beta=best[1])

    node_net, node_fit = _timed_fit(
        calls, training.train_node_classifier, d.h, d.features, d.labels, d.train_mask, config
    )
    epochs += config.epochs

    edge_net = edge_fit = None
    if w.edge_epochs:
        edge_config = config.with_overrides(epochs=w.edge_epochs)
        edge_net, edge_fit = _timed_fit(
            calls, training.train_edge_classifier,
            d.h, d.features, d.edge_labels, d.edge_train_mask, edge_config,
        )
        epochs += edge_config.epochs

    dropout_net = None
    if w.dropout_epochs:
        # Two layers with dropout between them: the package's default depth.
        # Its throughput counts; its accuracy is not gated, because such fits
        # stall for a seed-dependent number of epochs.
        dropout_config = config.with_overrides(epochs=w.dropout_epochs, n_layers=2, dropout=0.3)
        dropout_net, _ = _timed_fit(
            calls, training.train_node_classifier,
            d.h, d.features, d.labels, d.train_mask, dropout_config,
        )
        epochs += dropout_config.epochs

    tables = hypergraph.normalization_tables(d.h, config.alpha, config.beta)
    x = autodiff.Tensor(d.features)
    infer_seconds = []
    predictions = None
    for _ in range(w.infer_passes):
        started = time.perf_counter()
        out = model.forward(node_net, d.h, tables, x, training=False)
        predicted = model.predict(out.node_logits)
        infer_seconds.append(time.perf_counter() - started)
        if predictions is not None and not np.array_equal(predicted, predictions):
            raise checks.CheckFailed("two inference passes predicted different classes")
        predictions = predicted
    return Round(
        fit_calls=calls,
        epochs=epochs,
        infer_seconds=infer_seconds,
        alpha_beta=(config.alpha, config.beta),
        node_net=node_net,
        node_fit=node_fit,
        predictions=predictions,
        edge_net=edge_net,
        edge_fit=edge_fit,
        dropout_net=dropout_net,
    )


def _training_loss(net, d: Loaded, tables, seed: int, tape=None):
    """A node fit's training loss with the dropout masks of one fixed stream."""
    out = model.forward(
        net,
        d.h,
        tables,
        autodiff.Tensor(d.features),
        training=True,
        rng=CounterRng(seed).spawn(0),
        tape=tape,
    )
    return autodiff.softmax_cross_entropy(out.node_logits, d.labels, np.flatnonzero(d.train_mask), tape)


def _norm(arrays: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(np.vdot(a, a) for a in arrays)))


def _check_gradient(net, d: Loaded, tables, seed: int) -> None:
    """Finite-difference directional derivative of the training loss of `net`."""
    params = net.parameters()
    tape = autodiff.Tape()
    loss = _training_loss(net, d, tables, seed, tape)
    net.zero_grads()
    tape.backward(loss)
    grads = [np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in params]
    # Half along the gradient, so a wrong gradient shows in the product,
    # half random, so a gradient that is wrong only off its own span does too.
    rng = np.random.default_rng(seed)
    noise = [rng.standard_normal(g.shape) for g in grads]
    direction = [a / _norm(grads) + b / _norm(noise) for a, b in zip(grads, noise)]
    direction = [v / _norm(direction) for v in direction]
    base = [p.values for p in params]

    def loss_at(t: float) -> float:
        for p, b, v in zip(params, base, direction):
            p.values = b + t * v
        try:
            return float(_training_loss(net, d, tables, seed).values[0, 0])
        finally:
            for p, b in zip(params, base):
                p.values = b

    checks.check_directional_derivative(loss_at, grads, direction)


def check_round(w: Workload, truth, d: Loaded, r: Round, seed: int) -> float:
    """Run every correctness check on a round; returns the node accuracy."""
    checks.check_ingest(truth, d.data_dir, w.corpus.mode)
    n, edges = checks.read_edges(d.data_dir / "hypergraph.txt")
    incidence = checks.incidence_matrix(n, edges)
    file_features = checks.read_features(d.data_dir / "features.bin")
    file_labels = np.asarray(checks.read_label_column(d.data_dir / "labels.csv"))

    cells = {r.alpha_beta} | {(a, r.alpha_beta[1]) for a in w.cv_alphas}
    for alpha, beta in sorted(cells):
        checks.check_tables(hypergraph.normalization_tables(d.h, alpha, beta), incidence)

    tables = hypergraph.normalization_tables(d.h, *r.alpha_beta)
    x = autodiff.Tensor(d.features)
    ref_logits, _ = checks.reference_forward(r.node_net, incidence, file_features)
    out = model.forward(r.node_net, d.h, tables, x, training=False)
    checks.check_close("node logits", out.node_logits.values, ref_logits)
    ref_pred = np.argmax(ref_logits, axis=1)
    top_two = np.sort(ref_logits, axis=1)[:, -2:]
    decided = top_two[:, 1] - top_two[:, 0] > 1e-9
    if not np.array_equal(r.predictions[decided], ref_pred[decided]):
        raise checks.CheckFailed("inference predictions differ from the reference argmax")

    if r.edge_net is not None:
        _, ref_edges = checks.reference_forward(r.edge_net, incidence, file_features)
        edge_out = model.forward(r.edge_net, d.h, tables, x, training=False)
        checks.check_close("edge states", edge_out.edge_state.values, ref_edges)
        ref_edge_logits = ref_edges @ r.edge_net.edge_head_weight.values + r.edge_net.edge_head_bias.values
        checks.check_close(
            "edge logits", model.edge_logits(r.edge_net, edge_out.edge_state).values, ref_edge_logits
        )
        checks.check_loss_decreased("edge fit", r.edge_fit.losses)

    if r.dropout_net is not None:
        ref_dropout, _ = checks.reference_forward(r.dropout_net, incidence, file_features)
        dropout_out = model.forward(r.dropout_net, d.h, tables, x, training=False)
        checks.check_close("two-layer node logits", dropout_out.node_logits.values, ref_dropout)
        _check_gradient(r.dropout_net, d, tables, seed)

    _check_gradient(r.node_net, d, tables, seed)
    checks.check_loss_decreased("node fit", r.node_fit.losses)

    test = np.flatnonzero(d.test_mask)
    accuracy = float(np.mean(ref_pred[test] == file_labels[test]))
    if abs(accuracy - r.node_fit.final_test_acc) > 1e-12:
        raise checks.CheckFailed(
            f"reported test accuracy {r.node_fit.final_test_acc} but the reference gives {accuracy}"
        )
    checks.check_above_chance("node fit", accuracy, file_labels[test])
    return accuracy
