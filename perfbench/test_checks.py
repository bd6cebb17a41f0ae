"""Each benchmark check passes on real output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from corpora import CorpusSpec, generate  # noqa: E402
from hnhn import autodiff, hypergraph, model  # noqa: E402

SMALL = workloads.Workload(
    name="small",
    why="test corpus",
    corpus=CorpusSpec(
        name="small",
        mode="cocite",
        n_docs=160,
        class_names=("a", "b", "c"),
        class_weights=(0.4, 0.3, 0.3),
        words_per_doc=(20, 40),
        topic_words_per_doc=(6, 12),
        topic_vocab=30,
        background_vocab=400,
        background_zipf=1.0,
        own_topic=0.9,
        n_relations=110,
        relation_size="cites",
        homophily=0.95,
    ),
    vocab=150,
    label_rate=0.3,
    train=dict(epochs=25, lr0=0.02, hidden_dim=8, n_layers=2, dropout=0.3),
    edge_epochs=5,
    dropout_epochs=3,
    infer_passes=2,
)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    truth = generate(SMALL.corpus, 3, root / "corpus")
    loaded = workloads.set_up(SMALL, root / "corpus", root / "data", 3)
    result = workloads.run_round(SMALL, loaded, 3)
    return truth, loaded, result


@pytest.fixture
def data_copy(run, tmp_path):
    _, loaded, _ = run
    shutil.copytree(loaded.data_dir, tmp_path / "data")
    return tmp_path / "data"


def _incidence(loaded):
    n, edges = checks.read_edges(loaded.data_dir / "hypergraph.txt")
    return checks.incidence_matrix(n, edges)


def test_whole_round_passes(run):
    truth, loaded, result = run
    accuracy = workloads.check_round(SMALL, truth, loaded, result, 3)
    assert accuracy == result.node_fit.final_test_acc


def test_ingest_rejects_a_changed_label(run, data_copy):
    truth = run[0]
    path = data_copy / "labels.csv"
    lines = path.read_text().splitlines()
    node, label = lines[1].split(",")
    lines[1] = f"{node},{(int(label) + 1) % 3}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="node labels"):
        checks.check_ingest(truth, data_copy, "cocite")


def test_ingest_rejects_a_dropped_edge(run, data_copy):
    truth = run[0]
    path = data_copy / "hypergraph.txt"
    lines = path.read_text().splitlines()
    n, m = lines[0].split()
    path.write_text("\n".join([f"{n} {int(m) - 1}"] + lines[1:-1]) + "\n")
    with pytest.raises(checks.CheckFailed, match="relations have two or more"):
        checks.check_ingest(truth, data_copy, "cocite")


def test_ingest_rejects_a_moved_member(run, data_copy):
    truth = run[0]
    path = data_copy / "hypergraph.txt"
    lines = path.read_text().splitlines()
    members = [int(t) for t in lines[1].split()]
    spare = next(i for i in range(int(lines[0].split()[0])) if i not in members)
    lines[1] = " ".join(map(str, members[:-1] + [spare]))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="hyperedges differ"):
        checks.check_ingest(truth, data_copy, "cocite")


def test_unit_rows_rejects_a_scaled_row(run):
    features = run[1].features.copy()
    has_terms = np.ones(len(features), dtype=bool)
    checks.check_unit_rows(features, has_terms)
    features[4] *= 1.001
    with pytest.raises(checks.CheckFailed, match="row norms"):
        checks.check_unit_rows(features, has_terms)


def test_unit_rows_want_zero_rows_exactly_for_documents_without_terms(run):
    features = run[1].features.copy()
    has_terms = np.ones(len(features), dtype=bool)
    features[4] = 0.0
    with pytest.raises(checks.CheckFailed, match="row norms"):
        checks.check_unit_rows(features, has_terms)
    has_terms[4] = False
    checks.check_unit_rows(features, has_terms)
    has_terms[5] = False
    with pytest.raises(checks.CheckFailed, match="no vocabulary term"):
        checks.check_unit_rows(features, has_terms)


def test_ingest_finds_the_documents_without_vocabulary_terms(run, data_copy):
    truth, loaded, _ = run
    vocabulary = (data_copy / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1]
    first = truth.doc_texts[truth.kept_docs[0]]
    dropped = [t for t in vocabulary if not checks._terms(first).isdisjoint({t})]
    (data_copy / "vocab.txt").write_text(
        "".join(f"{t}\n" for t in vocabulary if t not in dropped), encoding="utf-8"
    )
    with pytest.raises(checks.CheckFailed, match="no vocabulary term"):
        checks.check_ingest(truth, data_copy, "cocite")


@pytest.mark.parametrize("field", ["node_divisor_alpha", "edge_divisor_beta", "edge_scale_alpha"])
def test_tables_reject_a_wrong_entry(run, field):
    loaded = run[1]
    incidence = _incidence(loaded)
    tables = hypergraph.normalization_tables(loaded.h, 0.5, -0.5)
    checks.check_tables(tables, incidence)
    bad = getattr(tables, field).copy()
    bad[0] += 1e-6
    with pytest.raises(checks.CheckFailed, match=field):
        checks.check_tables(dataclasses.replace(tables, **{field: bad}), incidence)


def test_forward_rejects_perturbed_logits(run):
    _, loaded, result = run
    reference, _ = checks.reference_forward(result.node_net, _incidence(loaded), loaded.features)
    tables = hypergraph.normalization_tables(loaded.h, *result.alpha_beta)
    logits = model.forward(
        result.node_net, loaded.h, tables, autodiff.Tensor(loaded.features)
    ).node_logits.values.copy()
    checks.check_close("node logits", logits, reference)
    logits[7, 1] += 1e-7
    with pytest.raises(checks.CheckFailed, match="node logits"):
        checks.check_close("node logits", logits, reference)


def test_forward_reference_sees_wrong_exponents(run):
    _, loaded, result = run
    reference, _ = checks.reference_forward(result.node_net, _incidence(loaded), loaded.features)
    skewed = hypergraph.normalization_tables(loaded.h, 1.0, 0.0)
    logits = model.forward(result.node_net, loaded.h, skewed, autodiff.Tensor(loaded.features))
    with pytest.raises(checks.CheckFailed):
        checks.check_close("node logits", logits.node_logits.values, reference)


def _quadratic():
    target = [np.array([[1.0, -2.0]]), np.array([[0.5]])]

    def loss_at(t, direction):
        return sum(float(np.sum((t * d - c) ** 2)) for d, c in zip(direction, target))

    grads = [-2.0 * c for c in target]
    return loss_at, grads


def test_directional_derivative_accepts_the_true_gradient():
    loss_at, grads = _quadratic()
    direction = [np.array([[0.6, 0.0]]), np.array([[0.8]])]
    checks.check_directional_derivative(lambda t: loss_at(t, direction), grads, direction)


def test_directional_derivative_accepts_a_kink_within_the_first_step():
    # |t - 5e-7| bends the 1e-6 difference by 0.5; the 1e-7 one is exact.
    checks.check_directional_derivative(lambda t: 2.0 * t + abs(t - 5e-7), [np.array([[1.0]])], [np.array([[1.0]])])


@pytest.mark.parametrize("corrupt", [lambda g: g * 1.01, lambda g: g + 1e-3])
def test_directional_derivative_rejects_a_wrong_gradient(corrupt):
    loss_at, grads = _quadratic()
    direction = [np.array([[0.6, 0.0]]), np.array([[0.8]])]
    wrong = [corrupt(grads[0]), grads[1]]
    with pytest.raises(checks.CheckFailed, match="directional derivative"):
        checks.check_directional_derivative(lambda t: loss_at(t, direction), wrong, direction)


def test_loss_must_fall():
    checks.check_loss_decreased("fit", [1.0, 0.5])
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_loss_decreased("fit", [1.0, 1.2, 1.0])


def test_accuracy_must_beat_the_largest_class():
    labels = np.array([0] * 60 + [1] * 25 + [2] * 15)
    checks.check_above_chance("fit", 0.9, labels)
    with pytest.raises(checks.CheckFailed, match="chance bound"):
        checks.check_above_chance("fit", 0.6, labels)


def test_round_records_one_gap_per_epoch_after_the_first(run):
    from hnhn import training

    _, loaded, result = run
    assert [[len(g) for g in c.epoch_gaps] for c in result.fit_calls] == [
        [SMALL.train["epochs"] - 1], [SMALL.edge_epochs - 1], [SMALL.dropout_epochs - 1]
    ]
    assert all(0 < c.rest_seconds < c.seconds for c in result.fit_calls)

    calls = []
    config = training.TrainConfig(epochs=4, hidden_dim=4, n_layers=1, seed=3)
    grid = [(0.0, 0.0), (1.0, 0.0)]
    workloads._timed_fit(
        calls, training.cross_validate_alpha_beta,
        loaded.h, loaded.features, loaded.labels, loaded.train_mask, grid, 2, config,
    )
    assert [len(g) for g in calls[0].epoch_gaps] == [3, 3, 3, 3]
    assert training.adam_step.__module__ == "hnhn.training"
    assert training.adam_step.__qualname__ == "adam_step"


def test_quiet_fit_seconds_takes_each_part_at_its_fastest():
    from types import SimpleNamespace

    import run as bench

    def round_of(*calls):
        return SimpleNamespace(fit_calls=[workloads.FitCall(s, g) for s, g in calls])

    rounds = [
        round_of((1.0, [[0.2, 0.3]]), (0.5, [])),
        round_of((1.2, [[0.25, 0.25]]), (0.4, [])),
    ]
    # First call: rest min(0.5, 0.7) + 2 epochs at 0.2; second: min(0.5, 0.4).
    assert bench._quiet_fit_seconds(rounds) == pytest.approx(0.9 + 0.4)


def test_round_check_rejects_a_wrong_reported_accuracy(run):
    truth, loaded, result = run
    fit = dataclasses.replace(result.node_fit, test_accs=result.node_fit.test_accs[:-1] + [0.0])
    with pytest.raises(checks.CheckFailed, match="reported test accuracy"):
        workloads.check_round(SMALL, truth, loaded, dataclasses.replace(result, node_fit=fit), 3)



def test_tracer_covers_every_layer_and_restores_the_package(tmp_path):
    from hnhn import data, training
    from spans import LAYER_METRICS, Tracer

    originals = (training._train_loop, model.forward, data.tokenize, autodiff.Tape.record)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        mark = tracer.mark()
        with tracer.region("bench.round"):
            generate(SMALL.corpus, 5, tmp_path / "corpus")
            loaded = workloads.set_up(SMALL, tmp_path / "corpus", tmp_path / "data", 5)
            workloads.run_round(SMALL, loaded, 5)
        totals = tracer.layer_totals(mark)
    finally:
        tracer.uninstall()
    assert (training._train_loop, model.forward, data.tokenize, autodiff.Tape.record) == originals

    missing = [k for k in LAYER_METRICS if k != "training.cv_s" and not totals.get(k, 0) > 0]
    assert missing == []
    epochs = SMALL.train["epochs"] + SMALL.edge_epochs + SMALL.dropout_epochs
    assert totals["training.fits"] == 3
    assert totals["training.epochs"] == epochs
    assert totals["model.forward_calls"] == 2 * epochs + SMALL.infer_passes
    # Self times partition the enclosing span.
    region = next(i for i, n in enumerate(tracer.names) if n == "bench.round")
    inclusive = tracer.ends[region] - tracer.starts[region]
    self_sum = sum(v for k, v in totals.items() if k.endswith("_s"))
    assert abs(self_sum - inclusive) < 1e-9 * len(tracer.names) + 1e-6
