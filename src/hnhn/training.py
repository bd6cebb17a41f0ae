"""Adam training loops for node and edge classification, plus (alpha, beta)
cross-validation.

All loops are deterministic for a fixed config: weight init, dropout masks,
and fold assignment each draw from counter-based generators derived from the
config seed.

An epoch is a loss and backward pass on a taped forward, one Adam step, and
a forward at the stepped parameters that scores the epoch. When the forward
draws no dropout mask (one layer, or dropout 0), a training forward and an
eval forward at the same parameters compute the same values, so a
dropout-free epoch runs one forward: the scoring forward is taped and
carries the next epoch's loss, and E epochs make E+1 forwards.

A fit folds its features past layer 0's edge aggregation once
(model.fold_input) and hands the folded input to every forward it makes,
scoring ones included, so no forward of a fit projects all n node rows or
runs that first aggregation. Cross-validation builds the folded input once
per (alpha, beta) cell and scores each held-out fold with it too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, softmax_cross_entropy
from .hypergraph import Hypergraph, normalization_tables
from .model import (
    FoldedInput,
    HnhnModel,
    _draws_dropout,
    edge_logits,
    fold_input,
    forward,
    init_model,
    predict,
)
from .rng import CounterRng

LR_DECAY_EPOCHS = 100
# Elements per block of adam_step: a block's six 128 KB arrays (values,
# gradient, both moments, two temporaries) fit in one core's L2 cache.
ADAM_BLOCK = 16_384


@dataclass
class TrainConfig:
    epochs: int = 200
    lr0: float = 0.04
    lr_decay: float = 0.51
    dropout: float = 0.3
    hidden_dim: int = 400
    n_layers: int = 2
    alpha: float = 0.0
    beta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr0 <= 0.0:
            raise ValueError(f"initial learning rate must be positive, got {self.lr0}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    def with_overrides(self, **kwargs) -> "TrainConfig":
        merged = {**self.__dict__, **kwargs}
        return TrainConfig(**merged)


@dataclass
class RunMetrics:
    epochs: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    train_accs: list[float] = field(default_factory=list)
    test_accs: list[float] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def final_test_acc(self) -> float:
        if not self.test_accs:
            raise ValueError("no epochs recorded")
        return self.test_accs[-1]


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros(p.shape) for p in params],
            v=[np.zeros(p.shape) for p in params],
        )


def adam_step(
    params: list[Tensor], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    """Bias-corrected Adam update of the parameter values and moments, in place.

    Each parameter is updated in blocks of whole rows, about ADAM_BLOCK
    elements each, so that the elementwise passes over a block stay in cache.
    Every element goes through the textbook formula's operations in its
    order, so the result is bitwise that of the formula on whole arrays.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must be parallel lists")
    state.t += 1
    beta1, beta2 = state.beta1, state.beta2
    correction1 = 1.0 - beta1**state.t
    correction2 = 1.0 - beta2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            # Parameter sits outside the loss path (e.g. the edge head during
            # node training); zero moments keep it fixed.
            g = np.zeros(p.shape)
        elif g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {i}")
        elif not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {i}")
        rows = max(1, ADAM_BLOCK // p.shape[1])
        for lo in range(0, p.shape[0], rows):
            block = slice(lo, lo + rows)
            values, grad = p.values[block], g[block]
            m, v = state.m[i][block], state.v[i][block]
            # m = beta1 * m + (1 - beta1) * g
            m *= beta1
            m += (1.0 - beta1) * grad
            # v = beta2 * v + (1 - beta2) * g * g
            v *= beta2
            step = (1.0 - beta2) * grad
            step *= grad
            v += step
            # values -= lr * (m / correction1) / (sqrt(v / correction2) + eps)
            step = m / correction1
            step *= lr
            denom = v / correction2
            np.sqrt(denom, out=denom)
            denom += state.eps
            step /= denom
            values -= step


def lr_at(epoch: int, config: TrainConfig) -> float:
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return config.lr0 * config.lr_decay ** (epoch // LR_DECAY_EPOCHS)


def _accuracy(predicted: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> float:
    if len(rows) == 0:
        raise ValueError("accuracy over an empty row set")
    return float(np.mean(predicted[rows] == labels[rows]))


def _check_masked_labels(labels: np.ndarray, mask: np.ndarray, what: str) -> None:
    if mask.dtype != bool:
        raise ValueError(f"{what} mask must be boolean")
    if not mask.any():
        raise ValueError(f"empty {what} mask")
    if (labels[mask] < 0).any():
        raise ValueError(f"masked {what} rows must all carry labels")


def _train_loop(
    h: Hypergraph,
    features: np.ndarray | Tensor,
    labels: np.ndarray,
    mask: np.ndarray,
    config: TrainConfig,
    on_edges: bool,
    *,
    folded: FoldedInput | None = None,
) -> tuple[HnhnModel, RunMetrics]:
    """Train one model on its folded features; a caller fitting many on the
    same graph and (config.alpha, config.beta) passes the folded input,
    built from these features, to build it once."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask)
    _check_masked_labels(labels, mask, "edge" if on_edges else "node")
    n_classes = int(labels.max()) + 1
    train_rows = np.flatnonzero(mask)
    eval_rows = np.flatnonzero(~mask & (labels >= 0))
    if len(eval_rows) == 0:
        raise ValueError("no labeled rows left outside the training mask")

    if folded is None:
        folded = fold_input(h, normalization_tables(h, config.alpha, config.beta), features)
    model = init_model(
        folded.shape[1],
        config.hidden_dim,
        n_classes,
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
    started = time.perf_counter()
    draws_masks = _draws_dropout(model, training=True)

    def scored_by(tape: Tape | None, epoch: int) -> Tensor:
        """Logits of one forward; with a tape it is epoch's training forward."""
        out = forward(
            model,
            h,
            folded.tables,
            folded,
            training=tape is not None,
            rng=dropout_streams.spawn(epoch),
            tape=tape,
        )
        return edge_logits(model, out.edge_state, tape) if on_edges else out.node_logits

    # Without dropout masks the forward at the stepped parameters scores the
    # epoch and, taped, carries the next epoch's loss (see the module doc).
    tape = Tape()
    scored = scored_by(tape, 0)
    for epoch in range(config.epochs):
        loss = softmax_cross_entropy(scored, labels, train_rows, tape)
        model.zero_grads()
        tape.backward(loss)
        adam_step(params, [p.grad for p in params], state, lr_at(epoch, config))

        tape = Tape() if epoch + 1 < config.epochs else None
        if draws_masks:
            eval_scored = scored_by(None, epoch)
            if tape is not None:
                scored = scored_by(tape, epoch + 1)
        else:
            scored = eval_scored = scored_by(tape, epoch + 1)
        predicted = predict(eval_scored)
        metrics.epochs.append(epoch)
        metrics.losses.append(float(loss.values[0, 0]))
        metrics.train_accs.append(_accuracy(predicted, labels, train_rows))
        metrics.test_accs.append(_accuracy(predicted, labels, eval_rows))
    metrics.seconds = time.perf_counter() - started
    return model, metrics


def train_node_classifier(
    h: Hypergraph,
    features: np.ndarray,
    labels: np.ndarray,
    labeled_mask: np.ndarray,
    config: TrainConfig,
) -> tuple[HnhnModel, RunMetrics]:
    """Full-graph training on masked node labels; held-out labeled nodes score
    the test column."""
    return _train_loop(h, features, labels, labeled_mask, config, on_edges=False)


def train_edge_classifier(
    h: Hypergraph,
    features: np.ndarray,
    edge_labels: np.ndarray,
    labeled_edge_mask: np.ndarray,
    config: TrainConfig,
) -> tuple[HnhnModel, RunMetrics]:
    """Same loop with the loss on the edge head over masked hyperedges."""
    return _train_loop(h, features, edge_labels, labeled_edge_mask, config, on_edges=True)


def summarize_accuracies(accs: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single run)."""
    values = np.asarray(accs, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no accuracies to summarize")
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), std


@dataclass
class CvCell:
    alpha: float
    beta: float
    fold_accs: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_accs))

    @property
    def std(self) -> float:
        accs = np.asarray(self.fold_accs)
        return float(accs.std(ddof=1)) if accs.size > 1 else 0.0


def _assign_folds(
    labels: np.ndarray, rows: np.ndarray, folds: int, seed: int
) -> np.ndarray:
    """Fold id per row, stratified: each class is shuffled and dealt round-robin."""
    fold_of = np.full(len(rows), -1, dtype=np.int64)
    rng = CounterRng(seed)
    for cls in np.unique(labels[rows]):
        members = np.flatnonzero(labels[rows] == cls)
        members = members[rng.permutation(len(members))]
        fold_of[members] = np.arange(len(members)) % folds
    return fold_of


def cross_validate_alpha_beta(
    h: Hypergraph,
    features: np.ndarray,
    labels: np.ndarray,
    labeled_mask: np.ndarray,
    grid: list[tuple[float, float]],
    folds: int,
    config: TrainConfig,
) -> tuple[tuple[float, float], list[CvCell]]:
    """Pick (alpha, beta) by k-fold accuracy on the labeled set.

    Ties go to the candidate closest to (0, 0), then lexicographically
    smallest. Fold assignment is stratified; a class too small to reach
    every fold triggers one reseeded retry, then an error.
    """
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if not grid:
        raise ValueError("empty (alpha, beta) grid")
    labels = np.asarray(labels, dtype=np.int64)
    labeled_mask = np.asarray(labeled_mask)
    _check_masked_labels(labels, labeled_mask, "node")
    rows = np.flatnonzero(labeled_mask)

    fold_of = _assign_folds(labels, rows, folds, config.seed)
    for attempt in range(2):
        complete = all(
            len(np.unique(labels[rows][fold_of == k])) == len(np.unique(labels[rows]))
            for k in range(folds)
        )
        if complete:
            break
        if attempt == 1:
            raise ValueError("a class is absent from some fold even after reseeding")
        fold_of = _assign_folds(labels, rows, folds, config.seed + 1)

    x = Tensor(np.asarray(features, dtype=np.float64))
    cells = []
    for alpha, beta in grid:
        cell = CvCell(alpha=alpha, beta=beta, fold_accs=[])
        cell_config = config.with_overrides(alpha=alpha, beta=beta)
        folded = fold_input(h, normalization_tables(h, alpha, beta), x)
        for k in range(folds):
            train_mask = np.zeros(len(labels), dtype=bool)
            train_mask[rows[fold_of != k]] = True
            model, _ = _train_loop(
                h, x, labels, train_mask, cell_config, on_edges=False, folded=folded
            )
            out = forward(model, h, folded.tables, folded)
            held = rows[fold_of == k]
            cell.fold_accs.append(_accuracy(predict(out.node_logits), labels, held))
        cells.append(cell)

    def rank(cell: CvCell) -> tuple:
        return (-cell.mean, cell.alpha**2 + cell.beta**2, cell.alpha, cell.beta)

    best = min(cells, key=rank)
    return (best.alpha, best.beta), cells


def axis_sweep_grid(
    values: list[float], axis: str = "alpha", fixed: float = 0.0
) -> list[tuple[float, float]]:
    """Grid sweeping one normalization exponent with the other held fixed."""
    if axis not in ("alpha", "beta"):
        raise ValueError(f"axis must be alpha or beta, got {axis!r}")
    if axis == "alpha":
        return [(v, fixed) for v in values]
    return [(fixed, v) for v in values]


DEFAULT_SWEEP_VALUES = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
