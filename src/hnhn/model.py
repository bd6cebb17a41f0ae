"""Two-phase hypergraph convolution model with node and edge heads.

Each layer first updates hyperedge states from their member nodes, then
updates node states from their incident edges.  Both aggregations are
degree-weighted means driven by precomputed normalization tables, so the
model itself never touches an incidence matrix.

Layer 0 has two routes to the same values. The raw route takes the n x F
feature Tensor, projects every node row (X W_in + b_in) and aggregates the
projection into the edges. Since each edge divisor is the sum of its
members' scales, mean_beta(X W_in + b_in) = (P_beta X) W_in + (P_beta 1) b_in,
so the folded route takes a FoldedInput holding the m x F matrix P_beta X,
built once by fold_input, and starts layer 0 with an m-row projection and
no aggregation. Nothing acts on the projected rows before that first
aggregation (dropout only follows a layer), which keeps the two routes
equal up to the order of the sums. Training folds its input once per fit
and reuses it for every forward; a one-shot pass (CLI prediction, the
benchmark's inference) takes the raw route, which costs less than building
the fold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    dropout,
    matmul,
    read_tensor,
    row_scale,
    segment_mean_weighted,
    write_tensor,
)
from .expansion import clique_adjacency, fano_pair, graph_convolution_step
from .hypergraph import Hypergraph, NormalizationTables, normalization_tables
from .rng import CounterRng

MANIFEST_NAME = "manifest.txt"
WEIGHTS_NAME = "weights.bin"


@dataclass
class HnhnModel:
    feature_dim: int
    hidden_dim: int
    n_classes: int
    n_edge_classes: int
    n_layers: int
    dropout_rate: float
    alpha: float
    beta: float
    seed: int
    input_weight: Tensor
    input_bias: Tensor
    edge_weights: list[Tensor] = field(default_factory=list)
    edge_biases: list[Tensor] = field(default_factory=list)
    node_weights: list[Tensor] = field(default_factory=list)
    node_biases: list[Tensor] = field(default_factory=list)
    node_head_weight: Tensor = None
    node_head_bias: Tensor = None
    edge_head_weight: Tensor = None
    edge_head_bias: Tensor = None

    def parameters(self) -> list[Tensor]:
        """All trainable tensors in a fixed order (the optimizer relies on it)."""
        params = [self.input_weight, self.input_bias]
        for layer in range(self.n_layers):
            params.extend(
                [
                    self.edge_weights[layer],
                    self.edge_biases[layer],
                    self.node_weights[layer],
                    self.node_biases[layer],
                ]
            )
        params.extend(
            [
                self.node_head_weight,
                self.node_head_bias,
                self.edge_head_weight,
                self.edge_head_bias,
            ]
        )
        return params

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()


@dataclass
class ForwardResult:
    node_logits: Tensor
    edge_state: Tensor
    node_state: Tensor


def _uniform_fan_in(rng: CounterRng, fan_in: int, shape: tuple[int, int]) -> Tensor:
    bound = 1.0 / np.sqrt(float(fan_in))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def init_model(
    feature_dim: int,
    hidden_dim: int,
    n_classes: int,
    *,
    n_edge_classes: int | None = None,
    n_layers: int = 2,
    dropout_rate: float = 0.3,
    alpha: float = 0.0,
    beta: float = 0.0,
    seed: int = 0,
) -> HnhnModel:
    if feature_dim < 1 or hidden_dim < 1 or n_classes < 1:
        raise ValueError("model dimensions must be positive")
    if n_layers < 1:
        raise ValueError(f"need at least one layer, got {n_layers}")
    if n_edge_classes is None:
        n_edge_classes = n_classes
    rng = CounterRng(seed)

    # Biases share the weight init range. A zero bias would pin every
    # zero-message (degree-0) row exactly on the ReLU kink.
    model = HnhnModel(
        feature_dim=feature_dim,
        hidden_dim=hidden_dim,
        n_classes=n_classes,
        n_edge_classes=n_edge_classes,
        n_layers=n_layers,
        dropout_rate=dropout_rate,
        alpha=alpha,
        beta=beta,
        seed=seed,
        input_weight=_uniform_fan_in(rng, feature_dim, (feature_dim, hidden_dim)),
        input_bias=_uniform_fan_in(rng, feature_dim, (1, hidden_dim)),
    )
    for _ in range(n_layers):
        model.edge_weights.append(_uniform_fan_in(rng, hidden_dim, (hidden_dim, hidden_dim)))
        model.edge_biases.append(_uniform_fan_in(rng, hidden_dim, (1, hidden_dim)))
        model.node_weights.append(_uniform_fan_in(rng, hidden_dim, (hidden_dim, hidden_dim)))
        model.node_biases.append(_uniform_fan_in(rng, hidden_dim, (1, hidden_dim)))
    model.node_head_weight = _uniform_fan_in(rng, hidden_dim, (hidden_dim, n_classes))
    model.node_head_bias = _uniform_fan_in(rng, hidden_dim, (1, n_classes))
    model.edge_head_weight = _uniform_fan_in(rng, hidden_dim, (hidden_dim, n_edge_classes))
    model.edge_head_bias = _uniform_fan_in(rng, hidden_dim, (1, n_edge_classes))
    return model


@dataclass(frozen=True, eq=False)
class FoldedInput:
    """Node features folded past layer 0's edge aggregation (see the module doc).

    values is P_beta X, the constant m x F beta-weighted mean of each edge's
    member feature rows. coverage is P_beta 1: 1 for an edge, and 0 for an
    edge all of whose members' deg^beta underflowed, so that
    normalization_tables set its divisor to 1. tables are the tables it was
    built from; forward rejects the input with any other tables.
    """

    values: Tensor
    coverage: np.ndarray
    tables: NormalizationTables

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def fold_input(
    h: Hypergraph, tables: NormalizationTables, features: np.ndarray | Tensor
) -> FoldedInput:
    """P_beta X and P_beta 1 for the n x F features, for a forward's folded route.

    One np.bincount over the nonzeros of X, in the edge-major pair order of
    the aggregation, so each entry is summed in the order segment_mean_weighted
    would sum it. Only the nonzeros are expanded: the width-F bin ids of
    SegmentIndex.blocks would hold one id per incidence and column.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.shape[0] != h.n:
        raise ValueError(f"feature rows {x.shape[0]} do not match {h.n} nodes")
    if len(tables.node_scale_beta) != h.n or len(tables.edge_divisor_beta) != h.m:
        raise ValueError("normalization tables were built for a different hypergraph")
    if not np.isfinite(tables.node_scale_beta).all():
        raise FloatingPointError("segment weights contain non-finite entries")
    width = x.shape[1]
    edge_ids, node_ids = h.edge_incidence_flat
    scales = tables.node_scale_beta[node_ids]
    divisors = tables.edge_divisor_beta[:, None]

    flat = np.flatnonzero(x.values != 0)
    rows, cols = np.divmod(flat, width)
    nonzeros = x.values.ravel()[flat]
    per_row = np.bincount(rows, minlength=h.n)
    per_pair = per_row[node_ids]
    # Entry k pairs incidence pair_of[k] with the nonzero nz[k] of its node's
    # row: pairs in order, each one's nonzeros in column order.
    pair_of = np.repeat(np.arange(len(node_ids)), per_pair)
    skip = (np.cumsum(per_row) - per_row)[node_ids] - (np.cumsum(per_pair) - per_pair)
    nz = np.arange(len(pair_of)) + np.repeat(skip, per_pair)
    coverage = np.bincount(edge_ids, weights=scales, minlength=h.m) / divisors[:, 0]
    if not np.isin(coverage, (0.0, 1.0)).all():
        raise ValueError("folding needs tables whose divisors are the sums of the scales")
    folded = np.bincount(
        edge_ids[pair_of] * width + cols[nz],
        weights=nonzeros[nz] * scales[pair_of],
        minlength=h.m * width,
    ).reshape(h.m, width)
    folded /= divisors
    return FoldedInput(Tensor(folded), coverage, tables)


def _draws_dropout(model: HnhnModel, training: bool) -> bool:
    """Whether a forward pass draws dropout masks: only in training, at a
    positive rate, and between layers, so a one-layer model never does."""
    return training and model.dropout_rate > 0.0 and model.n_layers > 1


def forward(
    model: HnhnModel,
    h: Hypergraph,
    tables: NormalizationTables,
    node_features: Tensor | FoldedInput,
    *,
    training: bool = False,
    rng: CounterRng | None = None,
    tape: Tape | None = None,
) -> ForwardResult:
    """One pass; node_features is the raw n x F Tensor or a FoldedInput built
    with these tables, which gives the same values (see the module doc)."""
    folded = isinstance(node_features, FoldedInput)
    rows = h.m if folded else h.n
    if node_features.shape != (rows, model.feature_dim):
        raise ValueError(
            f"feature shape {node_features.shape} does not match "
            f"({rows}, {model.feature_dim})"
        )
    if len(tables.node_scale_beta) != h.n or len(tables.edge_scale_alpha) != h.m:
        raise ValueError("normalization tables were built for a different hypergraph")
    if folded and node_features.tables is not tables:
        raise ValueError("the folded input was built for other normalization tables")
    needs_dropout = _draws_dropout(model, training)
    if needs_dropout and rng is None:
        raise ValueError("training forward with dropout requires an rng")

    into_edges, into_nodes = h.segment_indices
    if folded:
        gathered = matmul(node_features.values, model.input_weight, tape, bias=model.input_bias)
        if not node_features.coverage.all():
            gathered = row_scale(gathered, node_features.coverage, tape)
    else:
        x = matmul(node_features, model.input_weight, tape, bias=model.input_bias)
    edge_state = Tensor(np.zeros((h.m, model.hidden_dim)))
    for layer in range(model.n_layers):
        if layer > 0 or not folded:
            gathered = segment_mean_weighted(
                x, into_edges, tables.node_scale_beta, tables.edge_divisor_beta, tape
            )
        edge_state = matmul(
            gathered, model.edge_weights[layer], tape, bias=model.edge_biases[layer], relu=True
        )
        scattered = segment_mean_weighted(
            edge_state, into_nodes, tables.edge_scale_alpha, tables.node_divisor_alpha, tape
        )
        x = matmul(
            scattered, model.node_weights[layer], tape, bias=model.node_biases[layer], relu=True
        )
        if needs_dropout and layer < model.n_layers - 1:
            x = dropout(x, model.dropout_rate, training=True, rng=rng, tape=tape)

    node_logits = matmul(x, model.node_head_weight, tape, bias=model.node_head_bias)
    return ForwardResult(node_logits=node_logits, edge_state=edge_state, node_state=x)


def edge_logits(model: HnhnModel, edge_state: Tensor, tape: Tape | None = None) -> Tensor:
    return matmul(edge_state, model.edge_head_weight, tape, bias=model.edge_head_bias)


def predict(logits: Tensor | np.ndarray) -> np.ndarray:
    """Argmax per row; ties resolve to the lowest class index."""
    values = logits.values if isinstance(logits, Tensor) else logits
    return np.argmax(values, axis=1).astype(np.int64)


def distinguishability_test(
    seed: int = 0, hidden_dim: int = 16, alpha: float = 0.0, beta: float = 0.0
) -> dict:
    """Compare the two Fano-plane variants under clique convolution and the
    two-phase model.

    Returns max absolute output differences for both routes.  The clique
    route cannot separate the pair (identical adjacency); the two-phase
    route can.
    """
    first, second = fano_pair()
    features = np.eye(first.n)
    rng = CounterRng(seed)
    bound = 1.0 / np.sqrt(float(first.n))
    w = rng.uniform(-bound, bound, (first.n, hidden_dim))
    b = np.zeros((1, hidden_dim))
    clique_out = [
        graph_convolution_step(clique_adjacency(g), features, w, b)
        for g in (first, second)
    ]
    clique_diff = float(np.max(np.abs(clique_out[0] - clique_out[1])))

    model = init_model(
        first.n, hidden_dim, n_classes=2, alpha=alpha, beta=beta, seed=seed
    )
    model_out = [
        forward(
            model, g, normalization_tables(g, alpha, beta), Tensor(features)
        ).node_state.values
        for g in (first, second)
    ]
    model_diff = float(np.max(np.abs(model_out[0] - model_out[1])))
    return {"clique_diff": clique_diff, "model_diff": model_diff}


def save_model(model: HnhnModel, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    scalars = {
        "feature_dim": model.feature_dim,
        "hidden_dim": model.hidden_dim,
        "n_classes": model.n_classes,
        "n_edge_classes": model.n_edge_classes,
        "n_layers": model.n_layers,
        "dropout_rate": model.dropout_rate,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
    }
    with open(os.path.join(directory, MANIFEST_NAME), "w") as fh:
        for key, value in scalars.items():
            fh.write(f"{key}={value!r}\n")
    with open(os.path.join(directory, WEIGHTS_NAME), "wb") as fh:
        for param in model.parameters():
            write_tensor(fh, param.values)


def load_model(directory: str) -> HnhnModel:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    scalars: dict = {}
    with open(manifest_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, raw = line.partition("=")
            if not _:
                raise ValueError(f"malformed manifest line: {line!r}")
            scalars[key] = raw
    try:
        model = init_model(
            int(scalars["feature_dim"]),
            int(scalars["hidden_dim"]),
            int(scalars["n_classes"]),
            n_edge_classes=int(scalars["n_edge_classes"]),
            n_layers=int(scalars["n_layers"]),
            dropout_rate=float(scalars["dropout_rate"]),
            alpha=float(scalars["alpha"]),
            beta=float(scalars["beta"]),
            seed=int(scalars["seed"]),
        )
    except KeyError as exc:
        raise ValueError(f"manifest is missing {exc}") from exc
    with open(os.path.join(directory, WEIGHTS_NAME), "rb") as fh:
        for param in model.parameters():
            stored = read_tensor(fh)
            if stored.shape != param.shape:
                raise ValueError(
                    f"stored tensor shape {stored.shape} does not match model "
                    f"shape {param.shape}"
                )
            param.values = stored
    return model
