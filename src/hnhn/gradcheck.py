"""Finite-difference validation of the whole model's analytic gradients."""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Tensor, add, softmax_cross_entropy
from .hypergraph import Hypergraph, normalization_tables
from .model import HnhnModel, edge_logits, fold_input, forward, init_model
from .rng import CounterRng
from .synthetic import random_hypergraph

FD_STEP = 1e-6
REL_TOL = 1e-4
# Entries whose gradient is this small are compared near-absolutely; keeps
# central-difference roundoff (~1e-10 at step 1e-6) from dominating the ratio.
REL_FLOOR = 1e-2

SIZES = {
    "small": dict(n=10, m=6, feature_dim=5, hidden_dim=8, seed=7),
    "medium": dict(n=40, m=24, feature_dim=12, hidden_dim=16, seed=11),
}


def _fixture(size: str):
    if size not in SIZES:
        raise ValueError(f"size must be one of {sorted(SIZES)}, got {size!r}")
    cfg = SIZES[size]
    h = random_hypergraph(cfg["n"], cfg["m"], seed=cfg["seed"], min_size=2, max_size=4)
    rng = CounterRng(cfg["seed"] + 1)
    features = rng.uniform(-1.0, 1.0, (h.n, cfg["feature_dim"]))
    node_labels = rng.integers(3, h.n).astype(np.int64)
    edge_label_arr = rng.integers(3, h.m).astype(np.int64)
    model = init_model(
        cfg["feature_dim"],
        cfg["hidden_dim"],
        n_classes=3,
        alpha=0.25,
        beta=-0.5,
        seed=cfg["seed"] + 2,
    )
    tables = normalization_tables(h, 0.25, -0.5)
    node_rows = np.arange(h.n)[:: 2]
    edge_rows = np.arange(h.m)[:: 2]
    return h, tables, model, features, node_labels, edge_label_arr, node_rows, edge_rows


def _loss_value(model, h, tables, features, node_labels, edge_lab, node_rows, edge_rows,
                tape: Tape | None = None) -> Tensor:
    out = forward(model, h, tables, features, training=False, tape=tape)
    node_loss = softmax_cross_entropy(out.node_logits, node_labels, node_rows, tape)
    edge_loss = softmax_cross_entropy(
        edge_logits(model, out.edge_state, tape), edge_lab, edge_rows, tape
    )
    return add(node_loss, edge_loss, tape)


def gradcheck_model(size: str = "small", step: float = FD_STEP) -> float:
    """Max relative error between analytic and central-difference gradients
    over every entry of every parameter, with the loss taken through the raw
    feature Tensor and through the folded input that training uses; the
    worse of the two. Deterministic fixture per size."""
    h, tables, model, features, node_labels, edge_lab, node_rows, edge_rows = _fixture(size)

    worst = 0.0
    for node_input in (Tensor(features), fold_input(h, tables, features)):
        tape = Tape()
        model.zero_grads()
        loss = _loss_value(
            model, h, tables, node_input, node_labels, edge_lab, node_rows, edge_rows, tape
        )
        tape.backward(loss)

        def loss_at() -> float:
            value = _loss_value(
                model, h, tables, node_input, node_labels, edge_lab, node_rows, edge_rows
            )
            return float(value.values[0, 0])

        for param in model.parameters():
            analytic = param.grad if param.grad is not None else np.zeros(param.shape)
            flat = param.values.reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + step
                upper = loss_at()
                flat[idx] = original - step
                lower = loss_at()
                flat[idx] = original
                fd = (upper - lower) / (2.0 * step)
                ad = analytic.reshape(-1)[idx]
                rel = abs(fd - ad) / max(abs(fd), abs(ad), REL_FLOOR)
                worst = max(worst, rel)
    return worst
