"""Minimal reverse-mode automatic differentiation over dense 2-D tensors.

Operations record backward closures onto an explicit Tape in execution
order; Tape.backward replays them in exact reverse order, accumulating
gradients additively into each tensor's grad field. The engine is double
precision throughout and raises FloatingPointError the moment any forward
value or gradient goes non-finite.

Every op ends in one call to _op, which holds the gradient rule: an op's
output requires a gradient when any of its inputs does, only such outputs
record a backward step, and a step forms and accumulates the gradient of an
input only if that input requires one. So a constant operand, such as the
feature matrix fed to the first matmul, gets no product and no grad buffer.
An op hands _op one grad_of function per input and computes anything only
the backward pass needs, such as the ReLU mask, inside it.

The one non-generic primitive is segment_mean_weighted, a gather/scatter
aggregation over per-target source-id lists. It computes the weighted-mean
message passing step directly from incidence indices, so the caller never
builds the dense source-by-target matrix the operation is equivalent to.
The scatter is one np.bincount over flat (target, column) bin ids, which a
SegmentIndex builds once per row width and keeps. bincount adds its
weights in input order, so each output entry is summed in the order of the
index's pairs; the backward pass scatters through the transposed index,
the same pairs stably sorted by source, so each gradient entry is summed in
that order too. Both match a sequential np.add.at over the same pairs bit
for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Sequence

import numpy as np

from hnhn.rng import CounterRng


class Tensor:
    """Dense 2-D float64 array participating in a computation tape.

    A tensor that requires a gradient is a parameter, which adam_step
    updates in place, so it takes a copy of the array it is given. Any other
    tensor (a constant, or an op's output) keeps a C-contiguous float64
    array as it is.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        if requires_grad:
            arr = np.array(values, dtype=np.float64, order="C")
        else:
            arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        _ensure_finite(arr, "tensor values")
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations; backward replays it in reverse."""

    def __init__(self):
        self._steps: list[Callable[[], None]] = []

    def record(self, step: Callable[[], None]) -> None:
        self._steps.append(step)

    def __len__(self) -> int:
        return len(self._steps)

    def backward(self, loss: Tensor) -> None:
        """Populate grads of everything the scalar loss depends on."""
        if loss.shape != (1, 1):
            raise ValueError(f"backward needs a scalar (1, 1) tensor, got {loss.shape}")
        loss.grad = np.ones((1, 1), dtype=np.float64)
        for step in reversed(self._steps):
            step()


def _ensure_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{what} contain non-finite entries")


def _accumulate(t: Tensor, delta: np.ndarray) -> None:
    _ensure_finite(delta, "gradients")
    if t.grad is None:
        t.grad = delta.copy()
    else:
        t.grad += delta


def _op(values, tape: Tape | None, *inputs: tuple[Tensor, Callable]) -> Tensor:
    """An op's output, recording its backward step on tape when it needs one.

    Each input is a pair (tensor, grad_of), where grad_of maps the output's
    gradient to that input's. The output requires a gradient when any input
    does, and only then is a step recorded; the step accumulates grad_of of
    the output gradient into each input that requires one, in input order.
    """
    out = Tensor(values)
    out.requires_grad = any(t.requires_grad for t, _ in inputs)
    if tape is not None and out.requires_grad:
        def backward() -> None:
            if out.grad is None:
                return
            for t, grad_of in inputs:
                if t.requires_grad:
                    _accumulate(t, grad_of(out.grad))
        tape.record(backward)
    return out


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _op(
        a.values @ b.values,
        tape,
        (a, lambda g: g @ b.values.T),
        (b, lambda g: a.values.T @ g),
    )


def add_bias(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if b.shape != (1, x.shape[1]):
        raise ValueError(f"bias shape {b.shape} does not broadcast over {x.shape}")
    return _op(
        x.values + b.values,
        tape,
        (x, lambda g: g),
        (b, lambda g: g.sum(axis=0, keepdims=True)),
    )


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _op(a.values + b.values, tape, (a, lambda g: g), (b, lambda g: g))


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    return _op(np.maximum(x.values, 0.0), tape, (x, lambda g: g * (x.values > 0.0)))


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: CounterRng,
    tape: Tape | None = None,
) -> Tensor:
    """Inverted dropout: surviving entries scaled by 1/(1-rate) at train time."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return _op(x.values * keep, tape, (x, lambda g: g * keep))


def row_scale(x: Tensor, s: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Multiply row i by the constant s[i]; s is data, not differentiated."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if len(s) != x.shape[0]:
        raise ValueError(f"scale length {len(s)} does not match {x.shape[0]} rows")
    _ensure_finite(s, "row scales")
    return _op(x.values * s[:, None], tape, (x, lambda g: g * s[:, None]))


@dataclass(frozen=True, eq=False)
class SegmentIndex:
    """Flattened (target, source) incidence pairs for segment aggregation.

    Pairs from from_lists are ordered by target then ascending source id;
    every reduction sums in pair order, so it is order-deterministic. An
    index keeps, for the life of the object, its flat bin ids for each row
    width it has aggregated and its transpose for each source count, so
    reusing one index (Hypergraph.segment_indices) builds each only once.
    """

    n_targets: int
    target_ids: np.ndarray
    source_ids: np.ndarray
    _bins: dict = field(default_factory=dict, init=False, repr=False)
    _transposes: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def from_lists(index_lists: Sequence[Sequence[int]]) -> "SegmentIndex":
        targets: list[int] = []
        sources: list[int] = []
        for t, ids in enumerate(index_lists):
            ordered = sorted(int(i) for i in ids)
            targets.extend([t] * len(ordered))
            sources.extend(ordered)
        return SegmentIndex(
            n_targets=len(index_lists),
            target_ids=np.asarray(targets, dtype=np.int64),
            source_ids=np.asarray(sources, dtype=np.int64),
        )

    def bins(self, width: int) -> np.ndarray:
        """Flat bin id target * width + column of every (pair, column), pair-major."""
        flat = self._bins.get(width)
        if flat is None:
            targets = np.asarray(self.target_ids, dtype=np.int64)[:, None]
            flat = (targets * width + np.arange(width, dtype=np.int64)).ravel()
            self._bins[width] = flat
        return flat

    def transposed(self, n_sources: int) -> "SegmentIndex":
        """The same pairs keyed by source, for n_sources sources.

        A stable sort by source keeps each source's targets in this index's
        pair order, so a scatter through the transpose sums in the order a
        sequential scatter through this index would. The transpose links
        back to this index, so transposing it again builds nothing.
        """
        back = self._transposes.get(n_sources)
        if back is None:
            order = np.argsort(self.source_ids, kind="stable")
            back = SegmentIndex(n_sources, self.source_ids[order], self.target_ids[order])
            back._transposes[self.n_targets] = self
            self._transposes[n_sources] = back
        return back

    def scatter_sum(self, rows: np.ndarray) -> np.ndarray:
        """out[t] = sum of rows[k] over the pairs k with target t, in pair order.

        rows holds one row per pair; a target with no pairs gets a zero row.
        """
        width = rows.shape[1]
        summed = np.bincount(
            self.bins(width), weights=rows.ravel(), minlength=self.n_targets * width
        )
        return summed.reshape(self.n_targets, width)


def segment_mean_weighted(
    x: Tensor,
    index_lists: Sequence[Sequence[int]] | SegmentIndex,
    weights: np.ndarray,
    divisors: np.ndarray,
    tape: Tape | None = None,
) -> Tensor:
    """Weighted gather/scatter mean: out[t] = sum_{s in lists[t]} weights[s]*x[s] / divisors[t].

    Equivalent to the dense product D_l^{-1} A D_r x for the 0/1 incidence
    matrix A implied by index_lists, computed without materializing A.
    Backward distributes weights[s]/divisors[t] of each target gradient row
    back to its contributing source rows. Pass a prebuilt SegmentIndex to
    reuse its cached bin ids and transpose across calls.
    """
    seg = index_lists if isinstance(index_lists, SegmentIndex) else SegmentIndex.from_lists(index_lists)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    divisors = np.asarray(divisors, dtype=np.float64).reshape(-1)
    n_src = x.shape[0]
    if len(weights) != n_src:
        raise ValueError(f"weights length {len(weights)} does not match {n_src} source rows")
    if len(divisors) != seg.n_targets:
        raise ValueError(f"divisors length {len(divisors)} does not match {seg.n_targets} targets")
    if len(seg.source_ids) and (seg.source_ids.min() < 0 or seg.source_ids.max() >= n_src):
        raise ValueError("segment source id out of range")
    _ensure_finite(weights, "segment weights")
    if np.any(divisors <= 0.0):
        raise ValueError("segment divisors must be strictly positive")

    scaled = x.values * weights[:, None]

    def grad_of(g: np.ndarray) -> np.ndarray:
        back = seg.transposed(n_src)
        spread = g / divisors[:, None]
        return back.scatter_sum(spread[back.source_ids]) * weights[:, None]

    return _op(seg.scatter_sum(scaled[seg.source_ids]) / divisors[:, None], tape, (x, grad_of))


def softmax_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    mask: np.ndarray,
    tape: Tape | None = None,
) -> Tensor:
    """Mean negative log-softmax of the true class over the masked rows.

    labels holds a class id per logits row (rows outside mask ignored);
    mask is a non-empty array of row indices. Stabilized by row-max
    subtraction so huge logits do not overflow.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = np.asarray(mask, dtype=np.int64).reshape(-1)
    n_rows, n_classes = logits.shape
    if len(mask) == 0:
        raise ValueError("cross entropy needs a non-empty row mask")
    if mask.min() < 0 or mask.max() >= n_rows:
        raise ValueError("mask row index out of range")
    if len(labels) != n_rows:
        raise ValueError(f"labels length {len(labels)} does not match {n_rows} rows")
    picked = labels[mask]
    if picked.min() < 0 or picked.max() >= n_classes:
        raise ValueError("label out of range for masked row")

    rows = logits.values[mask]
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted[np.arange(len(mask)), picked] - log_norm

    def grad_of(g: np.ndarray) -> np.ndarray:
        probs = np.exp(shifted - log_norm[:, None])
        probs[np.arange(len(mask)), picked] -= 1.0
        probs *= g[0, 0] / len(mask)
        gx = np.zeros_like(logits.values)
        np.add.at(gx, mask, probs)
        return gx

    return _op([[-log_probs.mean()]], tape, (logits, grad_of))


def tensor_sum(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar sum of all entries; handy for reducing to a backward seed."""
    return _op([[x.values.sum()]], tape, (x, lambda g: np.full_like(x.values, g[0, 0])))


_HEADER = struct.Struct("<QQ")


def write_tensor(fh: BinaryIO, values: np.ndarray) -> None:
    """Flat binary layout: rows and cols as little-endian uint64, then float64 data."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("only 2-D arrays are serialized")
    fh.write(_HEADER.pack(arr.shape[0], arr.shape[1]))
    fh.write(arr.astype("<f8").tobytes())


def read_tensor(fh: BinaryIO) -> np.ndarray:
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated tensor header")
    rows, cols = _HEADER.unpack(header)
    payload = fh.read(rows * cols * 8)
    if len(payload) != rows * cols * 8:
        raise ValueError("truncated tensor payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)
