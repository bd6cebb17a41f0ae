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
the backward pass needs, such as the ReLU mask, inside it. The first
gradient an input receives becomes its grad array as it is: grad_of
returns a fresh array, and only an identity pass-through (add, add_bias),
which hands back the output's own gradient, is copied.

A dense layer is one op: matmul takes an optional bias and ReLU as an
epilogue that runs in place on the product. The affine result is checked
for finiteness once, before the ReLU clips it, so an overflow to -inf still
raises; the backward step forms the masked gradient g * (out > 0) once and
derives the bias, weight and input gradients from it. Values, and the
gradients of the dense path below, are bit for bit those of the separate
matmul, add_bias and relu ops, which remain for tests and tools.

A backward step of matmul or segment_mean_weighted touches only the rows
its output gradient reaches. A loss over some rows (the training rows of a
semi-supervised fit) leaves the other rows of every gradient below it exact
zeros, so a step finds its reached rows with one g.any(axis=1) pass and,
when at most half the rows are reached, masks, multiplies and gathers
those rows only; the other rows of the input gradient are +0.0. Gradients
of fewer than ROW_RESTRICT_FLOOR elements, and gradients that reach more
than half the rows, take the dense path. The aggregation's restricted
gradient is the dense one bit for bit; matmul's weight and bias gradients
sum the same nonzero terms grouped differently, so they agree to rounding.

The one non-generic primitive is segment_mean_weighted, a gather/scatter
aggregation over per-target source-id lists. It computes the weighted-mean
message passing step directly from incidence indices, so the caller never
builds the dense source-by-target matrix the operation is equivalent to.
The pairs are ordered by target, and the scatter runs over blocks of whole
targets of about GATHER_BLOCK elements, each one np.take of its source rows
and one np.bincount over flat (target, column) bin ids, which a
SegmentIndex plans once per row width and keeps. A block's rows stay in
cache, where a gather of all pairs at once would page in a fresh
pair-sized array on every call. bincount adds its weights in
input order, so each output entry is summed in the order of the index's
pairs; the backward pass scatters through the transposed index, the same
pairs stably sorted by source, so each gradient entry is summed in that
order too. Both match a sequential np.add.at over the same pairs bit for
bit. The division by the divisors and the backward scaling by the weights
run in place, and unit weights (a zero exponent, the paper's default) skip
the scaling passes altogether, since x * 1.0 == x bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, NamedTuple, Sequence

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
    """Add delta into t.grad; a first delta becomes t.grad itself, uncopied."""
    _ensure_finite(delta, "gradients")
    if t.grad is None:
        t.grad = delta
    else:
        t.grad += delta


def _op(
    values: np.ndarray | Tensor,
    tape: Tape | None,
    *inputs: tuple[Tensor, Callable],
    prepare: Callable | None = None,
) -> Tensor:
    """An op's output, recording its backward step on tape when it needs one.

    values is the output array, or an output Tensor the op has already
    built and checked. Each input is a pair (tensor, grad_of), where grad_of
    maps the output's gradient to that input's. The output requires a
    gradient when any input does, and only then is a step recorded; the
    step accumulates grad_of of the output gradient into each input that
    requires one, in input order. prepare, if given, maps the output
    gradient and the output values once per step to what every grad_of
    receives. A gradient an input takes first is adopted as its grad without
    a copy, unless grad_of handed back the very array it was given (an
    identity pass-through), which another input or the output still holds.
    """
    out = values if isinstance(values, Tensor) else Tensor(values)
    out.requires_grad = any(t.requires_grad for t, _ in inputs)
    if tape is not None and out.requires_grad:
        def backward() -> None:
            if out.grad is None:
                return
            g = out.grad if prepare is None else prepare(out.grad, out.values)
            for t, grad_of in inputs:
                if t.requires_grad:
                    delta = grad_of(g)
                    _accumulate(t, delta.copy() if delta is g and t.grad is None else delta)
        tape.record(backward)
    return out


# Gradients of fewer elements than this always take the dense backward path
# (see _reached_rows): at that size the whole product is cheap, and the any()
# pass that finds the reached rows would cost about what skipping them saves.
ROW_RESTRICT_FLOOR = 65_536


class _Reached(NamedTuple):
    """A matmul's output gradient, ReLU-masked if the op has a ReLU: all of
    it when rows is None, else only the rows that the boolean mask rows
    marks, all others being zero."""

    rows: np.ndarray | None
    grad: np.ndarray


def _reached_rows(g: np.ndarray) -> np.ndarray | None:
    """The rows of g that are not all zero, as a boolean mask, when g has at
    least ROW_RESTRICT_FLOOR elements and at most half its rows are
    reached; None (the dense path) otherwise."""
    if g.size < ROW_RESTRICT_FLOOR:
        return None
    reached = g.any(axis=1)
    return reached if 2 * np.count_nonzero(reached) <= len(reached) else None


def _reached(g: np.ndarray, values: np.ndarray) -> _Reached:
    rows = _reached_rows(g)
    return _Reached(rows, g if rows is None else g[rows])


def _relu_reached(g: np.ndarray, values: np.ndarray) -> _Reached:
    rows = _reached_rows(g)
    if rows is None:
        return _Reached(None, g * (values > 0.0))
    g = g[rows]
    g *= values[rows] > 0.0
    return _Reached(rows, g)


def _spread_rows(r: _Reached, grad: np.ndarray) -> np.ndarray:
    """grad, computed for the reached rows only, as a full gradient."""
    if r.rows is None:
        return grad
    full = np.zeros((len(r.rows), grad.shape[1]))
    full[r.rows] = grad
    return full


def matmul(
    a: Tensor,
    b: Tensor,
    tape: Tape | None = None,
    *,
    bias: Tensor | None = None,
    relu: bool = False,
) -> Tensor:
    """a @ b, optionally followed by + bias and a ReLU, as one op.

    The epilogue runs in place on the product: the bias is added, the
    affine result is checked for finiteness once (before the ReLU, so an
    overflow to -inf still raises), then the ReLU clips it. The values are
    bitwise those of relu(add_bias(matmul(a, b), bias)), and so is every
    gradient of a step that takes the dense path. A step whose output
    gradient reaches at most half the rows (see _reached_rows) masks and
    multiplies those rows only: the input gradient is zero in every other
    row, and the weight and bias gradients sum the same terms without the
    zero ones, which BLAS and NumPy may group differently.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != (1, b.shape[1]):
        raise ValueError(
            f"bias shape {bias.shape} does not broadcast over {(a.shape[0], b.shape[1])}"
        )
    values = a.values @ b.values
    if bias is not None:
        values += bias.values
    out = Tensor(values)
    if relu:
        np.maximum(values, 0.0, out=values)
    inputs = [
        (a, lambda r: _spread_rows(r, r.grad @ b.values.T)),
        (b, lambda r: (a.values if r.rows is None else a.values[r.rows]).T @ r.grad),
    ]
    if bias is not None:
        inputs.append((bias, lambda r: r.grad.sum(axis=0, keepdims=True)))
    return _op(out, tape, *inputs, prepare=_relu_reached if relu else _reached)


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


# Elements per block of SegmentIndex.gather_sum: a block's gathered rows are
# a 512 KB temporary that stays in cache, where one gather over all pairs
# would page in a fresh pair-sized array on every call.
GATHER_BLOCK = 65_536


@dataclass(frozen=True, eq=False)
class SegmentIndex:
    """Flattened (target, source) incidence pairs for segment aggregation.

    Pairs are ordered by target (from_lists also orders each target's
    sources ascending); every reduction sums in pair order, so it is
    order-deterministic. An index keeps, for the life of the object, its
    block plan for each row width it has aggregated and its transpose for
    each source count, so reusing one index (Hypergraph.segment_indices)
    builds each only once.
    """

    n_targets: int
    target_ids: np.ndarray
    source_ids: np.ndarray
    _blocks: dict = field(default_factory=dict, init=False, repr=False)
    _transposes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.target_ids) < 0):
            raise ValueError("segment pairs must be ordered by target")

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

    def blocks(self, width: int) -> list[tuple[slice, np.ndarray, int, int]]:
        """The pairs in blocks of whole targets, for rows of this width.

        Each block (pairs, bins, lo, hi) holds the pairs of targets lo..hi-1,
        about GATHER_BLOCK // width of them, and the flat bin id
        (target - lo) * width + column of each (pair, column), pair-major.
        A target with more pairs than that gets a block of its own, and one
        with no pairs lies inside the block around it. There is always at
        least one block.
        """
        plan = self._blocks.get(width)
        if plan is None:
            starts = np.searchsorted(self.target_ids, np.arange(self.n_targets + 1))
            per_block = max(1, GATHER_BLOCK // max(1, width))
            marks = np.arange(per_block, len(self.target_ids), per_block)
            cuts = np.searchsorted(starts, marks, side="right") - 1
            bounds = [0, *np.unique(cuts[cuts > 0]).tolist(), self.n_targets]
            columns = np.arange(width, dtype=np.int64)
            plan = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                pairs = slice(int(starts[lo]), int(starts[hi]))
                bins = ((self.target_ids[pairs] - lo)[:, None] * width + columns).ravel()
                plan.append((pairs, bins, lo, hi))
            self._blocks[width] = plan
        return plan

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

    def gather_sum(self, values: np.ndarray, sources: np.ndarray | None = None) -> np.ndarray:
        """out[t] = sum of values[s] over the pairs (t, s), in pair order.

        Runs block by block (see blocks): each block gathers the source rows
        of its pairs with one np.take and sums them with one np.bincount,
        which adds in input order. Every target lies in one block, so its
        row is summed in pair order, as one bincount over all pairs would
        sum it. A target with no pairs gets a zero row.

        Given sources, a boolean mask over the source ids, values holds only
        the rows of the marked sources, in id order, and each block skips
        the pairs of unmarked sources. When the unmarked rows of the full
        array are zero this is the full sum bit for bit: a bincount sum
        starts at +0.0 and so is never -0.0, and adding a zero of either
        sign to any other value leaves it as it is.
        """
        width = values.shape[1]
        if sources is not None:
            slots = np.cumsum(sources) - 1
        sums = []
        for pairs, bins, lo, hi in self.blocks(width):
            ids = self.source_ids[pairs]
            if sources is not None:
                kept = sources[ids]
                ids = slots[ids[kept]]
                bins = bins.reshape(-1, width)[kept].ravel()
            rows = np.take(values, ids, axis=0)
            sums.append(np.bincount(bins, weights=rows.ravel(), minlength=(hi - lo) * width))
        flat = sums[0] if len(sums) == 1 else np.concatenate(sums)
        # bincount over no pairs at all returns integer zeros.
        return flat.astype(np.float64, copy=False).reshape(self.n_targets, width)


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
    back to its contributing source rows, skipping the pairs of targets the
    gradient does not reach (see _reached_rows). Pass a prebuilt
    SegmentIndex to reuse its cached bin ids and transpose across calls.
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

    # x * 1.0 == x bit for bit, so unit weights skip the scaling passes.
    unit = bool((weights == 1.0).all())
    scaled = x.values if unit else x.values * weights[:, None]

    def grad_of(g: np.ndarray) -> np.ndarray:
        back = seg.transposed(n_src)
        reached = _reached_rows(g)
        if reached is None:
            summed = back.gather_sum(g / divisors[:, None])
        else:
            summed = back.gather_sum(g[reached] / divisors[reached, None], reached)
        if not unit:
            summed *= weights[:, None]
        return summed

    summed = seg.gather_sum(scaled)
    summed /= divisors[:, None]
    return _op(summed, tape, (x, grad_of))


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
    fh.write(arr.astype("<f8", copy=False).data)


def read_tensor(fh: BinaryIO) -> np.ndarray:
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated tensor header")
    rows, cols = _HEADER.unpack(header)
    arr = np.empty((rows, cols), dtype="<f8")
    if fh.readinto(arr.data) != arr.nbytes:
        raise ValueError("truncated tensor payload")
    return arr.astype(np.float64, copy=False)
