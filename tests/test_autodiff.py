"""Tests for the reverse-mode engine: every op against finite differences
and, for the segment aggregation, against the dense operator it replaces."""

import io
import struct

import numpy as np
import pytest

from hnhn.autodiff import (
    SegmentIndex,
    Tape,
    Tensor,
    add,
    add_bias,
    dropout,
    matmul,
    read_tensor,
    relu,
    row_scale,
    segment_mean_weighted,
    softmax_cross_entropy,
    tensor_sum,
    write_tensor,
)
from hnhn.hypergraph import build_hypergraph
from hnhn.rng import CounterRng


def _numeric_grad(build_loss, t: Tensor, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss wrt every entry of t."""
    flat = t.values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = build_loss().values[0, 0]
        flat[i] = orig - step
        down = build_loss().values[0, 0]
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad.reshape(t.values.shape)


def _check_against_fd(build_loss, tensors, tol: float = 1e-7) -> None:
    tape = Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    for t in tensors:
        assert t.grad is not None
        fd = _numeric_grad(lambda: build_loss(None), t)
        assert np.max(np.abs(t.grad - fd)) < tol


class TestTensor:
    def test_values_are_contiguous_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.values.dtype == np.float64
        assert t.values.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            Tensor([[np.nan]])
        with pytest.raises(FloatingPointError):
            Tensor([[np.inf, 0.0]])

    def test_zero_grad_resets_to_none(self):
        t = Tensor([[1.0]], requires_grad=True)
        t.grad = np.ones((1, 1))
        t.zero_grad()
        assert t.grad is None

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            tape.backward(x)


class TestElementwiseOps:
    def test_matmul_forward_and_grads(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert np.allclose(matmul(a, b).values, a.values @ b.values)
        _check_against_fd(lambda tape: tensor_sum(matmul(a, b, tape), tape), [a, b])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_bias_forward_and_grads(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        assert np.allclose(add_bias(x, b).values, x.values + b.values)
        _check_against_fd(lambda tape: tensor_sum(add_bias(x, b, tape), tape), [x, b])

    def test_add_bias_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            add_bias(Tensor(np.zeros((4, 3))), Tensor(np.zeros((1, 4))))
        with pytest.raises(ValueError):
            add_bias(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))))

    def test_add_forward_and_grads(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert np.allclose(add(a, b).values, a.values + b.values)
        _check_against_fd(lambda tape: tensor_sum(add(a, b, tape), tape), [a, b])

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_relu_forward_and_grads(self):
        # Entries kept away from zero so finite differences stay valid.
        vals = np.array([[1.5, -2.0], [-0.5, 3.0]])
        x = Tensor(vals, requires_grad=True)
        out = relu(x)
        assert np.allclose(out.values, np.maximum(vals, 0.0))
        _check_against_fd(lambda tape: tensor_sum(relu(x, tape), tape), [x])
        assert np.array_equal(x.grad, (vals > 0.0).astype(np.float64))

    def test_row_scale_forward_and_grads(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        s = np.array([2.0, 0.0, -1.0, 0.5])
        assert np.allclose(row_scale(x, s).values, x.values * s[:, None])
        _check_against_fd(lambda tape: tensor_sum(row_scale(x, s, tape), tape), [x])

    def test_row_scale_validation(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            row_scale(x, np.ones(4))
        with pytest.raises(FloatingPointError):
            row_scale(x, np.array([1.0, np.inf, 1.0]))

    def test_tensor_sum(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        tape = Tape()
        loss = tensor_sum(x, tape)
        assert loss.values[0, 0] == 10.0
        tape.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_grads_accumulate_across_reuse(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        tape = Tape()
        loss = tensor_sum(add(x, x, tape), tape)
        tape.backward(loss)
        assert np.array_equal(x.grad, 2.0 * np.ones((1, 2)))


class TestRequiresGrad:
    def test_constant_matmul_operand_gets_no_gradient(self):
        # A constant feature matrix fed to matmul, one fit step per tape:
        # it must neither receive a gradient nor accumulate one across steps.
        x = Tensor(np.arange(12.0).reshape(3, 4))
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        for _ in range(2):
            tape = Tape()
            loss = tensor_sum(matmul(x, w, tape), tape)
            assert loss.requires_grad and len(tape) == 2
            w.zero_grad()
            tape.backward(loss)
            assert x.grad is None
            assert np.array_equal(w.grad, x.values.T @ np.ones((3, 2)))

    def test_ops_on_constants_record_nothing(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((1, 2)))
        tape = Tape()
        out = relu(add(add_bias(matmul(a, a, tape), b, tape), a, tape), tape)
        out = dropout(out, 0.5, training=True, rng=CounterRng(0), tape=tape)
        out = row_scale(out, np.array([2.0, 3.0]), tape)
        assert not softmax_cross_entropy(out, np.array([0, 1]), np.array([0, 1]), tape).requires_grad
        out = segment_mean_weighted(out, [[0, 1]], np.ones(2), np.ones(1), tape)
        assert not tensor_sum(out, tape).requires_grad
        assert len(tape) == 0

    def test_mixed_inputs_propagate_requires_grad(self):
        const = Tensor(np.ones((2, 2)))
        param = Tensor(np.ones((1, 2)), requires_grad=True)
        tape = Tape()
        out = add_bias(const, param, tape)
        assert out.requires_grad
        tape.backward(tensor_sum(out, tape))
        assert const.grad is None
        assert np.array_equal(param.grad, [[2.0, 2.0]])


class TestDropout:
    def test_identity_when_not_training_or_zero_rate(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.5, training=False, rng=CounterRng(0)) is x
        assert dropout(x, 0.0, training=True, rng=CounterRng(0)) is x

    def test_surviving_entries_are_inverted_scaled(self):
        x = Tensor(np.ones((50, 20)))
        out = dropout(x, 0.25, training=True, rng=CounterRng(5))
        vals = out.values.reshape(-1)
        scaled = 1.0 / 0.75
        assert np.all((vals == 0.0) | np.isclose(vals, scaled))
        kept = np.mean(vals != 0.0)
        assert 0.6 < kept < 0.9

    def test_deterministic_for_same_seed(self):
        x = Tensor(np.ones((10, 10)))
        a = dropout(x, 0.5, training=True, rng=CounterRng(9))
        b = dropout(x, 0.5, training=True, rng=CounterRng(9))
        assert np.array_equal(a.values, b.values)

    def test_backward_uses_the_same_mask(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 4)) + 5.0, requires_grad=True)
        tape = Tape()
        out = dropout(x, 0.5, training=True, rng=CounterRng(11), tape=tape)
        loss = tensor_sum(out, tape)
        tape.backward(loss)
        keep = out.values / x.values
        assert np.allclose(x.grad, keep)

    def test_rate_bounds(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dropout(x, 1.0, training=True, rng=CounterRng(0))
        with pytest.raises(ValueError):
            dropout(x, -0.1, training=True, rng=CounterRng(0))


def _dense_operator(lists, n_src, weights, divisors) -> np.ndarray:
    """The matrix D_l^{-1} A D_r that segment_mean_weighted implements."""
    a = np.zeros((len(lists), n_src))
    for t, ids in enumerate(lists):
        for s in ids:
            a[t, s] = 1.0
    return a * np.asarray(weights)[None, :] / np.asarray(divisors)[:, None]


class TestSegmentMeanWeighted:
    LISTS = [[0, 2], [1, 2, 3], [], [3]]
    WEIGHTS = np.array([1.0, 2.0, 0.5, 3.0])
    DIVISORS = np.array([1.5, 5.5, 1.0, 3.0])

    def test_forward_matches_dense_operator(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 3)))
        out = segment_mean_weighted(x, self.LISTS, self.WEIGHTS, self.DIVISORS)
        dense = _dense_operator(self.LISTS, 4, self.WEIGHTS, self.DIVISORS)
        assert np.max(np.abs(out.values - dense @ x.values)) < 1e-12

    def test_empty_target_gets_zero_row(self):
        x = Tensor(np.ones((4, 2)))
        out = segment_mean_weighted(x, self.LISTS, self.WEIGHTS, self.DIVISORS)
        assert np.array_equal(out.values[2], np.zeros(2))

    def test_backward_matches_dense_transpose(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        r = Tensor(rng.normal(size=(3, 1)))
        tape = Tape()
        out = segment_mean_weighted(x, self.LISTS, self.WEIGHTS, self.DIVISORS, tape)
        loss = tensor_sum(matmul(out, r, tape), tape)
        tape.backward(loss)
        dense = _dense_operator(self.LISTS, 4, self.WEIGHTS, self.DIVISORS)
        out_grad = np.ones((len(self.LISTS), 1)) @ r.values.T
        assert np.max(np.abs(x.grad - dense.T @ out_grad)) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        r = Tensor(rng.normal(size=(3, 1)))
        _check_against_fd(
            lambda tape: tensor_sum(
                matmul(
                    segment_mean_weighted(x, self.LISTS, self.WEIGHTS, self.DIVISORS, tape),
                    r,
                    tape,
                ),
                tape,
            ),
            [x],
        )

    def test_from_lists_sorts_sources_within_target(self):
        seg = SegmentIndex.from_lists([[2, 0, 1], [3]])
        assert np.array_equal(seg.source_ids, [0, 1, 2, 3])
        assert np.array_equal(seg.target_ids, [0, 0, 0, 1])
        assert seg.n_targets == 2

    def test_prebuilt_index_matches_lists(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 2)))
        seg = SegmentIndex.from_lists(self.LISTS)
        a = segment_mean_weighted(x, self.LISTS, self.WEIGHTS, self.DIVISORS)
        b = segment_mean_weighted(x, seg, self.WEIGHTS, self.DIVISORS)
        assert np.array_equal(a.values, b.values)

    def test_validation_errors(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError):
            segment_mean_weighted(x, self.LISTS, np.ones(3), self.DIVISORS)
        with pytest.raises(ValueError):
            segment_mean_weighted(x, self.LISTS, self.WEIGHTS, np.ones(2))
        with pytest.raises(ValueError):
            segment_mean_weighted(x, self.LISTS, self.WEIGHTS, np.array([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            segment_mean_weighted(x, [[0, 4]], np.ones(4), np.ones(1))


def _add_at_reference(x, seg, weights, divisors, upstream):
    """The sequential np.add.at scatter segment_mean_weighted must match bit
    for bit: (forward output, gradient of x for the given output gradient)."""
    acc = np.zeros((seg.n_targets, x.shape[1]))
    np.add.at(acc, seg.target_ids, (x * weights[:, None])[seg.source_ids])
    spread = upstream / divisors[:, None]
    gx = np.zeros_like(x)
    np.add.at(gx, seg.source_ids, spread[seg.target_ids])
    return acc / divisors[:, None], gx * weights[:, None]


def _forward_and_grad(x_values, seg, weights, divisors, upstream):
    x = Tensor(x_values, requires_grad=True)
    tape = Tape()
    out = segment_mean_weighted(x, seg, weights, divisors, tape)
    # Recorded last, so it runs first: seeds out.grad with an arbitrary
    # upstream gradient instead of one shaped by a downstream loss.
    tape.record(lambda: setattr(out, "grad", upstream))
    tape.backward(Tensor([[0.0]]))
    return out.values, x.grad


class TestSegmentKernelMatchesAddAt:
    # Node 5 is in no edge: a source in no target of the edge-major index
    # and a target with no sources of the node-major one.
    EDGES = [[0, 2, 3], [1, 2], [3, 4, 0, 2], [2, 4]]
    N = 6

    def _check(self, x_values, seg, weights, divisors, rng):
        upstream = rng.normal(size=(seg.n_targets, x_values.shape[1]))
        out, grad = _forward_and_grad(x_values, seg, weights, divisors, upstream)
        ref_out, ref_grad = _add_at_reference(x_values, seg, weights, divisors, upstream)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)

    def test_lists_with_empty_target_and_unused_source(self):
        rng = np.random.default_rng(20)
        lists = [[4, 0, 2], [], [2, 1], [2]]
        seg = SegmentIndex.from_lists(lists)
        weights = rng.uniform(0.5, 2.0, 6)
        divisors = rng.uniform(0.5, 3.0, 4)
        for width in (1, 7):
            self._check(rng.normal(size=(6, width)), seg, weights, divisors, rng)

    def test_hypergraph_indices_in_both_directions_and_widths(self):
        rng = np.random.default_rng(21)
        h = build_hypergraph(self.EDGES, self.N)
        into_edges, into_nodes = h.segment_indices
        node_w, node_d = rng.uniform(0.5, 2.0, h.n), rng.uniform(0.5, 3.0, h.m)
        edge_w, edge_d = rng.uniform(0.5, 2.0, h.m), rng.uniform(0.5, 3.0, h.n)
        # Widths alternate on the same cached indices, so a cache keyed on
        # anything but the width would hand one width's bins to the other.
        for width in (7, 1, 7, 1):
            self._check(rng.normal(size=(h.n, width)), into_edges, node_w, node_d, rng)
            self._check(rng.normal(size=(h.m, width)), into_nodes, edge_w, edge_d, rng)

    def test_sums_with_many_terms_follow_pair_order(self):
        # Long sums of values spanning many magnitudes round differently in
        # any other order, so equality pins the summation order down.
        rng = np.random.default_rng(22)
        n, targets = 40, 5
        lists = [sorted(rng.choice(n, size=30, replace=False).tolist()) for _ in range(targets)]
        seg = SegmentIndex.from_lists(lists)
        x_values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        self._check(x_values, seg, np.ones(n), np.ones(targets), rng)

    def test_transpose_is_cached_and_links_back(self):
        seg = SegmentIndex.from_lists([[1, 0], [2]])
        back = seg.transposed(3)
        assert back is seg.transposed(3)
        assert back.transposed(2) is seg
        assert np.array_equal(back.target_ids, [0, 1, 2])
        assert np.array_equal(back.source_ids, [0, 0, 1])
        assert seg.bins(2) is seg.bins(2)
        assert np.array_equal(seg.bins(2), [0, 1, 0, 1, 2, 3])


class TestSoftmaxCrossEntropy:
    def test_forward_matches_manual_oracle(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.normal(size=(5, 4)))
        labels = np.array([1, 3, 0, 2, 1])
        mask = np.array([0, 2, 3])
        loss = softmax_cross_entropy(logits, labels, mask)
        expected = 0.0
        for row in mask:
            z = logits.values[row]
            expected -= np.log(np.exp(z[labels[row]]) / np.exp(z).sum())
        expected /= len(mask)
        assert abs(loss.values[0, 0] - expected) < 1e-12

    def test_backward_is_probs_minus_onehot_over_count(self):
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([2, 0, 1, 1])
        mask = np.array([0, 1, 3])
        tape = Tape()
        loss = softmax_cross_entropy(logits, labels, mask, tape)
        tape.backward(loss)
        expected = np.zeros((4, 3))
        for row in mask:
            z = logits.values[row]
            p = np.exp(z - z.max())
            p /= p.sum()
            p[labels[row]] -= 1.0
            expected[row] = p / len(mask)
        assert np.max(np.abs(logits.grad - expected)) < 1e-12
        assert np.array_equal(logits.grad[2], np.zeros(3))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 1, 0])
        mask = np.array([1, 2, 4])
        _check_against_fd(
            lambda tape: softmax_cross_entropy(logits, labels, mask, tape),
            [logits],
        )

    def test_row_max_stabilization_handles_huge_logits(self):
        logits = Tensor([[1000.0, 0.0], [0.0, 1000.0]])
        loss = softmax_cross_entropy(logits, np.array([0, 1]), np.array([0, 1]))
        assert abs(loss.values[0, 0]) < 1e-12

    def test_validation_errors(self):
        logits = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.zeros(3, dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.zeros(3, dtype=int), np.array([3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([0, 5, 0]), np.array([1]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.zeros(2, dtype=int), np.array([0]))


class TestChainedGraph:
    def test_two_layer_composite_against_finite_differences(self):
        # A miniature of the real network: scatter, affine, relu, loss.
        rng = np.random.default_rng(12)
        lists = [[0, 1], [1, 2], [0, 2, 3]]
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        weights = np.array([1.0, 2.0, 1.5, 0.5])
        divisors = np.array([3.0, 3.5, 3.0])
        labels = np.array([0, 1, 1])
        mask = np.array([0, 1, 2])

        def build(tape):
            agg = segment_mean_weighted(x, lists, weights, divisors, tape)
            hidden = relu(add_bias(matmul(agg, w, tape), b, tape), tape)
            return softmax_cross_entropy(hidden, labels, mask, tape)

        _check_against_fd(build, [x, w, b], tol=1e-6)


class TestTensorIo:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(13)
        arr = rng.normal(size=(7, 3))
        buf = io.BytesIO()
        write_tensor(buf, arr)
        buf.seek(0)
        back = read_tensor(buf)
        assert back.shape == (7, 3)
        assert np.array_equal(back, arr)

    def test_multiple_tensors_stream_sequentially(self):
        a, b = np.ones((2, 2)), np.arange(6.0).reshape(3, 2)
        buf = io.BytesIO()
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        assert np.array_equal(read_tensor(buf), a)
        assert np.array_equal(read_tensor(buf), b)

    def test_truncated_header_raises(self):
        buf = io.BytesIO(b"\x01\x02\x03")
        with pytest.raises(ValueError):
            read_tensor(buf)

    def test_truncated_payload_raises(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((4, 4)))
        clipped = io.BytesIO(buf.getvalue()[:-8])
        with pytest.raises(ValueError):
            read_tensor(clipped)

    def test_layout_is_header_then_little_endian_rows(self):
        arr = np.arange(6.0).reshape(2, 3)
        expected = struct.pack("<QQ", 2, 3) + arr.astype("<f8").tobytes()
        for values in (arr, np.asfortranarray(arr), arr.astype(np.float32)):
            buf = io.BytesIO()
            write_tensor(buf, values)
            assert buf.getvalue() == expected

    def test_empty_shapes_round_trip(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            buf = io.BytesIO()
            write_tensor(buf, np.zeros(shape))
            buf.seek(0)
            assert read_tensor(buf).shape == shape

    def test_read_array_is_writable_and_owned(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 2)))
        buf.seek(0)
        back = read_tensor(buf)
        back[0, 0] = 5.0
        assert back.dtype == np.float64 and back.flags.owndata

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            write_tensor(io.BytesIO(), np.ones(3))
