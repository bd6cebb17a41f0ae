"""Tests for the reverse-mode engine: every op against finite differences
and, for the segment aggregation, against the dense operator it replaces."""

import io
import struct

import numpy as np
import pytest

from hnhn import autodiff
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


class TestFusedMatmul:
    """matmul(a, b, bias=, relu=) against relu(add_bias(matmul(a, b), bias))."""

    # a @ b + bias has exact zeros at the ReLU kink ([0, 0], [1, 1]) and
    # negative zeros ([1, 2]); a, b and the bias hold -0.0 entries too.
    A = np.array([[1.0, 2.0], [0.0, -0.0], [3.0, -1.0]])
    B = np.array([[1.0, -1.0, 0.5], [0.5, 2.0, -0.0]])
    BIAS = np.array([[-2.0, 0.0, -0.0]])
    # Weights of the loss, so that every output entry gets its own gradient.
    C = np.array([[0.3, -1.1], [2.5, 0.7], [-0.9, 1.3]])

    def _run(self, fused: bool, relu_on: bool, with_bias: bool, with_tape: bool):
        a = Tensor(self.A, requires_grad=True)
        b = Tensor(self.B, requires_grad=True)
        bias = Tensor(self.BIAS, requires_grad=True) if with_bias else None
        tape = Tape() if with_tape else None
        if fused:
            out = matmul(a, b, tape, bias=bias, relu=relu_on)
            steps = len(tape) if with_tape else 0
        else:
            out = matmul(a, b, tape)
            if with_bias:
                out = add_bias(out, bias, tape)
            if relu_on:
                out = relu(out, tape)
            steps = 0
        if with_tape:
            tape.backward(tensor_sum(matmul(out, Tensor(self.C), tape), tape))
        grads = [t.grad for t in (a, b, bias) if t is not None]
        return out.values, grads, steps

    @pytest.mark.parametrize("relu_on", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("with_tape", [False, True])
    def test_bitwise_equal_to_unfused_ops(self, relu_on, with_bias, with_tape):
        values, grads, steps = self._run(True, relu_on, with_bias, with_tape)
        ref_values, ref_grads, _ = self._run(False, relu_on, with_bias, with_tape)
        assert values.tobytes() == ref_values.tobytes()
        for grad, ref in zip(grads, ref_grads):
            if with_tape:
                assert grad.tobytes() == ref.tobytes()
            else:
                assert grad is None and ref is None
        assert steps == (1 if with_tape else 0)
        if relu_on and with_bias:
            assert values[0, 0] == 0.0 and values[1, 1] == 0.0

    def test_kink_zeros_pass_no_gradient(self):
        _, (_, _, bias_grad), _ = self._run(True, True, True, True)
        # Column 1 is positive only in row 0 and column 0 only in row 2.
        assert bias_grad[0, 0] == self.C[0].sum()
        assert bias_grad[0, 1] == self.C[1].sum()

    def test_overflow_to_minus_inf_raises_before_the_relu(self):
        a = Tensor([[1.0]])
        w = Tensor([[-1.5e308]], requires_grad=True)
        bias = Tensor([[-1.5e308]], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            matmul(a, w, Tape(), bias=bias, relu=True)

    def test_rejects_bad_bias_shape(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), bias=Tensor(np.zeros((1, 3))))


def _backward_from(tape: Tape, out: Tensor, upstream: np.ndarray) -> None:
    """Run tape backward with out's gradient seeded by upstream."""
    # Recorded last, so it runs first: seeds out.grad with an arbitrary
    # upstream gradient instead of one shaped by a downstream loss.
    tape.record(lambda: setattr(out, "grad", upstream))
    tape.backward(Tensor([[0.0]]))


def _dense_matmul_grads(a, b, bias, relu_on, upstream):
    """The dense backward of matmul(a, b, bias=, relu=): the input, weight
    and bias gradients for the output gradient upstream."""
    values = a @ b if bias is None else a @ b + bias
    g = upstream * (values > 0.0) if relu_on else upstream
    return g @ b.T, a.T @ g, g.sum(axis=0, keepdims=True)


def _within(grad, ref, rel=1e-12):
    """grad equals ref up to rel times ref's largest magnitude."""
    return np.max(np.abs(grad - ref), initial=0.0) <= rel * np.max(np.abs(ref), initial=0.0)


class TestRestrictedMatmulBackward:
    """The row-restricted matmul backward against the dense formula."""

    N, K, W = 10, 6, 8
    # (rows the output gradient reaches, whether the step restricts to them)
    PATTERNS = {
        "no zero rows": (list(range(N)), False),
        "one live row": ([3], True),
        "just under half": ([0, 2, 5, 9], True),
        "exactly half": ([0, 1, 4, 7, 8], True),
        "just over half": ([0, 1, 2, 4, 7, 8], False),
        "all zero": ([], True),
    }

    def _run(self, live, relu_on, with_bias, constant_a, n=N, w=W, seed=41):
        rng = np.random.default_rng(seed)
        # The pre-activations are about half negative, so the ReLU masks
        # entries inside the reached rows too.
        a_values = rng.normal(size=(n, self.K))
        b_values = rng.normal(size=(self.K, w))
        bias_values = rng.normal(size=(1, w)) if with_bias else None
        upstream = np.zeros((n, w))
        upstream[live] = rng.normal(size=(len(live), w))
        # Zero rows may hold -0.0 and still carry no gradient.
        upstream[[r for r in range(n) if r not in live][:1], :3] = -0.0
        a = Tensor(a_values, requires_grad=not constant_a)
        b = Tensor(b_values, requires_grad=True)
        bias = Tensor(bias_values, requires_grad=True) if with_bias else None
        tape = Tape()
        out = matmul(a, b, tape, bias=bias, relu=relu_on)
        _backward_from(tape, out, upstream)
        ref = _dense_matmul_grads(a_values, b_values, bias_values, relu_on, upstream)
        grads = (a.grad, b.grad, bias.grad if with_bias else None)
        return grads, ref

    @pytest.mark.parametrize("pattern", PATTERNS.values(), ids=PATTERNS.keys())
    @pytest.mark.parametrize("relu_on", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("constant_a", [False, True])
    def test_matches_dense_backward(
        self, pattern, relu_on, with_bias, constant_a, monkeypatch, restricted_steps
    ):
        monkeypatch.setattr(autodiff, "ROW_RESTRICT_FLOOR", 1)
        live, restricts = pattern
        (ga, gb, gbias), (ref_a, ref_b, ref_bias) = self._run(live, relu_on, with_bias, constant_a)
        assert restricted_steps == [restricts]
        if constant_a:
            assert ga is None
        pairs = [(gb, ref_b)] + ([] if constant_a else [(ga, ref_a)])
        pairs += [(gbias, ref_bias)] if with_bias else []
        for grad, ref in pairs:
            if restricts:
                assert _within(grad, ref)
            else:
                assert grad.tobytes() == ref.tobytes()
        if restricts and not constant_a:
            dead = [r for r in range(self.N) if r not in live]
            assert (ga[dead] == 0.0).all() and not np.signbit(ga[dead]).any()

    def test_below_the_size_floor_is_the_dense_formula_bitwise(self, restricted_steps):
        # 16 rows, one reached: one column short of the floor the step runs
        # dense and matches the formula bit for bit; at the floor it restricts.
        floor = autodiff.ROW_RESTRICT_FLOOR
        for width, restricts in ((floor // 16 - 1, False), (floor // 16, True)):
            (ga, gb, gbias), ref = self._run([5], True, True, False, n=16, w=width, seed=42)
            assert restricted_steps[-1] == restricts
            for grad, expected in zip((ga, gb, gbias), ref):
                if restricts:
                    assert _within(grad, expected)
                else:
                    assert grad.tobytes() == expected.tobytes()


class TestGradientAdoption:
    """A first gradient is adopted uncopied, except an identity pass-through."""

    @pytest.mark.parametrize("op", ["add", "add_bias"])
    def test_one_gradient_handed_to_two_inputs_is_not_shared(self, op):
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        other = Tensor(rng.normal(size=(2, 3) if op == "add" else (1, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)))
        tape = Tape()
        # x feeds a matmul recorded first, so its backward step adds into
        # x.grad after the pass-through has handed x the output's gradient.
        early = matmul(x, c, tape)
        y = add(x, other, tape) if op == "add" else add_bias(x, other, tape)
        loss = tensor_sum(add(y, early, tape), tape)
        tape.backward(loss)
        assert not np.shares_memory(x.grad, y.grad)
        if op == "add":
            assert not np.shares_memory(x.grad, other.grad)
            assert np.array_equal(other.grad, np.ones((2, 3)))
        else:
            assert np.array_equal(other.grad, [[2.0, 2.0, 2.0]])
        assert np.array_equal(y.grad, np.ones((2, 3)))
        expected = np.ones((2, 3))
        expected += np.ones((2, 3)) @ c.values.T
        assert np.array_equal(x.grad, expected)

    def test_multiple_consumers_sum_in_tape_order(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-6, 6, size=(3, 4)), requires_grad=True)
        cs = [Tensor(rng.normal(size=(4, 4)) * 10.0 ** k) for k in (-5, 0, 5)]
        tape = Tape()
        outs = [matmul(x, c, tape) for c in cs]
        loss = tensor_sum(add(add(outs[0], outs[1], tape), outs[2], tape), tape)
        tape.backward(loss)
        # The tape runs backward, so the last consumer's gradient comes first.
        deltas = [np.ones((3, 4)) @ c.values.T for c in cs]
        expected = deltas[2].copy()
        expected += deltas[1]
        expected += deltas[0]
        assert x.grad.tobytes() == expected.tobytes()


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

    def test_index_without_pairs_gives_zero_rows(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        tape = Tape()
        out = segment_mean_weighted(x, [[], []], self.WEIGHTS, np.ones(2), tape)
        _backward_from(tape, out, np.ones((2, 2)))
        assert out.values.dtype == np.float64 and np.array_equal(out.values, np.zeros((2, 2)))
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, np.zeros((4, 2)))

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
    _backward_from(tape, out, upstream)
    return out.values, x.grad


def _scaling_reference(x, seg, weights, divisors, upstream):
    """The aggregation as one bincount over all pairs, with its scaling
    passes always on: (forward output, gradient of x for the upstream)."""

    def scatter(index, rows):
        width = rows.shape[1]
        bins = (index.target_ids[:, None] * width + np.arange(width)).ravel()
        summed = np.bincount(bins, weights=rows.ravel(), minlength=index.n_targets * width)
        return summed.reshape(index.n_targets, width)

    back = seg.transposed(x.shape[0])
    out = scatter(seg, (x * weights[:, None])[seg.source_ids]) / divisors[:, None]
    spread = upstream / divisors[:, None]
    return out, scatter(back, spread[back.source_ids]) * weights[:, None]


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

    def test_unit_weights_match_the_scaling_formula(self):
        # Unit weights skip the scaling passes; x * 1.0 is x bit for bit.
        rng = np.random.default_rng(23)
        h = build_hypergraph(self.EDGES, self.N)
        for seg, n_src in zip(h.segment_indices, (h.n, h.m)):
            x_values = rng.normal(size=(n_src, 5))
            x_values[0, :2] = -0.0
            divisors = rng.uniform(0.5, 3.0, seg.n_targets)
            upstream = rng.normal(size=(seg.n_targets, 5))
            out, grad = _forward_and_grad(x_values, seg, np.ones(n_src), divisors, upstream)
            ref_out, ref_grad = _scaling_reference(x_values, seg, np.ones(n_src), divisors, upstream)
            assert out.tobytes() == ref_out.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_transpose_is_cached_and_links_back(self):
        seg = SegmentIndex.from_lists([[1, 0], [2]])
        back = seg.transposed(3)
        assert back is seg.transposed(3)
        assert back.transposed(2) is seg
        assert np.array_equal(back.target_ids, [0, 1, 2])
        assert np.array_equal(back.source_ids, [0, 0, 1])
        assert seg.blocks(2) is seg.blocks(2)
        ((pairs, bins, lo, hi),) = seg.blocks(2)
        assert (pairs, lo, hi) == (slice(0, 3), 0, 2)
        assert np.array_equal(bins, [0, 1, 0, 1, 2, 3])

    def test_many_blocks_match_one_bincount_and_add_at(self, monkeypatch):
        # Blocks of 3 rows of width 2: target 2 (seven pairs) gets a block of
        # its own, and the empty targets 1, 4 and 9 lie inside blocks.
        monkeypatch.setattr(autodiff, "GATHER_BLOCK", 6)
        rng = np.random.default_rng(24)
        lists = [[0, 3], [], [1, 2, 3, 4, 5, 6, 7], [2], [], [0, 5], [6], [1, 7], [3, 4], []]
        seg = SegmentIndex.from_lists(lists)
        weights = rng.uniform(0.5, 2.0, 8)
        divisors = rng.uniform(0.5, 3.0, len(lists))
        x_values = rng.normal(size=(8, 2)) * 10.0 ** rng.integers(-8, 8, size=(8, 1))
        upstream = rng.normal(size=(len(lists), 2))
        out, grad = _forward_and_grad(x_values, seg, weights, divisors, upstream)
        for ref_out, ref_grad in (
            _scaling_reference(x_values, seg, weights, divisors, upstream),
            _add_at_reference(x_values, seg, weights, divisors, upstream),
        ):
            assert out.tobytes() == ref_out.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
        bounds = [(lo, hi) for _, _, lo, hi in seg.blocks(2)]
        assert len(bounds) > 3 and (2, 3) in bounds
        assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
        assert bounds[0][0] == 0 and bounds[-1][1] == len(lists)

    def test_pairs_must_be_ordered_by_target(self):
        with pytest.raises(ValueError, match="ordered by target"):
            SegmentIndex(2, np.array([1, 0]), np.array([0, 1]))


class TestRestrictedAggregationBackward:
    """The aggregation backward over the reached targets only, bit for bit
    the full back.gather_sum path."""

    # Target 1 is empty and source 5 is in no target.
    LISTS = [[4, 0, 2], [], [2, 1], [2], [3, 0]]
    N = 6
    # Reached targets, at most half of them; [1, 2] includes the empty one.
    REACHED = {"first and last": [0, 4], "empty and one": [1, 2], "one": [3], "none": []}

    @staticmethod
    def _full_path(seg, n_src, weights, divisors, upstream):
        return seg.transposed(n_src).gather_sum(upstream / divisors[:, None]) * weights[:, None]

    @pytest.mark.parametrize("reached", REACHED.values(), ids=REACHED.keys())
    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("width", [1, 7])
    def test_matches_full_gather_bitwise(
        self, reached, unit, width, monkeypatch, restricted_steps
    ):
        monkeypatch.setattr(autodiff, "ROW_RESTRICT_FLOOR", 1)
        rng = np.random.default_rng(43)
        seg = SegmentIndex.from_lists(self.LISTS)
        weights = np.ones(self.N) if unit else rng.uniform(0.5, 2.0, self.N)
        divisors = rng.uniform(0.5, 3.0, len(self.LISTS))
        upstream = np.zeros((len(self.LISTS), width))
        upstream[reached] = rng.normal(size=(len(reached), width))
        # A zero row of -0.0 entries still carries no gradient.
        upstream[[t for t in range(len(self.LISTS)) if t not in reached][0]] = -0.0
        x_values = rng.normal(size=(self.N, width))
        _, grad = _forward_and_grad(x_values, seg, weights, divisors, upstream)
        assert restricted_steps == [True]
        # Byte equality also pins the sign of every zero.
        assert grad.tobytes() == self._full_path(seg, self.N, weights, divisors, upstream).tobytes()
        _, ref_grad = _add_at_reference(x_values, seg, weights, divisors, upstream)
        assert grad.tobytes() == ref_grad.tobytes()

    def test_more_than_half_reached_runs_dense(self, monkeypatch, restricted_steps):
        monkeypatch.setattr(autodiff, "ROW_RESTRICT_FLOOR", 1)
        rng = np.random.default_rng(44)
        seg = SegmentIndex.from_lists(self.LISTS)
        upstream = np.zeros((len(self.LISTS), 3))
        upstream[[0, 2, 4]] = rng.normal(size=(3, 3))
        _forward_and_grad(rng.normal(size=(self.N, 3)), seg, np.ones(self.N), np.ones(5), upstream)
        assert restricted_steps == [False]

    def test_many_blocks_skip_the_unmarked_sources(self, monkeypatch):
        # Blocks of 3 rows of width 2 (see the many-blocks test above), with
        # marked sources in some blocks and none in others.
        monkeypatch.setattr(autodiff, "GATHER_BLOCK", 6)
        rng = np.random.default_rng(45)
        lists = [[0, 3], [], [1, 2, 3, 4, 5, 6, 7], [2], [], [0, 5], [6], [1, 7], [3, 4], []]
        seg = SegmentIndex.from_lists(lists)
        marked = np.zeros(8, dtype=bool)
        marked[[1, 6]] = True
        values = np.zeros((8, 2))
        values[marked] = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-8, 8, size=(2, 1))
        summed = seg.gather_sum(values[marked], marked)
        assert summed.tobytes() == seg.gather_sum(values).tobytes()
        assert len(seg.blocks(2)) > 3


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
