import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsformer.autodiff import Tape, grad_check
from tsformer.errors import DimensionError


def numeric_gradient(f, arrays, which, step=1e-6):
    """Test-local central-difference oracle over arrays[which]."""
    base = arrays[which]
    grad = np.zeros_like(base)
    flat = grad.ravel()
    for i in range(base.size):
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[which].ravel()[i] += step
        minus[which].ravel()[i] -= step
        flat[i] = (f(plus) - f(minus)) / (2.0 * step)
    return grad


class TestRecording:
    def test_add_identity_value(self):
        tape = Tape()
        a = tape.leaf(np.array([[1.5, -2.0]]))
        z = tape.leaf(np.zeros((1, 2)))
        assert np.array_equal(tape.add(a, z).value, a.value)

    def test_matmul_matches_plain_kernel_bitwise(self):
        # the product inside linear, with a zero bias
        rng = np.random.default_rng(0)
        a_arr = rng.uniform(-3, 3, (4, 6))
        w_arr = rng.uniform(-3, 3, (2, 6))
        tape = Tape()
        out = tape.linear(tape.leaf(a_arr), tape.leaf(w_arr), tape.leaf(np.zeros(2)))
        assert np.array_equal(out.value, np.matmul(a_arr, w_arr.T))

    def test_softmax_matches_plain_kernel_bitwise(self):
        # 2 windows of 3 steps, 2 heads of width 2 from h of width 5: the
        # columns of h w_qkv^T are q0 k0 v0 q1 k1 v1; w_o maps 4 to 3
        rng = np.random.default_rng(1)
        h, w_qkv = rng.uniform(-2, 2, (6, 5)), rng.uniform(-1, 1, (12, 5))
        w_o = rng.uniform(-1, 1, (4, 3))
        tape = Tape()
        out, weights = tape.attention(tape.leaf(h), tape.leaf(w_qkv), tape.leaf(w_o), 2, 2, 0.5)
        weights = weights()
        qkv = np.matmul(h, w_qkv.T)
        q, k, v = qkv.reshape(2, 3, 2, 3, 2).transpose(3, 0, 2, 1, 4)
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * 0.5
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        assert np.array_equal(weights, expected)
        heads_side_by_side = np.matmul(expected, v).transpose(0, 2, 1, 3).reshape(6, 4)
        assert np.array_equal(out.value, np.matmul(heads_side_by_side, w_o))

    def test_last_only_attention_is_the_last_step_of_the_full_op(self):
        # 2 windows of 4 steps, 2 heads of width 3 from h of width 4
        rng = np.random.default_rng(2)
        h, w_qkv, w_o = (
            rng.uniform(-2, 2, (8, 4)), rng.uniform(-1, 1, (18, 4)), rng.uniform(-1, 1, (6, 6))
        )
        tape = Tape()
        leaves = [tape.leaf(a) for a in (h, w_qkv, w_o)]
        full, full_weights = tape.attention(*leaves, 2, 2, 0.5)
        last, weights = tape.attention(*leaves, 2, 2, 0.5, last_only=True)
        assert np.array_equal(weights(), full_weights())
        assert last.value.shape == (2, 6)
        assert np.abs(last.value - full.value[3::4]).max() < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        windows=st.integers(1, 4), steps=st.integers(1, 6), heads=st.integers(1, 3),
        head_dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    )
    def test_last_only_and_full_attention_agree(self, windows, steps, heads, head_dim, seed):
        # the last-step op scores one query per window and head; its full
        # weights, computed on request, are the full op's bit for bit
        width = heads * head_dim
        rng = np.random.default_rng(seed)
        h = rng.uniform(-2, 2, (windows * steps, width))
        w_qkv = rng.uniform(-1, 1, (3 * width, width))
        scale = 1.0 / np.sqrt(width)
        tape = Tape()
        leaves = [tape.leaf(a) for a in (h, w_qkv, np.eye(width))]
        full, full_weights = tape.attention(*leaves, windows, heads, scale)
        last, weights = tape.attention(*leaves, windows, heads, scale, last_only=True)
        assert last.value.shape == (windows, heads * head_dim)
        assert np.abs(last.value - full.value[steps - 1 :: steps]).max() <= 1e-14
        assert np.array_equal(weights(), full_weights())

    def test_each_record_appends_one_node(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)), np.zeros((2, 2)))
        n0 = len(tape.nodes)
        tape.relu(a)
        assert len(tape.nodes) == n0 + 1
        tape.add(a, a)
        assert len(tape.nodes) == n0 + 2

    def test_ops_on_inputs_without_gradient_record_nothing(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.full((2, 2), 2.0))
        out = tape.mse(tape.relu(tape.linear(a, b, tape.leaf(np.zeros(2)))), np.zeros((2, 2)))
        assert len(tape.nodes) == 0
        assert out.nid is None
        assert out.value.item() == 16.0

    def test_node_ids_topologically_ordered(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)), np.zeros((2, 2)))
        b = tape.relu(a)
        c = tape.add(a, b)
        tape.mse(c, np.zeros((2, 2)))
        for nid, node in enumerate(tape.nodes):
            assert all(i < nid for i in node.inputs)

    def test_gradient_buffer_must_match_the_value(self):
        with pytest.raises(DimensionError):
            Tape().leaf(np.ones((2, 2)), np.zeros((2,)))

    def test_shape_errors_propagate_from_kernels(self):
        tape = Tape()
        x, w, b = (tape.leaf(np.ones(shape)) for shape in ((2, 3), (3, 2), (3,)))
        with pytest.raises(DimensionError):
            tape.linear(x, w, b)


def relative_error(got, want):
    """max |got - want| over max |want|: rounding, not an entrywise ratio."""
    return np.abs(got - want).max() / np.abs(want).max()


def attention(h, windows, heads, scale, w_qkv=None, w_o=None):
    """(output, weights [B, heads, T, T]) of Tape.attention, recording
    nothing. The projections default to identities, so the columns of
    ``h`` are q, k and v."""
    width = h.shape[1]
    w_qkv = np.eye(width) if w_qkv is None else w_qkv
    w_o = np.eye(w_qkv.shape[0] // 3) if w_o is None else w_o
    tape = Tape()
    out, weights = tape.attention(*map(tape.leaf, (h, w_qkv, w_o)), windows, heads, scale)
    return out.value, weights()


class TestAttention:
    def test_matches_per_window_per_head_loop(self):
        # 3 windows of 4 steps, 2 heads of width 2 from h of width 5: the
        # columns of h w_qkv^T are q0 k0 v0 q1 k1 v1; w_o is the identity
        rng = np.random.default_rng(8)
        h, w_qkv = rng.uniform(-2, 2, (12, 5)), rng.uniform(-0.5, 0.5, (12, 5))
        out, weights = attention(h, 3, 2, 0.5, w_qkv)
        qkv = h @ w_qkv.T
        assert out.shape == (12, 4) and weights.shape == (3, 2, 4, 4)
        for b in range(3):
            rows = qkv[4 * b : 4 * b + 4]
            for h in range(2):
                q, k, v = (rows[:, 6 * h + 2 * i : 6 * h + 2 * i + 2] for i in range(3))
                scores = (q @ k.T) * 0.5
                expected = np.exp(scores - scores.max(axis=1, keepdims=True))
                expected /= expected.sum(axis=1, keepdims=True)
                assert np.abs(weights[b, h] - expected).max() < 1e-15
                head_out = out[4 * b : 4 * b + 4, 2 * h : 2 * h + 2]
                assert np.abs(head_out - expected @ v).max() < 1e-15

    def test_rows_are_distributions(self):
        _, weights = attention(np.random.default_rng(9).uniform(-50, 50, (10, 6)), 2, 1, 1.0)
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12
        assert (weights >= 0).all()

    @pytest.mark.parametrize("shape,windows,heads", [
        ((6, 12), 4, 2),  # rows do not split into windows
        ((6, 12), 2, 3),  # columns do not split into heads of q, k, v
        ((6, 12), 0, 2),
        ((0, 12), 1, 2),
    ])
    def test_bad_splits_rejected(self, shape, windows, heads):
        with pytest.raises(DimensionError):
            attention(np.ones(shape), windows, heads, 1.0)

    @pytest.mark.parametrize("w_qkv_shape,w_o_shape", [
        ((12, 5), (4, 4)),  # w_qkv is not as wide as h
        ((10, 4), (4, 4)),  # w_qkv's rows do not split into 3 * heads
        ((12, 4), (6, 4)),  # w_o's rows are not heads * head_dim
        ((12, 4), (4,)),  # w_o is not a matrix
    ], ids=["w_qkv-width", "w_qkv-rows", "w_o-rows", "w_o-vector"])
    def test_bad_projections_rejected(self, w_qkv_shape, w_o_shape):
        # h is 2 windows of 3 steps, 4 wide, for 2 heads
        with pytest.raises(DimensionError, match="attention"):
            attention(np.ones((6, 4)), 2, 2, 1.0, np.ones(w_qkv_shape), np.ones(w_o_shape))

    @settings(max_examples=200, deadline=None)
    @given(
        windows=st.integers(1, 4), steps=st.integers(1, 6), heads=st.integers(1, 3),
        head_dim=st.integers(1, 3), shared_rows=st.booleans(), with_offset=st.booleans(),
        residual=st.booleans(), widen=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
    )
    def test_absorbed_last_step_is_the_full_op_at_step_t_minus_1(
        self, windows, steps, heads, head_dim, shared_rows, with_offset, residual, widen, seed,
    ):
        # the last-step op scores and mixes the window rows with its
        # projections absorbed; the full op projects q, k and v for every
        # step. Window order or an index over shared rows, with or without
        # an offset and the skip, and a w_o wider than h when no skip
        # needs its width. Outputs agree to rounding, weights bit for bit,
        # and so does each input's backward rule, given the full op an
        # adjoint that is zero off step T-1
        width = heads * head_dim
        rng = np.random.default_rng(seed)
        rows, index = windows * steps, None
        if shared_rows:
            rows = int(rng.integers(1, windows * steps + 1))
            index = rng.integers(0, rows, (windows, steps))
        params = [rng.uniform(-2, 2, (rows, width)), rng.uniform(-1, 1, (3 * width, width)),
                  rng.uniform(-1, 1, (width, width + (0 if residual else widen)))]
        offset = rng.uniform(-1, 1, (steps, width)) if with_offset else None
        g = rng.uniform(-1, 1, (windows, params[2].shape[1]))
        tape = Tape()
        leaves = [tape.leaf(a, np.zeros_like(a)) for a in params]
        args = (windows, heads, 1.0 / np.sqrt(width))
        full, full_weights = tape.attention(*leaves, *args, False, index, offset, residual)
        full_rule = tape.nodes[-1].rule
        last, weights = tape.attention(*leaves, *args, True, index, offset, residual)
        assert last.value.shape == g.shape
        assert relative_error(last.value, full.value[steps - 1 :: steps]) <= 1e-13
        assert np.array_equal(weights(), full_weights())
        g_full = np.zeros(full.value.shape)
        g_full[steps - 1 :: steps] = g
        got, want = tape.nodes[-1].rule(g), full_rule(g_full)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert relative_error(a, b) <= 1e-12

    @pytest.mark.parametrize("with_offset", [False, True], ids=["no-offset", "offset"])
    def test_absorbed_last_step_forms_no_qkv(self, with_offset):
        # d64 with 2 heads, 16 windows of 16 steps in window order, as a
        # training batch reaches the last block: each pass allocates less
        # than one [B*T x 3d] array, the q/k/v it no longer forms
        windows, steps, width = 16, 16, 64
        rng = np.random.default_rng(26)
        tape = Tape()
        leaves = [tape.leaf(a, np.zeros_like(a)) for a in (
            rng.uniform(-2, 2, (windows * steps, width)), rng.uniform(-1, 1, (3 * width, width)),
            rng.uniform(-1, 1, (width, width)))]
        offset = rng.uniform(-1, 1, (steps, width)) if with_offset else None
        g = rng.uniform(-1, 1, (windows, width))
        tracemalloc.start()
        try:
            tape.attention(*leaves, windows, 2, 0.125, last_only=True, offset=offset)
            before, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tape.nodes[-1].rule(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        qkv_bytes = windows * steps * 3 * width * 8
        assert forward_peak < qkv_bytes and backward_peak < qkv_bytes, (forward_peak, backward_peak)


def softmax_rows(scores):
    """The softmax inside Tape.attention of square score matrices, one
    [T x T] or a stack [B, T, T]: one head per window with q = I and
    k = scores^T, so q k^T at scale 1 is exactly ``scores``."""
    scores = np.asarray(scores, dtype=np.float64)
    stack = scores.reshape((-1,) + scores.shape[-2:])
    windows, steps = stack.shape[:2]
    q = np.broadcast_to(np.eye(steps), stack.shape)
    qkv = np.concatenate([q, stack.transpose(0, 2, 1), np.zeros_like(stack)], axis=2)
    _, weights = attention(qkv.reshape(windows * steps, 3 * steps), windows, 1, 1.0)
    return weights.reshape(scores.shape)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.zeros((3, 3)))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_singleton_row(self):
        assert np.array_equal(softmax_rows(np.array([[123.0]])), np.array([[1.0]]))

    def test_large_inputs_match_high_precision_oracle(self):
        # exp(x - max) / sum computed at 50 decimal digits with mpmath
        out = softmax_rows(np.array([[1000.0, 1000.5], [1000.0, 1000.5]]))
        assert np.isfinite(out).all()
        for row in out:
            assert row[0] == pytest.approx(0.37754066879814543536, abs=1e-15)
            assert row[1] == pytest.approx(0.62245933120185456464, abs=1e-15)
            assert abs(row.sum() - 1.0) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-30, 30, (3, 17, 17))
        sums = softmax_rows(a).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-5, 5, (10, 10))
        shifted = a + 13.25
        assert np.abs(softmax_rows(a) - softmax_rows(shifted)).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            attention(np.zeros((0, 3)), 1, 1, 1.0)

    def test_nonnegative(self):
        out = softmax_rows(np.random.default_rng(5).uniform(-50, 50, (6, 6)))
        assert (out >= 0).all()


# The kernels are Tape ops; these run them on leaves without gradient
# buffers, so nothing is recorded, and return the values.

def matmul(a, b):
    """a @ b, as the product inside linear: a (b^T)^T plus a zero bias."""
    tape = Tape()
    return tape.linear(tape.leaf(a), tape.leaf(b.T), tape.leaf(np.zeros(b.shape[1]))).value


def add(a, b):
    tape = Tape()
    return tape.add(tape.leaf(a), tape.leaf(b)).value


def linear(x, w, b):
    tape = Tape()
    return tape.linear(tape.leaf(x), tape.leaf(w), tape.leaf(b)).value


def mse(pred, target):
    tape = Tape()
    return tape.mse(tape.leaf(pred), target).value


class TestMatmul:
    def test_identity_left(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_identity_right(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_hand_expanded_2x2(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        # [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        assert np.array_equal(matmul(a, b), np.array([[19.0, 22.0], [43.0, 50.0]]))

    def test_zero_annihilator(self):
        out = matmul(np.ones((1, 3)), np.zeros((3, 2)))
        assert out.shape == (1, 2)
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (7, 9))
        b = rng.uniform(-1, 1, (9, 5))
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestElementwise:
    def test_add_zeros_identity(self):
        a = np.random.default_rng(6).uniform(-2, 2, (3, 4))
        assert np.array_equal(add(a, np.zeros((3, 4))), a)

    def test_bias_row_broadcast(self):
        # linear adds its bias row to every row of x w^T
        out = linear(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2), np.array([10.0, 20.0]))
        assert np.array_equal(out, np.array([[11.0, 22.0], [13.0, 24.0]]))

    def test_non_broadcastable_rejected(self):
        with pytest.raises(DimensionError):
            add(np.ones((3, 4)), np.ones((3,)))

    def test_column_vector_rejected(self):
        with pytest.raises(DimensionError):
            add(np.ones((3, 4)), np.ones((3, 1)))

    @pytest.mark.parametrize("op", [add, mse], ids=["add", "mse"])
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 4), (3,)),  # as long as a's rows, not its columns
        ((3, 4), (3, 1)),  # a column
        ((3, 1), (1, 4)),  # an outer broadcast numpy would allow
        ((3, 4), (4,)),  # a bias row over a's columns
        ((3, 1), (3,)),  # [B] targets against [B x 1] predictions
    ], ids=["row", "column", "outer", "bias", "flat"])
    def test_broadcast_guard(self, op, a_shape, b_shape):
        # add and mse take only equal shapes; numpy would broadcast all of
        # these, and a [B] target against [B x 1] would average B^2 terms
        with pytest.raises(DimensionError, match="differ"):
            op(np.ones(a_shape), np.ones(b_shape))

    def test_mse_value(self):
        out = mse(np.array([[5.0], [7.0]]), np.array([[1.0], [2.0]]))
        assert np.array_equal(out, np.array([[(16.0 + 25.0) / 2]]))

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((3, 4), (2, 5), (2,)),  # inner extents disagree
        ((3, 4), (2, 4), (4,)),  # a bias over x's columns, not the output's
        ((3, 4), (2, 4), (1, 2)),  # a bias that is not a vector
        ((3, 4), (1, 4), (2,)),  # the readout's w_y with a bias too wide
        ((3, 4), (1, 4), ()),  # the readout's w_y with a scalar bias
    ], ids=["inner", "bias-width", "bias-row", "readout-wide", "readout-scalar"])
    def test_linear_shape_guard(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError, match="linear"):
            linear(np.ones(x_shape), np.ones(w_shape), np.ones(b_shape))


class TestBackward:
    def test_identity_derivative(self):
        tape = Tape()
        gx = np.zeros((1, 1))
        x = tape.leaf(np.array([[5.0]]), gx)
        tape.backward(x)
        assert np.array_equal(gx, np.array([[1.0]]))

    def test_square_derivative(self):
        tape = Tape()
        gx = np.zeros((1, 1))
        x = tape.leaf(np.array([[3.0]]), gx)
        y = tape.mse(x, np.zeros((1, 1)))
        tape.backward(y)
        assert np.allclose(gx, np.array([[6.0]]), atol=1e-12)

    def test_matmul_grad_matches_numeric_and_closed_form(self):
        rng = np.random.default_rng(2)
        a_arr = rng.uniform(-2, 2, (3, 4))
        b_arr = rng.uniform(-2, 2, (4, 2))

        tape = Tape()
        analytic = np.zeros_like(a_arr)
        a = tape.leaf(a_arr, analytic)
        # the product inside linear, with a zero bias: a b = a (b^T)^T
        out = tape.linear(a, tape.leaf(b_arr.T), tape.leaf(np.zeros(2)))
        tape.backward(tape.mse(out, np.zeros((3, 2))))

        closed_form = 2 * (a_arr @ b_arr) @ b_arr.T / 6
        assert np.allclose(analytic, closed_form, atol=1e-12)

        def f(arrays):
            return float(((arrays[0] @ arrays[1]) ** 2).mean())

        numeric = numeric_gradient(f, [a_arr, b_arr], which=0)
        assert np.abs(analytic - numeric).max() < 1e-8

    def test_accumulation_over_multiple_consumers(self):
        # y = mean((relu(x) + x)^2) at x = 1: relu and add each hand x
        # 2 * 2 / 6, so the gradient is 8/6 everywhere
        tape = Tape()
        gx = np.zeros((2, 3))
        x = tape.leaf(np.ones((2, 3)), gx)
        y = tape.mse(tape.add(tape.relu(x), x), np.zeros((2, 3)))
        tape.backward(y)
        assert np.array_equal(gx, np.full((2, 3), 8.0 / 6))

    def test_pass_through_adjoint_reaching_two_interior_inputs(self):
        # every add hands its own adjoint to both inputs, add(a, b) to a
        # and b. Each of a and b also has a consumer recorded before that
        # add, so it is swept after it and adds to the adjoint that the add
        # handed over.
        rng = np.random.default_rng(16)
        m1, m2, target = (rng.uniform(-1, 1, (4, 4)) for _ in range(3))

        def f(tape, lv):
            a = tape.linear(lv["x"], lv["w"], lv["c"])
            b = tape.linear(lv["y"], lv["w"], lv["c"])
            zero = tape.leaf(np.zeros(4))
            side = tape.add(
                tape.linear(a, tape.leaf(m1), zero), tape.linear(b, tape.leaf(m2), zero)
            )
            return tape.mse(tape.add(tape.add(a, b), side), target)

        shapes = {"x": (4, 3), "y": (4, 3), "w": (4, 3), "c": (4,)}
        report = grad_check(f, {k: rng.uniform(-1, 1, s) for k, s in shapes.items()})
        assert report.max_error < 1e-6, report.errors

    def test_root_without_node_gives_no_gradients(self):
        tape = Tape()
        gw = np.zeros((2, 2))
        tape.leaf(np.ones((2, 2)), gw)
        root = tape.mse(tape.leaf(np.ones((2, 2))), np.zeros((2, 2)))
        assert root.nid is None
        tape.backward(root)
        assert not gw.any()

    def test_non_scalar_root_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            tape.backward(x)

    def test_foreign_root_rejected(self):
        tape1, tape2 = Tape(), Tape()
        x = tape1.leaf(np.array([[1.0]]), np.zeros((1, 1)))
        with pytest.raises(DimensionError):
            tape2.backward(x)

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(3)
        arr = rng.uniform(-1, 1, (4, 6))
        w_qkv, w_o = rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (2, 2))

        def run():
            tape = Tape()
            g = np.zeros_like(arr)
            x = tape.leaf(arr, g)
            out, _ = tape.attention(tape.relu(x), tape.leaf(w_qkv), tape.leaf(w_o), 2, 1, 0.5)
            tape.backward(tape.mse(out, np.zeros((4, 2))))
            return g

        assert np.array_equal(run(), run())

    def test_gradients_match_leaf_shapes(self):
        rng = np.random.default_rng(15)
        tape = Tape()
        bufs = [np.zeros((3, 4)), np.zeros((2,)), np.zeros((2, 4))]
        x, b, w = (tape.leaf(rng.uniform(-1, 1, g.shape), g) for g in bufs)
        y = tape.mse(tape.linear(x, w, b), np.zeros((3, 2)))
        tape.backward(y)
        for leaf, g in zip((x, b, w), bufs):
            assert g.shape == leaf.value.shape and g.any()

    def test_backward_linearity(self):
        rng = np.random.default_rng(4)
        arr = rng.uniform(-1, 1, (3, 3))

        def run(c):
            tape = Tape()
            g = np.zeros_like(arr)
            x = tape.leaf(arr, g)
            # the scalar loss times c, as a 1 x 1 linear layer
            loss = tape.mse(x, np.zeros((3, 3)))
            tape.backward(tape.linear(loss, tape.leaf(np.array([[c]])), tape.leaf(np.zeros(1))))
            return g

        assert np.abs(run(7.0) - 7.0 * run(1.0)).max() < 1e-12


class TestPerOpGradients:
    """Isolated gradient checks for ops with bespoke backward rules."""

    def check(self, f, params, bound=1e-6):
        report = grad_check(f, params)
        assert report.max_error < bound, report.errors

    def attention_params(self, rng, rows, width, heads, head_dim, out_width):
        """h, w_qkv and w_o of one attention op, all three checked."""
        return {
            "h": rng.uniform(-2, 2, (rows, width)),
            "w_qkv": rng.uniform(-1, 1, (3 * heads * head_dim, width)),
            "w_o": rng.uniform(-1, 1, (heads * head_dim, out_width)),
        }

    def test_attention(self):
        # 3 windows of 4 steps, 2 heads of width 2, from h of width 3 to 5
        rng = np.random.default_rng(5)
        target = rng.uniform(-1, 1, (12, 5))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 3, 2, 0.7)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, 12, 3, 2, 2, 5))

    def test_attention_last_step(self):
        # 2 windows of 3 steps, 3 heads of width 2, from h of width 4 to 3;
        # only the last step's row is output, so q gets a gradient at that
        # step alone, while k and v, and so h, get one at every step
        rng = np.random.default_rng(16)
        target = rng.uniform(-1, 1, (2, 3))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 2, 3, 0.7, last_only=True)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, 6, 4, 3, 2, 3))

    def test_layer_norm(self):
        rng = np.random.default_rng(6)
        target = rng.uniform(-1, 1, (4, 5))

        def f(tape, lv):
            out = tape.layer_norm(lv["x"], lv["gain"], lv["bias"], 1e-5)
            return tape.mse(out, target)

        self.check(
            f,
            {
                "x": rng.uniform(-2, 2, (4, 5)),
                "gain": rng.uniform(0.5, 1.5, (5,)),
                "bias": rng.uniform(-0.5, 0.5, (5,)),
            },
        )

    def test_relu(self):
        # keep entries away from the kink so central differences are valid
        x = np.random.default_rng(7).uniform(0.1, 2.0, (3, 4))
        x *= np.sign(np.random.default_rng(8).uniform(-1, 1, (3, 4)))

        def f(tape, lv):
            return tape.mse(tape.relu(lv["x"]), np.full((3, 4), 0.5))

        self.check(f, {"x": x})

    def test_relu_at_the_kink(self):
        # the rule reads relu's output, not its input: out > 0 exactly
        # where x > 0, signed zeros and NaN included
        x = np.array([[0.0, -0.0, -1.5, 2.0], [np.nan, 1e-300, -1e-300, 0.0]])
        g = np.random.default_rng(17).uniform(-1, 1, x.shape)
        tape = Tape()
        tape.relu(tape.leaf(x, np.zeros_like(x)))
        (gx,) = tape.nodes[-1].rule(g)
        assert np.array_equal(gx, g * (x > 0))

    @pytest.mark.parametrize("width", [5, 1], ids=["wide-bias", "readout-bias"])
    def test_linear(self, width):
        # a bias as wide as an FFN layer's, and the readout's [1]
        rng = np.random.default_rng(10 + width)
        target = rng.uniform(-1, 1, (3, width))

        def f(tape, lv):
            return tape.mse(tape.linear(lv["x"], lv["w"], lv["b"]), target)

        self.check(
            f,
            {
                "x": rng.uniform(-1, 1, (3, 4)),
                "w": rng.uniform(-1, 1, (width, 4)),
                "b": rng.uniform(-1, 1, (width,)),
            },
        )

    def test_add(self):
        rng = np.random.default_rng(11)
        target = rng.uniform(-1, 1, (2, 3))

        def f(tape, lv):
            return tape.mse(tape.add(lv["a"], lv["b"]), target)

        self.check(f, {"a": rng.uniform(-1, 1, (2, 3)), "b": rng.uniform(-1, 1, (2, 3))})

    def test_mse(self):
        # a [B x 1] prediction against its targets, as in the training loss
        rng = np.random.default_rng(19)
        target = rng.uniform(-1, 1, (5, 1))

        def f(tape, lv):
            return tape.mse(lv["pred"], target)

        self.check(f, {"pred": rng.uniform(-1, 1, (5, 1))})

    # the residual op's window layouts: 3 windows of 3 steps as h's 9 rows
    # in window order, or gathered by an index from 5 rows, where row 2 is
    # read by all three windows; each with or without a per-step offset
    RESIDUAL_LAYOUTS = {
        "window-order": (9, None),
        "index": (5, np.array([[1, 2, 3], [0, 1, 2], [2, 3, 4]])),
    }

    @pytest.mark.parametrize("last_only", [False, True], ids=["all-steps", "last-step"])
    @pytest.mark.parametrize("with_offset", [False, True], ids=["no-offset", "offset"])
    @pytest.mark.parametrize("layout", list(RESIDUAL_LAYOUTS))
    def test_attention_with_residual(self, layout, with_offset, last_only):
        # the skip's adjoint reaches h at each output step's row, summed
        # over the windows that share a row
        rng = np.random.default_rng(12)
        rows, index = self.RESIDUAL_LAYOUTS[layout]
        offset = rng.uniform(-1, 1, (3, 4)) if with_offset else None
        target = rng.uniform(-1, 1, (3 if last_only else 9, 4))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 3, 2, 0.7,
                                    last_only, index, offset, residual=True)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, rows, 4, 2, 2, 4))

    @pytest.mark.parametrize("last_only", [False, True], ids=["all-steps", "last-step"])
    @pytest.mark.parametrize("with_offset", [False, True], ids=["no-offset", "offset"])
    @pytest.mark.parametrize("layout", list(RESIDUAL_LAYOUTS))
    def test_attention_with_residual_adds_the_window_rows(self, layout, with_offset, last_only):
        # bitwise the plain op's output plus each output step's input row,
        # gathered with its offset
        rng = np.random.default_rng(20)
        rows, index = self.RESIDUAL_LAYOUTS[layout]
        params = self.attention_params(rng, rows, 4, 2, 2, 4)
        offset = rng.uniform(-1, 1, (3, 4)) if with_offset else None
        tape = Tape()
        leaves = [tape.leaf(params[n]) for n in ("h", "w_qkv", "w_o")]
        args = (*leaves, 3, 2, 0.7, last_only, index, offset)
        skipped, skipped_weights = tape.attention(*args, residual=True)
        plain, plain_weights = tape.attention(*args)
        at = np.arange(9).reshape(3, 3) if index is None else index
        window_rows = params["h"][at] + (0.0 if offset is None else offset)
        if last_only:
            window_rows = window_rows[:, -1:]
        assert np.array_equal(skipped.value, plain.value + window_rows.reshape(-1, 4))
        assert np.array_equal(skipped_weights(), plain_weights())

    @pytest.mark.parametrize("last_only", [False, True], ids=["all-steps", "last-step"])
    def test_attention_over_shared_rows(self, last_only):
        # 4 windows of 3 steps over 6 rows, in shuffled order, with a
        # per-step offset: h, w_qkv and w_o all checked, so the shared-row
        # scatter and the offset's projection are
        rng = np.random.default_rng(21)
        index = np.array([[2, 3, 4], [0, 1, 2], [3, 4, 5], [1, 2, 3]])
        offset = rng.uniform(-1, 1, (3, 4))
        target = rng.uniform(-1, 1, (4 if last_only else 12, 5))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 4, 2, 0.7,
                                    last_only, index, offset)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, 6, 4, 2, 2, 5))

    def test_attention_over_shared_rows_is_attention_over_the_windows(self):
        # the gathered op equals the plain op on the copied window rows
        rng = np.random.default_rng(22)
        params = self.attention_params(rng, 6, 4, 2, 2, 5)
        index = np.array([[2, 3, 4], [0, 1, 2], [3, 4, 5]])
        offset = rng.uniform(-1, 1, (3, 4))
        tape = Tape()
        h, w_qkv, w_o = (tape.leaf(params[n]) for n in ("h", "w_qkv", "w_o"))
        shared, shared_weights = tape.attention(h, w_qkv, w_o, 3, 2, 0.7, index=index,
                                                offset=offset)
        copied = tape.leaf((params["h"][index] + offset).reshape(9, 4))
        plain, plain_weights = tape.attention(copied, w_qkv, w_o, 3, 2, 0.7)
        assert np.abs(shared.value - plain.value).max() < 1e-14
        assert np.abs(shared_weights() - plain_weights()).max() < 1e-14

    @pytest.mark.parametrize("last_only", [False, True], ids=["all-steps", "last-step"])
    def test_attention_in_window_order_with_offset(self, last_only):
        # 3 windows of 4 steps as h's 12 rows, in window order, plus a
        # per-step offset and no index: h, w_qkv and w_o all checked, so
        # the offset's projection and the offset rows in w_qkv's gradient are
        rng = np.random.default_rng(24)
        offset = rng.uniform(-1, 1, (4, 3))
        target = rng.uniform(-1, 1, (3 if last_only else 12, 5))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 3, 2, 0.7,
                                    last_only, offset=offset)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, 12, 3, 2, 2, 5))

    def test_attention_in_window_order_is_attention_over_the_windows(self):
        # the offset added per step equals the plain op on h + offset, and
        # an index that names h's rows in order gives the same bits
        rng = np.random.default_rng(25)
        params = self.attention_params(rng, 9, 4, 2, 2, 5)
        offset = rng.uniform(-1, 1, (3, 4))
        tape = Tape()
        h, w_qkv, w_o = (tape.leaf(params[n]) for n in ("h", "w_qkv", "w_o"))
        window, window_weights = tape.attention(h, w_qkv, w_o, 3, 2, 0.7, offset=offset)
        indexed, indexed_weights = tape.attention(h, w_qkv, w_o, 3, 2, 0.7,
                                                  index=np.arange(9).reshape(3, 3), offset=offset)
        copied = tape.leaf((params["h"].reshape(3, 3, 4) + offset).reshape(9, 4))
        plain, plain_weights = tape.attention(copied, w_qkv, w_o, 3, 2, 0.7)
        assert np.array_equal(window.value, indexed.value)
        assert np.array_equal(window_weights(), indexed_weights())
        assert np.abs(window.value - plain.value).max() < 1e-14
        assert np.abs(window_weights() - plain_weights()).max() < 1e-14

    def test_attention_index_shape_checked(self):
        rng = np.random.default_rng(23)
        params = self.attention_params(rng, 6, 4, 2, 2, 5)
        tape = Tape()
        leaves = [tape.leaf(params[n]) for n in ("h", "w_qkv", "w_o")]
        for index, offset, residual in (
            (np.zeros((2, 3), dtype=int), None, False),  # 2 windows, 3 declared
            (np.zeros((3, 3), dtype=int), np.zeros((2, 4)), False),  # 2 offset steps, 3 in index
            (np.zeros((3, 3), dtype=int), np.zeros((3, 5)), False),  # offset wider than h
            (None, np.zeros((3, 4)), False),  # 3 offset steps, 2 per window of h's rows
            (None, None, True),  # a skip needs w_o to keep h's width: 5 columns, not 4
        ):
            with pytest.raises(DimensionError):
                tape.attention(*leaves, 3, 2, 0.7, index=index, offset=offset, residual=residual)


class TestGradCheck:
    def test_quadratic(self):
        rng = np.random.default_rng(13)

        def f(tape, lv):
            return tape.mse(lv["theta"], np.zeros((4, 3)))

        report = grad_check(f, {"theta": rng.uniform(-2, 2, (4, 3))})
        assert report.max_error < 1e-9

    def test_linear(self):
        rng = np.random.default_rng(14)
        c = rng.uniform(-3, 3, (1, 9))

        def f(tape, lv):
            # theta c^T, the sum of theta * c
            return tape.linear(lv["theta"], tape.leaf(c), tape.leaf(np.zeros(1)))

        report = grad_check(f, {"theta": rng.uniform(-2, 2, (1, 9))})
        assert report.max_error < 1e-10

    def test_constant(self):
        def f(tape, lv):
            return tape.mse(tape.leaf(np.full((2, 2), 4.0)), np.zeros((2, 2)))

        report = grad_check(f, {"theta": np.ones((2, 2))})
        assert report.max_error < 1e-12

    def test_caller_arrays_left_bitwise_unchanged(self):
        # the CLI passes views into the model's parameter vector; a
        # transposed view checks that the perturbed copies are contiguous
        rng = np.random.default_rng(18)
        flat = rng.uniform(-1, 1, 18)
        before = flat.copy()
        params = {"a": flat[:12].reshape(4, 3).T, "b": flat[12:]}

        target = rng.uniform(-1, 1, (3, 6))

        def f(tape, lv):
            out = tape.linear(lv["a"], tape.leaf(np.ones((6, 4))), lv["b"])
            return tape.mse(out, target)

        report = grad_check(f, params)
        assert report.max_error < 1e-6, report.errors
        assert np.array_equal(flat, before)

    def test_non_scalar_f_rejected(self):
        def f(tape, lv):
            return tape.relu(lv["theta"])

        with pytest.raises(DimensionError):
            grad_check(f, {"theta": np.ones((2, 2))})
