import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsformer.autodiff import Tape, grad_check
from tsformer.errors import DimensionError
from tsformer.tensor import RngState


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
        rng = RngState(0)
        a_arr = rng.uniform(-3, 3, (4, 6))
        w_arr = rng.uniform(-3, 3, (2, 6))
        tape = Tape()
        out = tape.linear(tape.leaf(a_arr), tape.leaf(w_arr), tape.leaf(np.zeros(2)))
        assert np.array_equal(out.value, np.matmul(a_arr, w_arr.T))

    def test_softmax_matches_plain_kernel_bitwise(self):
        # 2 windows of 3 steps, 2 heads of width 2 from h of width 5: the
        # columns of h w_qkv^T are q0 k0 v0 q1 k1 v1; w_o maps 4 to 3
        rng = RngState(1)
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
        rng = RngState(2)
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
        rng = RngState(seed)
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
        rng = RngState(2)
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
        rng = RngState(16)
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
        rng = RngState(3)
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
        rng = RngState(15)
        tape = Tape()
        bufs = [np.zeros((3, 4)), np.zeros((2,)), np.zeros((2, 4))]
        x, b, w = (tape.leaf(rng.uniform(-1, 1, g.shape), g) for g in bufs)
        y = tape.mse(tape.linear(x, w, b), np.zeros((3, 2)))
        tape.backward(y)
        for leaf, g in zip((x, b, w), bufs):
            assert g.shape == leaf.value.shape and g.any()

    def test_backward_linearity(self):
        rng = RngState(4)
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
        rng = RngState(5)
        target = rng.uniform(-1, 1, (12, 5))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 3, 2, 0.7)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, 12, 3, 2, 2, 5))

    def test_attention_last_step(self):
        # 2 windows of 3 steps, 3 heads of width 2, from h of width 4 to 3;
        # only the last step's row is output, so q gets a gradient at that
        # step alone, while k and v, and so h, get one at every step
        rng = RngState(16)
        target = rng.uniform(-1, 1, (2, 3))

        def f(tape, lv):
            out, _ = tape.attention(lv["h"], lv["w_qkv"], lv["w_o"], 2, 3, 0.7, last_only=True)
            return tape.mse(out, target)

        self.check(f, self.attention_params(rng, 6, 4, 3, 2, 3))

    def test_layer_norm(self):
        rng = RngState(6)
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
        x = RngState(7).uniform(0.1, 2.0, (3, 4)) * np.sign(RngState(8).uniform(-1, 1, (3, 4)))

        def f(tape, lv):
            return tape.mse(tape.relu(lv["x"]), np.full((3, 4), 0.5))

        self.check(f, {"x": x})

    def test_relu_at_the_kink(self):
        # the rule reads relu's output, not its input: out > 0 exactly
        # where x > 0, signed zeros and NaN included
        x = np.array([[0.0, -0.0, -1.5, 2.0], [np.nan, 1e-300, -1e-300, 0.0]])
        g = RngState(17).uniform(-1, 1, x.shape)
        tape = Tape()
        tape.relu(tape.leaf(x, np.zeros_like(x)))
        (gx,) = tape.nodes[-1].rule(g)
        assert np.array_equal(gx, g * (x > 0))

    @pytest.mark.parametrize("width", [5, 1], ids=["wide-bias", "readout-bias"])
    def test_linear(self, width):
        # a bias as wide as an FFN layer's, and the readout's [1]
        rng = RngState(10 + width)
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
        rng = RngState(11)
        target = rng.uniform(-1, 1, (2, 3))

        def f(tape, lv):
            return tape.mse(tape.add(lv["a"], lv["b"]), target)

        self.check(f, {"a": rng.uniform(-1, 1, (2, 3)), "b": rng.uniform(-1, 1, (2, 3))})

    def test_mse(self):
        # a [B x 1] prediction against its targets, as in the training loss
        rng = RngState(19)
        target = rng.uniform(-1, 1, (5, 1))

        def f(tape, lv):
            return tape.mse(lv["pred"], target)

        self.check(f, {"pred": rng.uniform(-1, 1, (5, 1))})

    def test_take_rows(self):
        # the last step of each of 3 windows of 4 steps
        rng = RngState(12)
        target = rng.uniform(-1, 1, (3, 5))

        def f(tape, lv):
            last = tape.take_rows(lv["a"], slice(3, None, 4))
            return tape.mse(last, target)

        self.check(f, {"a": rng.uniform(-1, 1, (12, 5))})


class TestGradCheck:
    def test_quadratic(self):
        rng = RngState(13)

        def f(tape, lv):
            return tape.mse(lv["theta"], np.zeros((4, 3)))

        report = grad_check(f, {"theta": rng.uniform(-2, 2, (4, 3))})
        assert report.max_error < 1e-9

    def test_linear(self):
        rng = RngState(14)
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
        rng = RngState(18)
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
