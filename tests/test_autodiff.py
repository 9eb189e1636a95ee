import numpy as np
import pytest

from tsformer import tensor
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
        rng = RngState(0)
        a_arr = rng.uniform(-3, 3, (4, 6))
        b_arr = rng.uniform(-3, 3, (6, 2))
        tape = Tape()
        out = tape.matmul(tape.leaf(a_arr), tape.leaf(b_arr))
        assert np.array_equal(out.value, tensor.matmul(a_arr, b_arr))

    def test_softmax_matches_plain_kernel_bitwise(self):
        arr = RngState(1).uniform(-4, 4, (3, 5))
        tape = Tape()
        out = tape.softmax_rows(tape.leaf(arr))
        assert np.array_equal(out.value, tensor.softmax_rows(arr))

    def test_each_record_appends_one_node(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)), requires_grad=True)
        n0 = len(tape)
        tape.relu(a)
        assert len(tape) == n0 + 1
        tape.mul(a, a)
        assert len(tape) == n0 + 2

    def test_ops_on_inputs_without_gradient_record_nothing(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.full((2, 2), 2.0))
        out = tape.mean_all(tape.relu(tape.matmul(a, b)))
        assert len(tape) == 0
        assert out.nid is None and not out.requires_grad
        assert out.value.item() == 4.0

    def test_node_ids_topologically_ordered(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)), requires_grad=True)
        b = tape.relu(a)
        c = tape.add(a, b)
        tape.mean_all(c)
        for nid, node in enumerate(tape.nodes):
            assert all(i < nid for i in node.inputs)

    def test_shape_errors_propagate_from_kernels(self):
        tape = Tape()
        with pytest.raises(DimensionError):
            tape.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))))


class TestBackward:
    def test_identity_derivative(self):
        tape = Tape()
        x = tape.leaf(np.array([[5.0]]), requires_grad=True)
        grads = tape.backward(x)
        assert np.array_equal(grads[x.nid], np.array([[1.0]]))

    def test_square_derivative(self):
        tape = Tape()
        x = tape.leaf(np.array([[3.0]]), requires_grad=True)
        y = tape.sum_all(tape.mul(x, x))
        grads = tape.backward(y)
        assert np.allclose(grads[x.nid], np.array([[6.0]]), atol=1e-12)

    def test_matmul_grad_matches_numeric_and_closed_form(self):
        rng = RngState(2)
        a_arr = rng.uniform(-2, 2, (3, 4))
        b_arr = rng.uniform(-2, 2, (4, 2))

        tape = Tape()
        a = tape.leaf(a_arr, requires_grad=True)
        b = tape.leaf(b_arr)
        grads = tape.backward(tape.sum_all(tape.matmul(a, b)))
        analytic = grads[a.nid]

        closed_form = np.ones((3, 2)) @ b_arr.T
        assert np.allclose(analytic, closed_form, atol=1e-12)

        def f(arrays):
            return float((arrays[0] @ arrays[1]).sum())

        numeric = numeric_gradient(f, [a_arr, b_arr], which=0)
        assert np.abs(analytic - numeric).max() < 1e-8

    def test_accumulation_over_multiple_consumers(self):
        # y = sum(x) + sum(x) must give gradient 2 everywhere
        tape = Tape()
        x = tape.leaf(np.ones((2, 3)), requires_grad=True)
        y = tape.add(tape.sum_all(x), tape.sum_all(x))
        grads = tape.backward(y)
        assert np.array_equal(grads[x.nid], np.full((2, 3), 2.0))

    def test_root_without_node_gives_no_gradients(self):
        tape = Tape()
        w = tape.leaf(np.ones((2, 2)), requires_grad=True)
        root = tape.sum_all(tape.leaf(np.ones((2, 2))))
        assert root.nid is None
        assert tape.backward(root) == [None] * len(tape)
        assert tape.backward(root)[w.nid] is None

    def test_non_scalar_root_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            tape.backward(x)

    def test_foreign_root_rejected(self):
        tape1, tape2 = Tape(), Tape()
        x = tape1.leaf(np.array([[1.0]]), requires_grad=True)
        with pytest.raises(DimensionError):
            tape2.backward(x)

    def test_backward_is_deterministic(self):
        rng = RngState(3)
        arr = rng.uniform(-1, 1, (4, 4))
        tape = Tape()
        x = tape.leaf(arr, requires_grad=True)
        y = tape.mean_all(tape.softmax_rows(tape.relu(x)))
        g1 = tape.backward(y)[x.nid]
        g2 = tape.backward(y)[x.nid]
        assert np.array_equal(g1, g2)

    def test_gradients_match_leaf_shapes(self):
        rng = RngState(15)
        tape = Tape()
        x = tape.leaf(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = tape.leaf(rng.uniform(-1, 1, (4,)), requires_grad=True)
        w = tape.leaf(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        y = tape.mean_all(tape.matmul(tape.add(x, b), w, transpose_b=True))
        grads = tape.backward(y)
        for leaf in (x, b, w):
            assert grads[leaf.nid].shape == leaf.value.shape

    def test_backward_linearity(self):
        rng = RngState(4)
        arr = rng.uniform(-1, 1, (3, 3))

        def run(c):
            tape = Tape()
            x = tape.leaf(arr, requires_grad=True)
            y = tape.scale(tape.mean_all(tape.mul(x, x)), c)
            return tape.backward(y)[x.nid]

        assert np.abs(run(7.0) - 7.0 * run(1.0)).max() < 1e-12


class TestPerOpGradients:
    """Isolated gradient checks for ops with bespoke backward rules."""

    def check(self, f, params, bound=1e-6):
        report = grad_check(f, params, step=1e-6, tolerance=1e-5)
        assert report.max_error < bound, report.errors

    def test_softmax_rows(self):
        rng = RngState(5)
        weights = rng.uniform(-1, 1, (3, 4))

        def f(tape, lv):
            probs = tape.softmax_rows(lv["x"])
            return tape.mean_all(tape.mul(probs, tape.leaf(weights)))

        self.check(f, {"x": rng.uniform(-2, 2, (3, 4))})

    def test_layer_norm(self):
        rng = RngState(6)
        weights = rng.uniform(-1, 1, (4, 5))

        def f(tape, lv):
            out = tape.layer_norm(lv["x"], lv["gain"], lv["bias"], 1e-5)
            return tape.mean_all(tape.mul(out, tape.leaf(weights)))

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
            return tape.sum_all(tape.relu(lv["x"]))

        self.check(f, {"x": x})

    def test_matmul_both_layouts(self):
        rng = RngState(9)

        def f_plain(tape, lv):
            return tape.sum_all(tape.matmul(lv["a"], lv["b"]))

        def f_transposed(tape, lv):
            return tape.sum_all(tape.matmul(lv["a"], lv["bt"], transpose_b=True))

        self.check(f_plain, {"a": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, (4, 2))})
        self.check(f_transposed, {"a": rng.uniform(-1, 1, (3, 4)), "bt": rng.uniform(-1, 1, (2, 4))})

    def test_add_and_mul_with_bias_broadcast(self):
        rng = RngState(10)

        def f(tape, lv):
            out = tape.mul(tape.add(lv["x"], lv["b"]), lv["s"])
            return tape.mean_all(out)

        self.check(
            f,
            {
                "x": rng.uniform(-1, 1, (3, 4)),
                "b": rng.uniform(-1, 1, (4,)),
                "s": rng.uniform(0.5, 1.5, (4,)),
            },
        )

    def test_sub_and_scale(self):
        rng = RngState(11)

        def f(tape, lv):
            return tape.mean_all(tape.scale(tape.sub(lv["a"], lv["b"]), 3.5))

        self.check(f, {"a": rng.uniform(-1, 1, (2, 3)), "b": rng.uniform(-1, 1, (2, 3))})

    def test_concat_and_take_row(self):
        rng = RngState(12)
        weights = rng.uniform(-1, 1, (1, 5))

        def f(tape, lv):
            merged = tape.concat_cols([lv["a"], lv["b"]])
            return tape.sum_all(tape.mul(tape.take_row(merged, 1), tape.leaf(weights)))

        self.check(f, {"a": rng.uniform(-1, 1, (3, 2)), "b": rng.uniform(-1, 1, (3, 3))})


class TestGradCheck:
    def test_quadratic(self):
        rng = RngState(13)

        def f(tape, lv):
            return tape.sum_all(tape.mul(lv["theta"], lv["theta"]))

        report = grad_check(f, {"theta": rng.uniform(-2, 2, (4, 3))}, step=1e-6)
        assert report.max_error < 1e-9

    def test_linear(self):
        rng = RngState(14)
        c = rng.uniform(-3, 3, (3, 3))

        def f(tape, lv):
            return tape.sum_all(tape.mul(lv["theta"], tape.leaf(c)))

        report = grad_check(f, {"theta": rng.uniform(-2, 2, (3, 3))}, step=1e-6)
        assert report.max_error < 1e-10

    def test_constant(self):
        def f(tape, lv):
            return tape.mean_all(tape.leaf(np.full((2, 2), 4.0)))

        report = grad_check(f, {"theta": np.ones((2, 2))}, step=1e-6)
        assert report.max_error < 1e-12

    def test_non_scalar_f_rejected(self):
        def f(tape, lv):
            return tape.relu(lv["theta"])

        with pytest.raises(DimensionError):
            grad_check(f, {"theta": np.ones((2, 2))})

    def test_bad_step_rejected(self):
        def f(tape, lv):
            return tape.mean_all(lv["theta"])

        with pytest.raises(DimensionError):
            grad_check(f, {"theta": np.ones((2, 2))}, step=0.0)
