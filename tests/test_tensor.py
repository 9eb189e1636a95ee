import numpy as np
import pytest

from tsformer.autodiff import Tape
from tsformer.errors import DimensionError


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
