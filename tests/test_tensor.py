import numpy as np
import pytest

from tsformer.autodiff import Tape
from tsformer.errors import DimensionError
from tsformer.tensor import RngState, xavier_init


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


def attention(h, windows, heads, scale, w_qkv=None, w_o=None):
    """(output, weights [B, heads, T, T]) of Tape.attention. The projections
    default to identities, so the columns of ``h`` are q, k and v."""
    width = h.shape[1]
    w_qkv = np.eye(width) if w_qkv is None else w_qkv
    w_o = np.eye(w_qkv.shape[0] // 3) if w_o is None else w_o
    tape = Tape()
    out, weights = tape.attention(*map(tape.leaf, (h, w_qkv, w_o)), windows, heads, scale)
    return out.value, weights()


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
        rng = RngState(11)
        a = rng.uniform(-1, 1, (7, 9))
        b = rng.uniform(-1, 1, (9, 5))
        assert np.array_equal(matmul(a, b), matmul(a, b))


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
        rng = RngState(3)
        a = rng.uniform(-30, 30, (3, 17, 17))
        sums = softmax_rows(a).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        rng = RngState(4)
        a = rng.uniform(-5, 5, (10, 10))
        shifted = a + 13.25
        assert np.abs(softmax_rows(a) - softmax_rows(shifted)).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            attention(np.zeros((0, 3)), 1, 1, 1.0)

    def test_nonnegative(self):
        out = softmax_rows(RngState(5).uniform(-50, 50, (6, 6)))
        assert (out >= 0).all()


class TestElementwise:
    def test_add_zeros_identity(self):
        a = RngState(6).uniform(-2, 2, (3, 4))
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


class TestAttention:
    def test_matches_per_window_per_head_loop(self):
        # 3 windows of 4 steps, 2 heads of width 2 from h of width 5: the
        # columns of h w_qkv^T are q0 k0 v0 q1 k1 v1; w_o is the identity
        rng = RngState(8)
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
        _, weights = attention(RngState(9).uniform(-50, 50, (10, 6)), 2, 1, 1.0)
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


class TestXavierInit:
    def test_same_seed_bitwise_identical(self):
        a = xavier_init(8, 5, RngState(123))
        b = xavier_init(8, 5, RngState(123))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(xavier_init(8, 5, RngState(1)), xavier_init(8, 5, RngState(2)))

    def test_within_bound(self):
        rows, cols = 13, 29
        bound = np.sqrt(6.0 / (rows + cols))
        w = xavier_init(rows, cols, RngState(99))
        assert (np.abs(w) <= bound).all()

    def test_empirical_mean_near_zero(self):
        w = xavier_init(100, 100, RngState(77))
        assert abs(w.mean()) < 0.02

    def test_bad_extents_rejected(self):
        with pytest.raises(DimensionError):
            xavier_init(0, 3, RngState(0))


class TestRngState:
    def test_repeatable_streams(self):
        a = RngState(42)
        b = RngState(42)
        assert np.array_equal(a.uniform(0, 1, (100,)), b.uniform(0, 1, (100,)))
        assert np.array_equal(a.permutation(50), b.permutation(50))
