import numpy as np
import pytest

from tsformer.autodiff import Tape
from tsformer.errors import DimensionError
from tsformer.model import ModelConfig, init_params
from test_autodiff import attention


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
        rng = np.random.default_rng(11)
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


def straight_line_init(cfg):
    """init_params written out: one default_rng(seed) draws every matrix in
    canonical order, w_qkv head block by head block (q, k, v within a head),
    each from U(-b, b) with b = sqrt(6 / (rows + cols))."""
    rng = np.random.default_rng(cfg.seed)
    dp, fh, hd = cfg.model_dim, cfg.ffn_hidden, cfg.head_dim

    def xavier(rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, (rows, cols)).ravel()

    parts = [xavier(dp, cfg.input_dim), np.zeros(dp)]
    for _ in range(cfg.n_blocks):
        parts += [xavier(hd, dp) for _ in range(3 * cfg.n_heads)]
        parts += [xavier(dp, dp), np.ones(dp), np.zeros(dp)]
        parts += [xavier(fh, dp), np.zeros(fh), xavier(dp, fh), np.zeros(dp)]
    parts += [xavier(1, dp), np.zeros(1)]
    return np.concatenate(parts)


class TestXavierInit:
    """The Xavier-uniform draws of init_params."""

    def test_same_seed_bitwise_identical(self):
        # the CLI's default architecture, 3 blocks of 3 heads, and d256 with 8 heads
        for cfg in (
            ModelConfig(window_len=16, input_dim=1, seed=42),
            ModelConfig(window_len=6, input_dim=2, model_dim=12, n_heads=3,
                        ffn_hidden=20, n_blocks=3, seed=7),
            ModelConfig(window_len=16, input_dim=1, model_dim=256, n_heads=8,
                        ffn_hidden=1024, seed=3),
        ):
            assert np.array_equal(init_params(cfg).flat, straight_line_init(cfg)), cfg

    def test_different_seeds_differ(self):
        a, b = (init_params(ModelConfig(window_len=4, input_dim=3, model_dim=8, seed=seed))
                for seed in (1, 2))
        for name, arr in a.views.items():
            if arr.ndim == 2:
                assert (arr != b.views[name]).all(), name

    def test_within_bound(self):
        cfg = ModelConfig(window_len=4, input_dim=3, model_dim=16, n_heads=2,
                          ffn_hidden=24, n_blocks=2, seed=99)
        for name, arr in init_params(cfg).views.items():
            if arr.ndim != 2:
                continue
            blocks = [arr]
            if name.endswith("w_qkv"):
                # each head's q, k and v block has its own bound, wider than
                # the whole [3 model_dim x model_dim] matrix's
                assert np.abs(arr).max() > np.sqrt(6.0 / sum(arr.shape))
                blocks = arr.reshape(-1, cfg.head_dim, cfg.model_dim)
            for w in blocks:
                assert (np.abs(w) <= np.sqrt(6.0 / sum(w.shape))).all(), name

    def test_empirical_mean_near_zero(self):
        # w_e is the first draw: 100 x 100
        cfg = ModelConfig(window_len=1, input_dim=100, model_dim=100, n_heads=1, seed=77)
        assert abs(init_params(cfg).views["w_e"].mean()) < 0.02
