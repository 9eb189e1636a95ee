import numpy as np
import pytest

from tsformer.errors import DimensionError
from tsformer.tensor import (
    RngState,
    add,
    attention,
    mul,
    sub,
    matmul,
    softmax_rows,
    xavier_init,
)


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
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_singleton_row(self):
        assert np.array_equal(softmax_rows(np.array([[123.0]])), np.array([[1.0]]))

    def test_large_inputs_match_high_precision_oracle(self):
        # exp(x - max) / sum computed at 50 decimal digits with mpmath
        out = softmax_rows(np.array([[1000.0, 1000.5]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.37754066879814543536, abs=1e-15)
        assert out[0, 1] == pytest.approx(0.62245933120185456464, abs=1e-15)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rows_sum_to_one(self):
        rng = RngState(3)
        a = rng.uniform(-30, 30, (40, 17))
        sums = softmax_rows(a).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        rng = RngState(4)
        a = rng.uniform(-5, 5, (10, 8))
        shifted = a + 13.25
        assert np.abs(softmax_rows(a) - softmax_rows(shifted)).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            softmax_rows(np.zeros((0, 3)))

    def test_nonnegative(self):
        out = softmax_rows(RngState(5).uniform(-50, 50, (6, 6)))
        assert (out >= 0).all()


class TestElementwise:
    def test_add_zeros_identity(self):
        a = RngState(6).uniform(-2, 2, (3, 4))
        assert np.array_equal(add(a, np.zeros((3, 4))), a)

    def test_mul_ones_identity(self):
        a = RngState(7).uniform(-2, 2, (3, 4))
        assert np.array_equal(mul(a, np.ones((3, 4))), a)

    def test_bias_row_broadcast(self):
        out = add(np.array([[1.0, 2.0]]), np.array([10.0, 20.0]))
        assert np.array_equal(out, np.array([[11.0, 22.0]]))

    def test_sub(self):
        out = sub(np.array([[5.0, 7.0]]), np.array([[1.0, 2.0]]))
        assert np.array_equal(out, np.array([[4.0, 5.0]]))

    def test_non_broadcastable_rejected(self):
        with pytest.raises(DimensionError):
            add(np.ones((3, 4)), np.ones((3,)))

    def test_column_vector_rejected(self):
        with pytest.raises(DimensionError):
            mul(np.ones((3, 4)), np.ones((3, 1)))


class TestAttention:
    def test_matches_per_window_per_head_loop(self):
        # 3 windows of 4 steps, 2 heads of width 2: columns q0 k0 v0 q1 k1 v1
        qkv = RngState(8).uniform(-2, 2, (12, 12))
        out, weights, *_ = attention(qkv, 3, 2, 0.5)
        assert out.shape == (12, 4) and weights.shape == (3, 2, 4, 4)
        for b in range(3):
            rows = qkv[4 * b : 4 * b + 4]
            for h in range(2):
                q, k, v = (rows[:, 6 * h + 2 * i : 6 * h + 2 * i + 2] for i in range(3))
                expected = softmax_rows((q @ k.T) * 0.5)
                assert np.abs(weights[b, h] - expected).max() < 1e-15
                head_out = out[4 * b : 4 * b + 4, 2 * h : 2 * h + 2]
                assert np.abs(head_out - expected @ v).max() < 1e-15

    def test_rows_are_distributions(self):
        _, weights, *_ = attention(RngState(9).uniform(-50, 50, (10, 6)), 2, 1, 1.0)
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
