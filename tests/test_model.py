import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsformer.autodiff import Tape, grad_check
from tsformer.errors import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    ConfigError,
    DimensionError,
    NumericError,
)
from tsformer.model import (
    LAYER_NORM_EPS,
    ModelConfig,
    build_forward,
    forward,
    init_params,
    ModelParams,
    load_params,
    make_param_vars,
    positional_encoding,
    save_params,
    write_attention_csvs,
)
from tsformer.tensor import RngState

from reference_forward import reference_forward


# The op chains of build_forward's layers, so each can be checked alone.

def embed(tape, x, w_e, b_e):
    """Per-step linear embedding: row t of the result is w_e @ x_t + b_e."""
    return tape.linear(x, w_e, b_e)


def multi_head(tape, h, w_qkv, w_o, windows, heads):
    """The attention op, its q/k/v projection and w_o mix included, with
    scores scaled by 1/sqrt(width of h); returns (output, weights)."""
    out, weights = tape.attention(
        h, w_qkv, w_o, windows, heads, 1.0 / math.sqrt(h.value.shape[1])
    )
    return out, weights()


def layer_norm(tape, x, gain, bias):
    return tape.layer_norm(x, gain, bias, LAYER_NORM_EPS)


def ffn(tape, x, w1, b1, w2, b2):
    """Position-wise two-layer network: ReLU(x w1^T + b1) w2^T + b2."""
    return tape.linear(tape.relu(tape.linear(x, w1, b1)), w2, b2)


def run_layer(layer, *arrays):
    """Call a layer function on leaves that need no gradient; return the
    output value, or a tuple of values for a layer with several outputs."""
    tape = Tape()
    out = layer(tape, *(tape.leaf(a) for a in arrays))
    if isinstance(out, tuple):
        return tuple(v.value for v in out)
    return out.value


def heads_of(p, config, block=0):
    """(w_q, w_k, w_v) of every head of one block: views of its w_qkv,
    whose rows are head by head, and q, k, v within a head."""
    hd = config.head_dim
    rows = p[f"block{block}.w_qkv"].reshape(config.n_heads, 3, hd, config.model_dim)
    return [tuple(head) for head in rows]


def run_multi_head(h, w_qkv, w_o, heads):
    """multi_head on one window ``h``; returns (output, weights [heads, T, T])."""
    tape = Tape()
    out, weights = multi_head(tape, tape.leaf(h), tape.leaf(w_qkv), tape.leaf(w_o), 1, heads)
    return out.value, weights[0]


def one_head(h, w_q, w_k, w_v):
    """One attention head: multi_head with a single head and an identity
    mix. Returns (weighted values [T x head_dim], weights [T x T])."""
    out, weights = run_multi_head(h, np.vstack([w_q, w_k, w_v]), np.eye(w_q.shape[0]), 1)
    return out, weights[0]


def tiny_config(**overrides):
    base = dict(window_len=4, input_dim=3, model_dim=8, n_heads=2, ffn_hidden=16, seed=42)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_head_dim(self):
        assert tiny_config().head_dim == 4

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(model_dim=9, n_heads=2)

    def test_bad_extents_rejected(self):
        for bad in (
            dict(window_len=0),
            dict(input_dim=0),
            dict(n_blocks=0),
            dict(ffn_hidden=0),
        ):
            with pytest.raises(ConfigError):
                tiny_config(**bad)

    def test_ffn_hidden_defaults_to_4x(self):
        cfg = ModelConfig(window_len=4, input_dim=2, model_dim=8, n_heads=2)
        assert cfg.ffn_hidden == 32


class TestInitParams:
    def test_deterministic_given_seed(self):
        a = init_params(tiny_config())
        b = init_params(tiny_config())
        assert np.array_equal(a.flat, b.flat)

    def test_seed_changes_weights(self):
        a = init_params(tiny_config(seed=1))
        b = init_params(tiny_config(seed=2))
        assert not np.array_equal(a["w_e"], b["w_e"])

    def test_biases_and_layernorm_affine(self):
        p = init_params(tiny_config())
        assert np.array_equal(p["b_e"], np.zeros(8))
        assert np.array_equal(p["block0.ln_gain"], np.ones(8))
        assert np.array_equal(p["block0.ln_bias"], np.zeros(8))
        assert np.array_equal(p["b_y"], np.zeros(1))

    def test_shapes_match_config(self):
        p = init_params(tiny_config())
        assert p["block0.w_qkv"].shape == (24, 8)  # 3 model_dim x model_dim
        for head in heads_of(p, tiny_config()):
            assert [w.shape for w in head] == [(4, 8)] * 3  # head_dim x model_dim
        assert p["w_e"].shape == (8, 3)
        assert p["block0.w_o"].shape == (8, 8)
        assert p["block0.ffn_w1"].shape == (16, 8)
        assert p["block0.ffn_w2"].shape == (8, 16)
        assert p["w_y"].shape == (1, 8)


class TestModelParams:
    def test_named_views_and_flat_share_memory(self):
        p = ModelParams(tiny_config())
        p["block0.w_o"][1, 2] = 5.0
        assert np.count_nonzero(p.flat) == 1 and 5.0 in p.flat
        p.flat[:] = 7.0
        assert all((arr == 7.0).all() for arr in p.views.values())

    def test_vector_of_the_wrong_length_rejected(self):
        size = init_params(tiny_config()).flat.size
        for bad in (size - 1, size + 1):
            with pytest.raises(DimensionError):
                ModelParams(tiny_config(), np.zeros(bad))


class TestEmbed:
    def test_identity_embedding(self):
        x = RngState(0).uniform(-1, 1, (5, 4))
        out = run_layer(embed, x, np.eye(4), np.zeros(4))
        assert np.allclose(out, x, atol=0)

    def test_zero_input_gives_bias_rows(self):
        b = np.array([1.0, -2.0, 3.0, 0.5])
        out = run_layer(embed, np.zeros((3, 2)), np.zeros((4, 2)), b)
        for row in out:
            assert np.array_equal(row, b)

    def test_matches_per_row_product_oracle(self):
        rng = RngState(1)
        x = rng.uniform(-2, 2, (2, 3))
        w = rng.uniform(-2, 2, (4, 3))
        b = rng.uniform(-1, 1, (4,))
        out = run_layer(embed, x, w, b)
        for t in range(2):
            for j in range(4):
                expected = b[j] + sum(w[j, i] * x[t, i] for i in range(3))
                assert out[t, j] == pytest.approx(expected, abs=1e-12)


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        pe = positional_encoding(3, 6)
        assert np.array_equal(pe[0], np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))

    def test_known_value_sin_of_one(self):
        pe = positional_encoding(2, 4)
        assert pe[1, 0] == pytest.approx(0.84147098480789650665, abs=1e-15)

    def test_entries_bounded(self):
        pe = positional_encoding(50, 32)
        assert (np.abs(pe) <= 1.0).all()

    @pytest.mark.parametrize("t_len,dm", [(1, 1), (5, 7), (16, 32), (64, 64), (3, 9)])
    def test_matches_closed_form(self, t_len, dm):
        pe = positional_encoding(t_len, dm)
        for t in range(t_len):
            for i in range((dm + 1) // 2):
                angle = t / (10000.0 ** (2.0 * i / dm))
                assert abs(pe[t, 2 * i] - math.sin(angle)) < 1e-12
                if 2 * i + 1 < dm:
                    assert abs(pe[t, 2 * i + 1] - math.cos(angle)) < 1e-12

    def test_odd_trailing_column_uses_sin(self):
        pe = positional_encoding(4, 5)
        for t in range(4):
            assert pe[t, 4] == pytest.approx(math.sin(t / 10000.0 ** (4.0 / 5.0)), abs=1e-15)

    def test_rows_pairwise_distinct_up_to_10000(self):
        pe = positional_encoding(10000, 16)
        assert len({row.tobytes() for row in pe}) == 10000

    def test_bad_extents_rejected(self):
        with pytest.raises(DimensionError):
            positional_encoding(0, 4)

    @pytest.mark.parametrize("t_len,dm", [(1, 1), (5, 7), (16, 32)])
    def test_read_only_and_bitwise_closed_form(self, t_len, dm):
        pe = positional_encoding(t_len, dm)
        steps = np.arange(t_len, dtype=np.float64)
        for i in range((dm + 1) // 2):
            angles = steps / (10000.0 ** (2.0 * i / dm))
            assert np.array_equal(pe[:, 2 * i], np.sin(angles))
            if 2 * i + 1 < dm:
                assert np.array_equal(pe[:, 2 * i + 1], np.cos(angles))
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0


class TestAttentionHead:
    def test_single_step_is_identity_on_values(self):
        rng = RngState(2)
        h = rng.uniform(-1, 1, (1, 6))
        w_q, w_k, w_v = (rng.uniform(-1, 1, (3, 6)) for _ in range(3))
        out, weights = one_head(h, w_q, w_k, w_v)
        assert np.array_equal(weights, np.array([[1.0]]))
        assert np.allclose(out, h @ w_v.T, atol=1e-15)

    def test_zero_queries_average_values(self):
        rng = RngState(3)
        h = rng.uniform(-1, 1, (5, 6))
        w_k, w_v = (rng.uniform(-1, 1, (3, 6)) for _ in range(2))
        out, weights = one_head(h, np.zeros((3, 6)), w_k, w_v)
        assert np.abs(weights - 0.2).max() < 1e-15
        v = h @ w_v.T
        assert np.abs(out - v.mean(axis=0)).max() < 1e-12

    def test_two_step_one_dim_hand_oracle(self):
        # d_model = 1, head_dim = 1: every projection is a scalar multiply
        h = np.array([[0.5], [-1.25]])
        w_q, w_k, w_v = np.array([[2.0]]), np.array([[-1.0]]), np.array([[3.0]])
        q, k, v = 2.0 * h, -1.0 * h, 3.0 * h
        expected_weights = np.zeros((2, 2))
        for t in range(2):
            scores = [q[t, 0] * k[u, 0] / math.sqrt(1.0) for u in range(2)]
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            expected_weights[t] = np.array(exps) / sum(exps)
        expected_out = expected_weights @ v
        out, weights = one_head(h, w_q, w_k, w_v)
        assert np.abs(weights - expected_weights).max() < 1e-15
        assert np.abs(out - expected_out).max() < 1e-15

    def test_scale_uses_full_model_dim_not_head_dim(self):
        # with head_dim != model_dim the two scalings are distinguishable;
        # run through the model, whose embedding is the identity here
        cfg = ModelConfig(window_len=3, input_dim=8, model_dim=8, n_heads=4,
                          use_positional_encoding=False, seed=4)
        p = init_params(cfg)
        p["w_e"][...] = np.eye(8)
        h = RngState(4).uniform(-1, 1, (3, 8))
        _, records = forward(h, p, cfg)
        for rec, (w_q, w_k, _) in zip(records, heads_of(p, cfg), strict=True):
            q, k = h @ w_q.T, h @ w_k.T
            logits = (q @ k.T) / math.sqrt(8.0)
            expected = np.exp(logits - logits.max(axis=1, keepdims=True))
            expected /= expected.sum(axis=1, keepdims=True)
            assert np.abs(rec.weights - expected).max() < 1e-12

    def test_rows_are_convex_combinations(self):
        rng = RngState(5)
        h = rng.uniform(-2, 2, (6, 4))
        out, weights = one_head(
            h, rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (2, 4))
        )
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
        assert (weights >= 0).all() and (weights <= 1).all()
        assert out.shape == (6, 2)


class TestMultiHead:
    def test_single_head_identity_mix(self):
        rng = RngState(6)
        h = rng.uniform(-1, 1, (4, 6))
        cfg = ModelConfig(window_len=4, input_dim=2, model_dim=6, n_heads=1, seed=3)
        p = init_params(cfg)
        out, weights = run_multi_head(h, p["block0.w_qkv"], np.eye(6), 1)
        (w_q, w_k, w_v), = heads_of(p, cfg)
        scores = (h @ w_q.T) @ (h @ w_k.T).T / math.sqrt(6.0)
        expected = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(out, expected @ (h @ w_v.T), atol=1e-15)
        assert weights.shape == (1, 4, 4)
        assert np.allclose(weights[0], expected, atol=1e-15)

    def test_output_shape(self):
        cfg = tiny_config()
        p = init_params(cfg)
        h = RngState(7).uniform(-1, 1, (4, 8))
        out, weights = run_multi_head(h, p["block0.w_qkv"], p["block0.w_o"], 2)
        assert out.shape == (4, 8)
        assert weights.shape == (2, 4, 4)

    def test_matches_manual_concat_then_mix(self):
        cfg = tiny_config()
        p = init_params(cfg)
        h = RngState(8).uniform(-1, 1, (4, 8))
        parts = [one_head(h, *head)[0] for head in heads_of(p, cfg)]
        expected = np.hstack(parts) @ p["block0.w_o"]
        out, _ = run_multi_head(h, p["block0.w_qkv"], p["block0.w_o"], 2)
        assert np.abs(out - expected).max() < 1e-12


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = run_layer(layer_norm, np.full((2, 4), 7.0), np.ones(4), np.zeros(4))
        assert np.abs(out).max() < 1e-12

    def test_two_point_row_frozen_value(self):
        out = run_layer(layer_norm, np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2))
        # mean 2, population var 1, eps 1e-5
        assert out[0, 0] == pytest.approx(-0.9999950000374996875, abs=1e-15)
        assert out[0, 1] == pytest.approx(0.9999950000374996875, abs=1e-15)
        assert np.abs(out - np.array([[-1.0, 1.0]])).max() < 1e-4

    def test_output_centered_on_bias_mean(self):
        rng = RngState(9)
        x = rng.uniform(-5, 5, (6, 8))
        bias = rng.uniform(-1, 1, (8,))
        out = run_layer(layer_norm, x, np.ones(8), bias)
        assert np.abs(out.mean(axis=1) - bias.mean()).max() < 1e-9

    def test_gain_bias_shape_check(self):
        with pytest.raises(DimensionError):
            run_layer(layer_norm, np.ones((2, 4)), np.ones(3), np.zeros(4))


class TestFfn:
    def test_zero_network_returns_b2_rows(self):
        b2 = np.array([1.0, -1.0, 2.0])
        out = run_layer(ffn, np.ones((4, 3)), np.zeros((5, 3)), np.zeros(5), np.zeros((3, 5)), b2)
        for row in out:
            assert np.array_equal(row, b2)

    def test_relu_kills_negative_preactivations(self):
        rng = RngState(10)
        w1 = rng.uniform(-1, 1, (5, 3))
        b1 = np.full(5, -1000.0)  # drives every hidden unit below zero
        w2 = rng.uniform(-1, 1, (3, 5))
        b2 = rng.uniform(-1, 1, (3,))
        out = run_layer(ffn, rng.uniform(-1, 1, (4, 3)), w1, b1, w2, b2)
        for row in out:
            assert np.allclose(row, b2, atol=1e-15)

    def test_matches_composed_kernel_oracle(self):
        rng = RngState(11)
        x = rng.uniform(-2, 2, (3, 4))
        w1, b1 = rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6,))
        w2, b2 = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (4,))
        expected = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
        assert np.abs(run_layer(ffn, x, w1, b1, w2, b2) - expected).max() < 1e-14


class TestForward:
    def test_zero_params_predict_zero(self):
        cfg = tiny_config()
        y, _ = forward(np.ones((4, 3)), ModelParams(cfg), cfg)
        assert y == 0.0

    def test_input_shape_check(self):
        cfg = tiny_config()
        with pytest.raises(DimensionError):
            forward(np.ones((3, 3)), init_params(cfg), cfg)

    def test_permuting_earlier_rows_without_pe_is_invariant(self):
        cfg = tiny_config(use_positional_encoding=False, window_len=6)
        p = init_params(cfg)
        rng = RngState(12)
        x = rng.uniform(-1, 1, (6, 3))
        y0, _ = forward(x, p, cfg)
        perm = np.array([3, 0, 4, 2, 1, 5])  # last row stays put
        y1, _ = forward(x[perm], p, cfg)
        assert abs(y0 - y1) < 1e-9

    def test_permutation_changes_output_with_pe(self):
        cfg = tiny_config(window_len=6)
        p = init_params(cfg)
        rng = RngState(13)
        changed = 0
        for _ in range(20):
            x = rng.uniform(-1, 1, (6, 3))
            y0, _ = forward(x, p, cfg)
            perm = np.concatenate([rng.permutation(5), [5]])
            y1, _ = forward(x[perm], p, cfg)
            if abs(y0 - y1) > 1e-9:
                changed += 1
        assert changed >= 19

    def test_attention_records_are_distributions(self):
        cfg = tiny_config(n_blocks=2)
        p = init_params(cfg)
        _, records = forward(RngState(14).uniform(-2, 2, (4, 3)), p, cfg)
        assert [(r.block, r.head) for r in records] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for rec in records:
            assert np.abs(rec.weights.sum(axis=1) - 1.0).max() < 1e-9
            assert (rec.weights >= 0).all() and (rec.weights <= 1).all()

    def test_score_bilinearity(self):
        # doubling every w_q and halving every w_k leaves weights unchanged
        cfg = tiny_config()
        p = init_params(cfg)
        x = RngState(15).uniform(-1, 1, (4, 3))
        _, before = forward(x, p, cfg)
        for b in range(cfg.n_blocks):
            for w_q, w_k, _ in heads_of(p, cfg, b):
                w_q *= 2.0
                w_k *= 0.5
        _, after = forward(x, p, cfg)
        for a, b in zip(before, after):
            assert np.abs(a.weights - b.weights).max() < 1e-9

    def test_deterministic(self):
        cfg = tiny_config()
        p = init_params(cfg)
        x = RngState(16).uniform(-1, 1, (4, 3))
        assert forward(x, p, cfg)[0] == forward(x, p, cfg)[0]

    def test_plain_and_taped_paths_agree_bitwise(self):
        # evaluate() uses the plain path, train() the taped one; they must
        # produce the exact same numbers
        for cfg in (tiny_config(), tiny_config(n_blocks=2, use_residual=True)):
            p = init_params(cfg)
            x = RngState(30).uniform(-2, 2, (4, 3))
            y_plain, recs_plain = forward(x, p, cfg)
            tape = Tape()
            y_var, weights = build_forward(
                tape, x[None], make_param_vars(tape, p, ModelParams(cfg)), cfg
            )
            assert y_plain == y_var.value.item()
            assert len(recs_plain) == cfg.n_blocks * cfg.n_heads
            for rec in recs_plain:
                assert np.array_equal(rec.weights, weights[rec.block]()[0, rec.head])

    def test_matches_straight_line_reference(self):
        cfg = tiny_config()
        p = init_params(cfg)
        x = RngState(17).uniform(-1.5, 1.5, (4, 3))
        y, _ = forward(x, p, cfg)
        assert abs(y - reference_forward(x, p, cfg)[0]) < 1e-10

    def test_matches_reference_with_residual_and_blocks(self):
        cfg = tiny_config(n_blocks=2, use_residual=True, seed=9)
        p = init_params(cfg)
        x = RngState(18).uniform(-1.5, 1.5, (4, 3))
        y, _ = forward(x, p, cfg)
        assert abs(y - reference_forward(x, p, cfg)[0]) < 1e-10

    def test_nan_input_names_first_stage(self):
        cfg = tiny_config()
        p = init_params(cfg)
        p["w_e"][0, 0] = np.nan
        with pytest.raises(NumericError, match="embedding"):
            forward(np.ones((4, 3)), p, cfg)

    def test_nan_in_readout_named(self):
        cfg = tiny_config()
        p = init_params(cfg)
        p["w_y"][0, 0] = np.nan
        with pytest.raises(NumericError, match="readout"):
            forward(np.ones((4, 3)), p, cfg)


class TestBatchedForward:
    CONFIGS = [
        dict(window_len=16, input_dim=1),  # the CLI default
        dict(window_len=6, input_dim=2, model_dim=16, n_heads=4, n_blocks=2,
             use_residual=True, seed=3),
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_stack_matches_forward_window_by_window(self, overrides):
        cfg = ModelConfig(**overrides)
        p = init_params(cfg)
        x = RngState(40).uniform(-2, 2, (7, cfg.window_len, cfg.input_dim))
        for grads in (None, ModelParams(cfg)):
            tape = Tape()
            y, weights = build_forward(tape, x, make_param_vars(tape, p, grads), cfg)
            weights = [block_weights() for block_weights in weights]
            assert y.value.shape == (7, 1)
            assert [w.shape for w in weights] == (
                [(7, cfg.n_heads, cfg.window_len, cfg.window_len)] * cfg.n_blocks
            )
            for i in range(7):
                y_one, records = forward(x[i], p, cfg)
                assert abs(y.value[i, 0] - y_one) < 1e-12
                for rec in records:
                    assert np.abs(weights[rec.block][i, rec.head] - rec.weights).max() < 1e-12

    def test_node_count_does_not_grow_with_batch(self):
        cfg = ModelConfig(window_len=16, input_dim=1)
        p = init_params(cfg)
        counts = []
        for batch in (1, 16):
            tape = Tape()
            x = RngState(41).uniform(-1, 1, (batch, 16, 1))
            y, _ = build_forward(tape, x, make_param_vars(tape, p, ModelParams(cfg)), cfg)
            tape.mse(y, np.zeros((batch, 1)))
            counts.append(len(tape.nodes))
        # 12 leaves, 4 linear, add (PE), attention, layer_norm, relu and mse
        assert counts == [21, 21]

    def test_window_shape_checked(self):
        cfg = tiny_config()
        tape = Tape()
        leaves = make_param_vars(tape, init_params(cfg))
        for shape in ((4, 3), (2, 5, 3), (2, 4, 2)):
            with pytest.raises(DimensionError):
                build_forward(tape, np.ones(shape), leaves, cfg)


class TestConfigSpace:
    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 6), input_dim=st.integers(1, 3), heads=st.integers(1, 3),
        head_dim=st.integers(1, 3), blocks=st.integers(1, 3), residual=st.booleans(),
        pe=st.booleans(), ffn_hidden=st.integers(1, 8), batch=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_taped_untaped_and_reference_agree(
        self, window, input_dim, heads, head_dim, blocks, residual, pe, ffn_hidden, batch, seed
    ):
        cfg = ModelConfig(window_len=window, input_dim=input_dim, model_dim=heads * head_dim,
                          n_heads=heads, ffn_hidden=ffn_hidden, n_blocks=blocks,
                          use_positional_encoding=pe, use_residual=residual, seed=seed)
        p = init_params(cfg)
        x = RngState(seed + 1).uniform(-2, 2, (batch, window, input_dim))
        outputs = []
        for grads in (None, ModelParams(cfg)):
            tape = Tape()
            outputs.append(build_forward(tape, x, make_param_vars(tape, p, grads), cfg))
        (y_plain, w_plain), (y_taped, w_taped) = outputs
        assert np.array_equal(y_plain.value, y_taped.value)
        w_plain = [block_weights() for block_weights in w_plain]
        assert all(np.array_equal(a, b()) for a, b in zip(w_plain, w_taped))
        for i in range(batch):
            y_ref, w_ref = reference_forward(x[i], p, cfg)
            assert abs(y_plain.value[i, 0] - y_ref) < 1e-10
            # every block's weights, the last one's included, though only
            # its last row reaches the prediction
            for block, heads_ref in zip(w_plain, w_ref, strict=True):
                assert np.abs(block[i] - np.array(heads_ref)).max() < 1e-10

    # Fixed, not drawn: drawn narrow configs put ReLU inputs on the kink or
    # hit the rounding floor of central differences on a correct backward.
    @pytest.mark.parametrize("overrides", [
        dict(window_len=1),
        dict(window_len=1, n_blocks=3, use_residual=True),
        dict(window_len=6, model_dim=6, n_heads=1, ffn_hidden=8, input_dim=1),
        dict(window_len=1, n_blocks=2, use_residual=True, input_dim=1),
        # window > 1 with several heads: the last block's last-step backward
        dict(window_len=4, model_dim=8, n_heads=2, ffn_hidden=8, n_blocks=2,
             use_residual=True, input_dim=2),
        dict(window_len=5, model_dim=6, n_heads=3, ffn_hidden=8, input_dim=1),
    ])
    def test_gradients_match_finite_differences(self, overrides):
        # the gradcheck command's model and seeds, on a stack of 3 windows
        cfg = tiny_config(**overrides)
        p = init_params(cfg)
        x = RngState(43).normal(1.0, (3, cfg.window_len, cfg.input_dim))

        def f(tape, leaves):
            y, _ = build_forward(tape, x, leaves, cfg)
            return tape.mse(y, np.zeros((3, 1)))

        report = grad_check(f, p.views)
        assert report.passed, report.errors


class TestCheckpoint:
    def test_round_trip_bitwise_predictions(self, tmp_path):
        cfg = tiny_config()
        p = init_params(cfg)
        x = RngState(19).uniform(-1, 1, (4, 3))
        y_before, _ = forward(x, p, cfg)
        path = str(tmp_path / "model.tstm")
        save_params(p, cfg, path, extra={"note": "round trip"})
        loaded, cfg2, extra = load_params(path)
        assert extra == {"note": "round trip"}
        assert cfg2 == cfg
        y_after, _ = forward(x, loaded, cfg2)
        assert y_before == y_after
        assert np.array_equal(p.flat, loaded.flat)

    def test_payload_is_the_flat_vector(self, tmp_path):
        cfg = tiny_config(n_blocks=2)
        p = init_params(cfg)
        path = tmp_path / "model.tstm"
        save_params(p, cfg, str(path))
        blob = path.read_bytes()
        assert blob[-8 - 8 * p.flat.size : -8] == p.flat.tobytes()

    def test_loaded_vector_is_an_aligned_writable_view(self, tmp_path):
        # notes of 0..8 characters start the payload at every offset mod 8
        cfg = tiny_config()
        p = init_params(cfg)
        path = str(tmp_path / "model.tstm")
        for width in range(9):
            save_params(p, cfg, path, extra={"note": "x" * width})
            loaded, _, _ = load_params(path)
            flat = loaded.flat
            assert flat.dtype == np.float64 and flat.flags.aligned and flat.flags.writeable
            assert np.array_equal(flat, p.flat)
            assert flat.base is not None and flat.base.dtype == np.uint8  # no copy
            loaded["w_y"][...] = 1.0
            assert (flat[-1 - loaded["w_y"].size : -1] == 1.0).all()

    def test_config_round_trips_field_for_field(self, tmp_path):
        cfg = tiny_config(n_blocks=3, use_residual=True, use_positional_encoding=False, seed=7)
        path = str(tmp_path / "model.tstm")
        save_params(init_params(cfg), cfg, path)
        _, cfg2, _ = load_params(path)
        assert cfg2 == cfg

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_config()
        path = str(tmp_path / "model.tstm")
        save_params(init_params(cfg), cfg, path)
        blob = Path(path).read_bytes()
        for cut in (3, 8, len(blob) // 2, len(blob) - 1):
            short = str(tmp_path / f"cut{cut}.tstm")
            with open(short, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises((CheckpointFormatError, CheckpointChecksumError)):
                load_params(short)

    def test_corrupted_byte_rejected_by_checksum(self, tmp_path):
        cfg = tiny_config()
        path = str(tmp_path / "model.tstm")
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = str(tmp_path / "bad.tstm")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointChecksumError):
            load_params(bad)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "not_a_model.tstm")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_params(path)

    def test_unsupported_version_rejected(self, tmp_path):
        cfg = tiny_config()
        path = str(tmp_path / "model.tstm")
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4] = 9
        bad = str(tmp_path / "v9.tstm")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_params(bad)

    def test_save_is_atomic_no_partial_file(self, tmp_path):
        cfg = tiny_config()
        target = tmp_path / "model.tstm"
        save_params(init_params(cfg), cfg, str(target))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "model.tstm"]
        assert leftovers == []


class TestCheckpointMutations:
    """Any flipped byte or truncation gives the saved parameters back or a
    CheckpointError, never another exception."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        cfg = tiny_config(n_blocks=2)
        params = init_params(cfg)
        directory = tmp_path_factory.mktemp("mutations")
        save_params(params, cfg, str(directory / "model.tstm"), extra={"note": "x"})
        return params, (directory / "model.tstm").read_bytes(), directory / "mutated.tstm"

    @staticmethod
    def same_or_rejected(params, path):
        try:
            loaded, _, _ = load_params(str(path))
        except CheckpointError:
            return
        assert np.array_equal(params.flat, loaded.flat)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flipped_byte(self, saved, data):
        params, blob, path = saved
        mutated = bytearray(blob)
        mutated[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(mutated)
        self.same_or_rejected(params, path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated(self, saved, data):
        params, blob, path = saved
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        self.same_or_rejected(params, path)


class TestAttentionExport:
    def test_csv_files_round_trip_weights(self, tmp_path):
        cfg = tiny_config(n_blocks=2)
        p = init_params(cfg)
        _, records = forward(RngState(20).uniform(-1, 1, (4, 3)), p, cfg)
        out = str(tmp_path / "attn")
        paths = write_attention_csvs(records, out)
        assert sorted(p.split("/")[-1] for p in paths) == [
            "attention_block0_head0.csv",
            "attention_block0_head1.csv",
            "attention_block1_head0.csv",
            "attention_block1_head1.csv",
        ]
        for rec, path in zip(records, paths):
            lines = Path(path).read_text().splitlines()
            assert lines[0] == "t0,t1,t2,t3"
            parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            # 17 significant digits round-trip float64 exactly
            assert np.array_equal(parsed, rec.weights)
