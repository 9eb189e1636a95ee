import collections
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from tsformer import autodiff, model, training
from tsformer.autodiff import Tape
from tsformer.data import TimeSeriesDataset, make_windows, synth_sine, fit_normalizer
from tsformer.errors import ConfigError, DataError, DimensionError, NumericError
from tsformer.model import (
    ModelConfig,
    ModelParams,
    build_forward,
    forward,
    init_params,
    make_param_vars,
)
from tsformer.tensor import RngState
from tsformer.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate,
    export_report,
    mae,
    mse,
    sgd_step,
    train,
)


def tiny_config(**overrides):
    base = dict(window_len=4, input_dim=1, model_dim=8, n_heads=2, ffn_hidden=16, seed=42)
    base.update(overrides)
    return ModelConfig(**base)


def sine_dataset(n=30, window=4, seed=0):
    series = synth_sine(n, 8.0, 0.0, seed)
    return make_windows(fit_normalizer(series).apply(series), window, 1)


def uniform_grads(cfg, seed, bound):
    """A gradient vector in ``cfg``'s layout, drawn uniform in +-bound."""
    grads = ModelParams(cfg)
    grads.flat[:] = RngState(seed).uniform(-bound, bound, grads.flat.shape)
    return grads


def empty_dataset():
    return TimeSeriesDataset(np.zeros((0, 4, 1)), np.zeros(0))


def scored_query_rows(monkeypatch):
    """A list that gains, per softmax computed inside ``Tape.attention``
    or by the weights function it returns, the number of query rows it
    scores per window and head."""
    rows = []
    softmax = autodiff._softmax_scores

    def counting_softmax(q, k, scale):
        rows.append(q.shape[2])
        return softmax(q, k, scale)

    monkeypatch.setattr(autodiff, "_softmax_scores", counting_softmax)
    return rows


class TestMetrics:
    def test_perfect_fit_is_zero(self):
        v = RngState(0).uniform(-1, 1, (10,))
        assert mse(v, v) == 0.0
        assert mae(v, v) == 0.0

    def test_hand_values(self):
        assert mse([1.0, 3.0], [0.0, 1.0]) == pytest.approx(2.5, abs=0)
        assert mae([1.0, 3.0], [0.0, 1.0]) == pytest.approx(1.5, abs=0)

    def test_mse_symmetry(self):
        rng = RngState(1)
        p, t = rng.uniform(-2, 2, (20,)), rng.uniform(-2, 2, (20,))
        assert mse(p, t) == mse(t, p)

    def test_mae_below_rms(self):
        rng = RngState(2)
        for trial in range(10):
            p, t = rng.uniform(-5, 5, (15,)), rng.uniform(-5, 5, (15,))
            assert mae(p, t) <= np.sqrt(mse(p, t)) + 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            mse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            mae([], [])

    def test_order_invariance_within_tolerance(self):
        rng = RngState(3)
        p, t = rng.uniform(-2, 2, (50,)), rng.uniform(-2, 2, (50,))
        perm = rng.permutation(50)
        assert abs(mse(p, t) - mse(p[perm], t[perm])) < 1e-12
        assert abs(mae(p, t) - mae(p[perm], t[perm])) < 1e-12


class TestSgdStep:
    def test_zero_grads_leave_params_bitwise(self):
        p = init_params(tiny_config())
        before = p.flat.copy()
        grads = ModelParams(tiny_config())
        sgd_step(p, grads, lr=0.5)
        assert np.array_equal(p.flat, before)

    def test_single_coordinate_update(self):
        p = ModelParams(tiny_config())
        p["b_y"][0] = 2.0
        grads = ModelParams(tiny_config())
        grads["b_y"][0] = 0.5
        sgd_step(p, grads, lr=1.0)
        assert p["b_y"][0] == 1.5

    def test_two_half_steps_equal_one_full_step(self):
        cfg = tiny_config()
        grads = ModelParams(cfg)
        for arr in grads.views.values():
            arr[...] = RngState(5).uniform(-1, 1, arr.shape)
        a = init_params(cfg)
        sgd_step(a, grads, lr=0.2)
        b = init_params(cfg)
        sgd_step(b, grads, lr=0.1)
        sgd_step(b, grads, lr=0.1)
        assert np.abs(a.flat - b.flat).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        p = init_params(tiny_config())
        grads = ModelParams(tiny_config(input_dim=2))  # w_e is 8x2, not 8x1
        with pytest.raises(DimensionError):
            sgd_step(p, grads, lr=0.1)

    def test_one_step_on_convex_quadratic_decreases_loss(self):
        # loss 0.5 * ||theta||^2 has gradient theta
        p = init_params(tiny_config(seed=8))
        before = sum(float(np.sum(a * a)) for a in p.views.values()) / 2.0
        grads = ModelParams(tiny_config(seed=8), p.flat.copy())
        sgd_step(p, grads, lr=0.7)
        after = sum(float(np.sum(a * a)) for a in p.views.values()) / 2.0
        assert after < before


class TestAdamStep:
    def test_zero_grads_zero_state_near_noop(self):
        cfg = tiny_config()
        p = init_params(cfg)
        before = p.flat.copy()
        grads = ModelParams(cfg)
        adam_step(p, grads, AdamState.zeros(p), TrainConfig())
        assert np.abs(p.flat - before).max() < 1e-12

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) at t=1
        cfg = tiny_config()
        tconf = TrainConfig(learning_rate=0.01)
        p = ModelParams(cfg)
        grads = ModelParams(cfg, np.full_like(p.flat, 3.0))
        adam_step(p, grads, AdamState.zeros(p), tconf)
        assert np.abs(np.abs(p.flat) - tconf.learning_rate).max() < 1e-8

    def test_deterministic(self):
        cfg = tiny_config()
        grads = ModelParams(cfg)
        for arr in grads.views.values():
            arr[...] = RngState(6).uniform(-1, 1, arr.shape)

        def run():
            p = init_params(cfg)
            state = AdamState.zeros(p)
            for _ in range(5):
                adam_step(p, grads, state, TrainConfig())
            return p

        assert np.array_equal(run().flat, run().flat)


    def test_matches_a_per_parameter_reference_bitwise(self):
        # more values than one slice of the vectorized update; the reference
        # computes Kingma & Ba's efficient order one parameter array at a time
        cfg = tiny_config(model_dim=64, ffn_hidden=512)
        tconf = TrainConfig(learning_rate=0.01)
        p = init_params(cfg)
        assert p.flat.size > training._ADAM_SLICE
        ref = {name: arr.copy() for name, arr in p.views.items()}
        m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        state = AdamState.zeros(p)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        for t in range(1, 4):
            grads = ModelParams(cfg, RngState(t).uniform(-1, 1, p.flat.shape))
            adam_step(p, grads, state, tconf)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            step = tconf.learning_rate * np.sqrt(c2) / c1
            eps_hat = training.ADAM_EPS * np.sqrt(c2)
            for name, g in grads.views.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                ref[name] -= step * (m[name] / (np.sqrt(v[name]) + eps_hat))
        for name, arr in p.views.items():
            assert np.array_equal(arr, ref[name])

    def test_stays_within_rounding_of_the_textbook_form(self):
        # the efficient order is the bias-corrected update, rearranged:
        # theta -= lr (m / c1) / (sqrt(v / c2) + eps)
        cfg = tiny_config(model_dim=64, ffn_hidden=512)
        tconf = TrainConfig(learning_rate=0.01)
        p = init_params(cfg)
        ref = p.flat.copy()
        m, v = np.zeros_like(ref), np.zeros_like(ref)
        state = AdamState.zeros(p)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        rng = RngState(11)
        for t in range(1, 51):
            # magnitudes from 1e-4 to 1e2, either sign
            g = 10.0 ** rng.uniform(-4, 2, ref.shape) * np.sign(rng.uniform(-1, 1, ref.shape))
            adam_step(p, ModelParams(cfg, g), state, tconf)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            ref -= tconf.learning_rate * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
        assert np.abs(p.flat - ref).max() < 1e-15

    def test_update_allocates_no_temporaries(self):
        # every temporary lands in the state's scratch, allocated once
        cfg = tiny_config(model_dim=64, ffn_hidden=512)
        p = init_params(cfg)
        assert p.flat.size > training._ADAM_SLICE
        grads = ModelParams(cfg, RngState(8).uniform(-1, 1, p.flat.shape))
        state = AdamState.zeros(p)
        assert state.scratch.shape == (2, training._ADAM_SLICE)
        tracemalloc.start()
        try:
            adam_step(p, grads, state, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestClipGradients:
    def test_norm_capped(self):
        cfg = tiny_config()
        grads = uniform_grads(cfg, 7, 3.0)
        cap = 0.5
        pre = clip_gradients(grads, cap)
        assert pre > cap
        post = np.sqrt(sum(float(np.sum(g * g)) for g in grads.views.values()))
        assert post <= cap + 1e-12

    def test_returns_the_pre_clip_norm(self):
        cfg = tiny_config()
        grads = uniform_grads(cfg, 9, 3.0)
        expected = np.sqrt(np.sum(grads.flat * grads.flat))
        assert clip_gradients(grads, cap=0.5) == pytest.approx(expected, rel=1e-13)

    def test_under_cap_untouched(self):
        cfg = tiny_config()
        grads = ModelParams(cfg)
        grads.flat[:] = 1e-3
        before = grads.flat.copy()
        clip_gradients(grads, cap=10.0)
        assert np.array_equal(grads.flat, before)

    def test_clip_allocates_no_temporaries(self):
        cfg = tiny_config(model_dim=64, ffn_hidden=512)
        grads = uniform_grads(cfg, 8, 1.0)
        tracemalloc.start()
        try:
            clip_gradients(grads, cap=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestBatchLoss:
    def test_gradients_match_a_per_leaf_reference_bitwise(self):
        # residual adds hand one adjoint to two inputs
        mcfg = tiny_config(n_blocks=2, use_residual=True)
        ds = sine_dataset()
        params = init_params(mcfg)
        x, y = ds.x[:5], ds.y[:5]
        _, _, grads = training._batch_loss(params, x, y, mcfg)

        # every leaf with a buffer of its own, not a view of one vector
        tape = Tape()
        bufs = {name: np.zeros_like(arr) for name, arr in params.views.items()}
        leaves = {name: tape.leaf(arr, bufs[name]) for name, arr in params.views.items()}
        predictions, _ = build_forward(tape, x, leaves, mcfg)
        tape.backward(tape.mse(predictions, y[:, None]))
        for name, g in grads.views.items():
            assert g.any() and np.array_equal(g, bufs[name]), name

    def test_peak_memory_is_bounded_by_the_parameters(self):
        # one 2-step window: 1.58 MB of parameters outweigh the activations,
        # so the peak is the gradient vector plus the largest contribution
        mcfg = ModelConfig(window_len=2, input_dim=1, model_dim=128, n_heads=4, ffn_hidden=512)
        params = init_params(mcfg)
        x = RngState(3).uniform(-1, 1, (1, 2, 1))
        tracemalloc.start()
        try:
            training._batch_loss(params, x, np.ones(1), mcfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * params.flat.nbytes

    def default_batch(self, **overrides):
        # d32, 2 heads, FFN 128
        mcfg = ModelConfig(window_len=16, input_dim=4, **overrides)
        x = RngState(4).uniform(-1, 1, (16, 16, 4))
        return init_params(mcfg), x, RngState(5).uniform(-1, 1, 16), mcfg

    def test_default_batch_peak_memory(self):
        # a node keeps only what its backward rule reads, not its output,
        # and the last block after attention holds one row per window
        args = self.default_batch()
        tracemalloc.start()
        try:
            training._batch_loss(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6

    def batch_node_counts(self, monkeypatch, **overrides):
        counts = []

        class CountingTape(Tape):
            def backward(self, root):
                counts.append(collections.Counter(node.op for node in self.nodes))
                super().backward(root)

        monkeypatch.setattr(training, "Tape", CountingTape)
        training._batch_loss(*self.default_batch(**overrides))
        return counts

    def test_default_batch_node_counts(self, monkeypatch):
        assert self.batch_node_counts(monkeypatch) == [
            {"leaf": 12, "linear": 4, "add": 1, "attention": 1,
             "layer_norm": 1, "relu": 1, "mse": 1}
        ]

    def test_residual_batch_node_counts(self, monkeypatch):
        # the last block's skip input is its last step alone
        assert self.batch_node_counts(monkeypatch, use_residual=True) == [
            {"leaf": 12, "linear": 4, "add": 3, "attention": 1,
             "layer_norm": 1, "relu": 1, "take_rows": 1, "mse": 1}
        ]

    def test_last_block_runs_only_the_read_step(self, monkeypatch):
        # every product after the last attention runs on one row per window
        rows = []
        attention, linear = Tape.attention, Tape.linear

        def counting_attention(self, h, *args):
            out, weights = attention(self, h, *args)
            rows.extend([h.value.shape[0], out.value.shape[0]])
            return out, weights

        def counting_linear(self, x, w, b):
            rows.append(x.value.shape[0])
            return linear(self, x, w, b)

        monkeypatch.setattr(Tape, "attention", counting_attention)
        monkeypatch.setattr(Tape, "linear", counting_linear)
        training._batch_loss(*self.default_batch())
        # embedding, attention's input (w_qkv) and output (w_o), ffn_w1,
        # ffn_w2, w_y
        assert rows == [16 * 16, 16 * 16, 16, 16, 16, 16]

    def test_last_block_scores_only_the_read_step(self, monkeypatch):
        # block 0 scores all 16 queries of each window, the last block only
        # step T-1's, and nothing asks for the last block's full weights
        rows = scored_query_rows(monkeypatch)
        training._batch_loss(*self.default_batch(n_blocks=2))
        assert rows == [16, 1]

    def test_tapes_are_freed_without_the_cycle_collector(self, monkeypatch):
        tapes = []

        class TrackedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", TrackedTape)
        monkeypatch.setattr(model, "Tape", TrackedTape)
        params, x, y, mcfg = self.default_batch()
        gc.disable()
        try:
            training._batch_loss(params, x, y, mcfg)
            forward(x[0], params, mcfg)
            assert len(tapes) == 2 and all(ref() is None for ref in tapes)
        finally:
            gc.enable()


class TestTrainLoop:
    def test_one_sample_one_epoch_takes_one_sgd_step(self):
        mcfg = tiny_config()
        ds = sine_dataset(n=6, window=4)
        assert len(ds) == 2
        one = TimeSeriesDataset(ds.x[:1], ds.y[:1])
        tcfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=8, optimizer="sgd", seed=3)
        params, report = train(one, None, mcfg, tcfg)

        # recompute the single expected update independently
        expected = init_params(mcfg)
        tape = Tape()
        named = ModelParams(mcfg)
        leaves = make_param_vars(tape, expected, named)
        y, _ = build_forward(tape, one.x, leaves, mcfg)
        tape.backward(tape.mse(y, np.array([[one.y[0]]])))
        sgd_step(expected, named, 0.05)
        assert np.array_equal(params.flat, expected.flat)
        assert len(report.train_mse) == 1

    def test_fixed_seed_reproduces_report_bitwise(self):
        mcfg = tiny_config()
        tcfg = TrainConfig(epochs=3, seed=11)
        ds = sine_dataset()
        clock = lambda: 0.0
        _, r1 = train(ds, None, mcfg, tcfg, clock=clock)
        _, r2 = train(ds, None, mcfg, tcfg, clock=clock)
        assert r1 == r2

    def test_validation_metrics_recorded(self):
        mcfg = tiny_config()
        ds = sine_dataset(n=30)
        val = sine_dataset(n=14, seed=5)
        _, report = train(ds, val, mcfg, TrainConfig(epochs=2, seed=1))
        assert len(report.val_mse) == 2
        assert len(report.val_mae) == 2
        assert all(v >= 0 and np.isfinite(v) for v in report.val_mse)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(empty_dataset(), None, tiny_config(), TrainConfig())

    def test_dims_must_match_model(self):
        ds = sine_dataset(window=4)
        with pytest.raises(ConfigError):
            train(ds, None, tiny_config(window_len=5), TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_location(self):
        ds = sine_dataset()
        tcfg = TrainConfig(epochs=3, learning_rate=1e300, optimizer="sgd", seed=2)
        with pytest.raises(NumericError, match="epoch"):
            train(ds, None, tiny_config(), tcfg)

    def test_nan_parameter_names_stage_and_epoch(self, monkeypatch):
        poisoned = init_params(tiny_config())
        poisoned["block0.w_o"][0, 0] = np.nan
        monkeypatch.setattr(training, "init_params", lambda config: poisoned)
        with pytest.raises(NumericError, match=r"stage: block 0 attention \(epoch 1, batch 0\)"):
            train(sine_dataset(), None, tiny_config(), TrainConfig(epochs=2, seed=2))

    def test_grad_clip_applied(self):
        ds = sine_dataset()
        mcfg = tiny_config()
        clipped, _ = train(ds, None, mcfg, TrainConfig(epochs=2, grad_clip=1e-6, seed=4))
        free, _ = train(ds, None, mcfg, TrainConfig(epochs=2, seed=4))
        # a vanishing norm cap freezes training near the initialization
        init = init_params(mcfg)
        drift_clipped = np.abs(clipped.flat - init.flat).max()
        drift_free = np.abs(free.flat - init.flat).max()
        assert drift_clipped < drift_free

    def test_shuffling_changes_batch_order_but_stays_seeded(self):
        mcfg = tiny_config()
        ds = sine_dataset(n=40)
        _, ra = train(ds, None, mcfg, TrainConfig(epochs=2, seed=21))
        _, rb = train(ds, None, mcfg, TrainConfig(epochs=2, seed=22))
        assert ra.train_mse != rb.train_mse


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        for bad in (
            dict(epochs=0),
            dict(learning_rate=0.0),
            dict(batch_size=0),
            dict(optimizer="rmsprop"),
            dict(grad_clip=-1.0),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)


class TestEvaluate:
    def test_zero_model_on_zero_targets(self):
        cfg = tiny_config()
        ds = TimeSeriesDataset(np.zeros((5, 4, 1)), np.zeros(5))
        m, a = evaluate(ModelParams(cfg), cfg, ds)
        assert m == 0.0 and a == 0.0

    def test_chunks_match_the_per_window_mean(self):
        # two full chunks and a partial third one
        cfg = tiny_config(n_heads=4, n_blocks=2, use_residual=True)
        p = init_params(cfg)
        ds = sine_dataset(n=2 * training.EVAL_CHUNK + 5 + 4)
        assert len(ds) == 2 * training.EVAL_CHUNK + 5
        errors = np.array([forward(x, p, cfg)[0] - y for x, y in zip(ds.x, ds.y)])
        m, a = evaluate(p, cfg, ds)
        assert abs(m - np.mean(errors ** 2)) < 1e-14
        assert abs(a - np.mean(np.abs(errors))) < 1e-14

    def test_last_block_scores_only_the_read_step(self, monkeypatch):
        # per chunk: all 4 steps in block 0, step T-1 alone in the last block
        cfg = tiny_config(n_blocks=2)
        p = init_params(cfg)
        ds = sine_dataset(n=2 * training.EVAL_CHUNK + 5 + 4)
        rows = scored_query_rows(monkeypatch)
        evaluate(p, cfg, ds)
        assert rows == [4, 1] * 3

    def test_never_mutates_params(self):
        cfg = tiny_config()
        p = init_params(cfg)
        before = p.flat.copy()
        evaluate(p, cfg, sine_dataset())
        assert np.array_equal(p.flat, before)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            evaluate(init_params(tiny_config()), tiny_config(), empty_dataset())


class TestExportReport:
    def test_csv_layout_and_blank_val_columns(self, tmp_path):
        mcfg = tiny_config()
        _, report = train(sine_dataset(), None, mcfg, TrainConfig(epochs=2, seed=1),
                          clock=lambda: 0.0)
        path = str(tmp_path / "report.csv")
        export_report(report, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "epoch,train_mse,train_mae,val_mse,val_mae,seconds"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[3] == "" and first[4] == ""
        assert first[5] == "0.000"

    def test_deterministic_bytes(self, tmp_path):
        mcfg = tiny_config()
        ds = sine_dataset()
        clock = lambda: 0.0
        _, r1 = train(ds, None, mcfg, TrainConfig(epochs=2, seed=9), clock=clock)
        _, r2 = train(ds, None, mcfg, TrainConfig(epochs=2, seed=9), clock=clock)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        export_report(r1, p1)
        export_report(r2, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
