from pathlib import Path

import numpy as np
import pytest

from tsformer import training
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


def empty_dataset():
    return TimeSeriesDataset(np.zeros((0, 4, 1)), np.zeros(0), 1)


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
        # more values than one slice of the vectorized update
        cfg = tiny_config(model_dim=64, ffn_hidden=512)
        tconf = TrainConfig(learning_rate=0.01)
        p = init_params(cfg)
        assert p.flat.size > training._ADAM_SLICE
        ref = {name: arr.copy() for name, arr in p.views.items()}
        m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        state = AdamState.zeros(p)
        b1, b2 = tconf.adam_beta1, tconf.adam_beta2
        for t in range(1, 4):
            grads = ModelParams(cfg, RngState(t).uniform(-1, 1, p.flat.shape))
            adam_step(p, grads, state, tconf)
            for name, g in grads.views.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                ref[name] -= tconf.learning_rate * m_hat / (np.sqrt(v_hat) + tconf.adam_eps)
        for name, arr in p.views.items():
            assert np.array_equal(arr, ref[name])


class TestClipGradients:
    def test_norm_capped(self):
        rng = RngState(7)
        grads = {k: rng.uniform(-3, 3, (4, 4)) for k in "abc"}
        cap = 0.5
        pre = clip_gradients(grads, cap)
        assert pre > cap
        post = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert post <= cap + 1e-12

    def test_under_cap_untouched(self):
        grads = {"a": np.array([[0.1, 0.1]])}
        before = grads["a"].copy()
        clip_gradients(grads, cap=10.0)
        assert np.array_equal(grads["a"], before)


class TestTrainLoop:
    def test_one_sample_one_epoch_takes_one_sgd_step(self):
        mcfg = tiny_config()
        ds = sine_dataset(n=6, window=4)
        assert len(ds) == 2
        one = TimeSeriesDataset(ds.x[:1], ds.y[:1], 1)
        tcfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=8, optimizer="sgd", seed=3)
        params, report = train(one, None, mcfg, tcfg)

        # recompute the single expected update independently
        expected = init_params(mcfg)
        tape = Tape()
        leaves = make_param_vars(tape, expected)
        y, _ = build_forward(tape, one.x, leaves, mcfg)
        target = tape.leaf(np.array([[one.y[0]]]))
        diff = tape.sub(y, target)
        loss = tape.mean_all(tape.mul(diff, diff))
        grads = tape.backward(loss)
        named = ModelParams(mcfg)
        for name, v in leaves.items():
            named[name][...] = grads[v.nid]
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
        ds = TimeSeriesDataset(np.zeros((5, 4, 1)), np.zeros(5), 1)
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
