"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

import tsformer as tf
from tsformer.cli import main as cli_main
from tsformer.errors import CheckpointChecksumError, CheckpointFormatError
from tsformer.model import (
    build_forward,
    forward,
    load_params,
    positional_encoding,
    save_params,
)
from tsformer.tensor import RngState

from reference_forward import reference_forward

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
            return result

        return wrapper

    return decorate


@criterion("table-1-documented-not-reproduced")
def test_reference_results_documented_as_claims_only():
    text = Path(README).read_text()
    for value in ("0.0271", "0.1120", "0.0423", "0.1675", "0.0305", "0.1226"):
        assert value in text
    assert "not reproduction targets" in text
    # and nothing in this suite asserts those numbers as model output


@criterion("gradient-correctness")
def test_full_model_gradient_check():
    config = tf.ModelConfig(
        window_len=4, input_dim=3, model_dim=8, n_heads=2, ffn_hidden=16, seed=42
    )
    params = tf.init_params(config)
    x = RngState(43).normal(1.0, (4, 3))

    def f(tape, leaves):
        y, _ = build_forward(tape, x[None], leaves, config)
        return y

    started = time.perf_counter()
    report = tf.grad_check(f, params.views)
    elapsed = time.perf_counter() - started
    assert report.max_error < 1e-5, report.errors
    assert elapsed < 30.0


@criterion("attention-normalization")
def test_attention_rows_are_distributions_on_random_inputs():
    config = tf.ModelConfig(window_len=6, input_dim=3, model_dim=16, n_heads=4, seed=1)
    params = tf.init_params(config)
    rng = RngState(2)
    for _ in range(100):
        x = rng.uniform(-3, 3, (6, 3))
        _, records = forward(x, params, config)
        for rec in records:
            assert np.abs(rec.weights.sum(axis=1) - 1.0).max() < 1e-9
            assert (rec.weights >= 0.0).all() and (rec.weights <= 1.0).all()


@criterion("positional-encoding-fidelity")
def test_positional_encoding_closed_form_everywhere():
    import math

    for dm in range(1, 65):
        pe = positional_encoding(64, dm)
        for t in range(64):
            for i in range((dm + 1) // 2):
                angle = t / (10000.0 ** (2.0 * i / dm))
                assert abs(pe[t, 2 * i] - math.sin(angle)) < 1e-12
                if 2 * i + 1 < dm:
                    assert abs(pe[t, 2 * i + 1] - math.cos(angle)) < 1e-12
    pe = positional_encoding(4, 8)
    assert np.array_equal(pe[0], np.array([0.0, 1.0] * 4))


@criterion("permutation-property")
def test_permutation_sensitivity_matches_positional_encoding():
    no_pe = tf.ModelConfig(
        window_len=16, input_dim=3, use_positional_encoding=False, seed=3
    )
    params = tf.init_params(no_pe)
    rng = RngState(4)
    for _ in range(10):
        x = rng.uniform(-2, 2, (16, 3))
        y0, _ = forward(x, params, no_pe)
        perm = np.concatenate([rng.permutation(15), [15]])
        y1, _ = forward(x[perm], params, no_pe)
        assert abs(y0 - y1) < 1e-9

    with_pe = tf.ModelConfig(window_len=16, input_dim=3, seed=3)
    params_pe = tf.init_params(with_pe)
    changed = 0
    for _ in range(100):
        x = rng.uniform(-2, 2, (16, 3))
        y0, _ = forward(x, params_pe, with_pe)
        perm = np.concatenate([rng.permutation(15), [15]])
        y1, _ = forward(x[perm], params_pe, with_pe)
        if abs(y0 - y1) > 1e-9:
            changed += 1
    assert changed >= 95


def _sinusoid_task(n=200, train_frac=0.8):
    series = tf.synth_sine(n, 40.0, 0.0, seed=5)
    return tf.prepare_datasets(series, 16, 1, train_frac)


@criterion("convergence-shape")
def test_rapid_early_loss_decline():
    train_ds, val_ds, _ = _sinusoid_task()
    mconfig = tf.ModelConfig(window_len=16, input_dim=1, seed=42)
    tconfig = tf.TrainConfig(epochs=12, seed=42)
    started = time.perf_counter()
    _, report = tf.train(train_ds, val_ds, mconfig, tconfig)
    elapsed = time.perf_counter() - started
    assert report.train_mse[11] <= 0.5 * report.train_mse[0]
    assert elapsed < 60.0


@criterion("overfit-capacity")
def test_small_task_trains_to_near_zero_error():
    series = tf.synth_sine(48, 32.0, 0.0, seed=6)
    norm = tf.fit_normalizer(series)
    dataset = tf.make_windows(norm.apply(series), 16, 1)
    assert len(dataset) == 32
    mconfig = tf.ModelConfig(window_len=16, input_dim=1, seed=42)
    tconfig = tf.TrainConfig(epochs=200, learning_rate=1e-3, optimizer="adam", seed=42)
    started = time.perf_counter()
    params, report = tf.train(dataset, None, mconfig, tconfig)
    elapsed = time.perf_counter() - started
    assert report.train_mse[-1] < 1e-3
    eval_mse, _ = tf.evaluate(params, mconfig, dataset)
    assert eval_mse < 1e-3
    assert elapsed < 120.0


@criterion("forecasting-sanity")
def test_trained_model_beats_persistence_baseline():
    series = tf.synth_sine(200, 40.0, 0.0, seed=5)
    train_ds, val_ds, norm = tf.prepare_datasets(series, 16, 1, 0.8)
    mconfig = tf.ModelConfig(window_len=16, input_dim=1, seed=42)
    params, report = tf.train(train_ds, val_ds, mconfig, tf.TrainConfig(epochs=50, seed=42))

    # persistence: predict the last observed target, on the same normalized scale
    targets = norm.apply(series).target_values
    count = len(targets) - 16 - 1 + 1
    k = int(count * 0.8)
    naive_preds = np.array([targets[s + 16 - 1] for s in range(k, count)])
    actual = np.array([targets[s + 16] for s in range(k, count)])
    persistence_mse = tf.mse(naive_preds, actual)
    assert report.val_mse[-1] <= persistence_mse


@criterion("oracle-equivalence")
def test_forward_matches_straight_line_reference():
    config = tf.ModelConfig(
        window_len=4, input_dim=3, model_dim=8, n_heads=2, ffn_hidden=16, seed=42
    )
    params = tf.init_params(config)
    x = RngState(44).uniform(-1.5, 1.5, (4, 3))
    y, _ = forward(x, params, config)
    assert abs(y - reference_forward(x, params, config)[0]) < 1e-10


@criterion("checkpoint-round-trip")
def test_checkpoint_round_trip_and_corruption(tmp_path):
    config = tf.ModelConfig(window_len=8, input_dim=2, model_dim=16, n_heads=2, seed=7)
    params = tf.init_params(config)
    x = RngState(8).uniform(-1, 1, (8, 2))
    y_before, _ = forward(x, params, config)
    path = str(tmp_path / "model.tstm")
    save_params(params, config, path)
    loaded, config2, _ = load_params(path)
    y_after, _ = forward(x, loaded, config2)
    assert y_before == y_after

    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 3] ^= 0x01
    corrupted = str(tmp_path / "corrupted.tstm")
    with open(corrupted, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises((CheckpointChecksumError, CheckpointFormatError)):
        load_params(corrupted)


@criterion("determinism")
def test_cli_train_runs_are_byte_identical(tmp_path, capsys):
    data = str(tmp_path / "series.csv")
    assert cli_main(["synth", "--kind", "sine", "--n", "80", "--seed", "9",
                     "--out", data]) == 0
    artifacts = []
    for tag in ("first", "second"):
        out = str(tmp_path / f"{tag}.tstm")
        report = str(tmp_path / f"{tag}.csv")
        code = cli_main([
            "train", "--data", data, "--target", "value", "--window", "8",
            "--epochs", "3", "--seed", "9", "--out", out, "--report", report,
        ])
        assert code == 0
        artifacts.append((Path(out).read_bytes(), Path(report).read_bytes()))
    capsys.readouterr()
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ between runs"
    assert artifacts[0][1] == artifacts[1][1], "report CSVs differ between runs"
