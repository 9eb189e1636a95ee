import collections
import functools
import gc
import os
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from reference_forward import reference_forward
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
    grads.flat[:] = np.random.default_rng(seed).uniform(-bound, bound, grads.flat.shape)
    return grads


def empty_dataset():
    return TimeSeriesDataset(np.zeros((4, 1)), np.zeros(0, dtype=np.intp), np.zeros(0), 4)


def window(ds, i):
    """Window i of a dataset, [window_len x input_dim]."""
    return ds.rows[ds.starts[i] : ds.starts[i] + ds.window_len]


def scored_query_rows(monkeypatch):
    """A list that gains, per softmax computed inside ``Tape.attention``
    or by the weights function it returns, the number of query rows it
    scores per window and head."""
    rows = []
    softmax = autodiff._softmax_rows

    def counting_softmax(scores):
        rows.append(scores.shape[2])
        return softmax(scores)

    monkeypatch.setattr(autodiff, "_softmax_rows", counting_softmax)
    return rows


# A stack budget that keeps the per-window oracles quick: stacks of 48
# tiny_config() windows with one block, and of 16 with two.
SMALL_STACK_BYTES = 12 << 10

# evaluate's traced peak is at most this many stack budgets beyond the
# parameters it reads in place. Drawn configs reached ~7 at one step and
# one head, where each of the last block's arrays is as large as its
# window rows, and ~4.6 with three blocks.
EVAL_PEAK_STACKS = 8


@pytest.fixture
def small_stacks(monkeypatch):
    monkeypatch.setattr(training, "EVAL_STACK_BYTES", SMALL_STACK_BYTES)


def stacked_configs(**overrides):
    """One one-block and one two-block tiny_config()."""
    return [tiny_config(n_blocks=blocks, **overrides) for blocks in (1, 2)]


def stacked_dataset(cfg):
    """Windows for two full evaluate stacks of ``cfg`` and a third of 5,
    and the stack size."""
    stack = training.eval_stack_windows(cfg)
    ds = sine_dataset(n=2 * stack + 5 + cfg.window_len, window=cfg.window_len)
    assert len(ds) == 2 * stack + 5
    return ds, stack


class TestMetrics:
    def test_perfect_fit_is_zero(self):
        v = np.random.default_rng(0).uniform(-1, 1, (10,))
        assert mse(v, v) == 0.0
        assert mae(v, v) == 0.0

    def test_hand_values(self):
        assert mse([1.0, 3.0], [0.0, 1.0]) == pytest.approx(2.5, abs=0)
        assert mae([1.0, 3.0], [0.0, 1.0]) == pytest.approx(1.5, abs=0)

    def test_mse_symmetry(self):
        rng = np.random.default_rng(1)
        p, t = rng.uniform(-2, 2, (20,)), rng.uniform(-2, 2, (20,))
        assert mse(p, t) == mse(t, p)

    def test_mae_below_rms(self):
        rng = np.random.default_rng(2)
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
        rng = np.random.default_rng(3)
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
        p.views["b_y"][0] = 2.0
        grads = ModelParams(tiny_config())
        grads.views["b_y"][0] = 0.5
        sgd_step(p, grads, lr=1.0)
        assert p.views["b_y"][0] == 1.5

    def test_two_half_steps_equal_one_full_step(self):
        cfg = tiny_config()
        grads = ModelParams(cfg)
        for arr in grads.views.values():
            arr[...] = np.random.default_rng(5).uniform(-1, 1, arr.shape)
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
            arr[...] = np.random.default_rng(6).uniform(-1, 1, arr.shape)

        def run():
            p = init_params(cfg)
            state = AdamState.zeros(p)
            for _ in range(5):
                adam_step(p, grads, state, TrainConfig())
            return p

        assert np.array_equal(run().flat, run().flat)


    def test_matches_a_per_parameter_reference_bitwise(self):
        # more values than one slice of the vectorized update; the reference
        # computes the scaled-moment order one parameter array at a time
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
            grads = ModelParams(cfg, np.random.default_rng(t).uniform(-1, 1, p.flat.shape))
            adam_step(p, grads, state, tconf)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            # M = m / (1-b1) and V = v / (1-b2)
            step = tconf.learning_rate * np.sqrt(c2) / c1 * (1.0 - b1) / np.sqrt(1.0 - b2)
            eps_hat = training.ADAM_EPS * np.sqrt(c2) / np.sqrt(1.0 - b2)
            for name, g in grads.views.items():
                m[name] = b1 * m[name] + g
                v[name] = b2 * v[name] + g * g
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
        rng = np.random.default_rng(11)
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
        grads = ModelParams(cfg, np.random.default_rng(8).uniform(-1, 1, p.flat.shape))
        state = AdamState.zeros(p)
        assert state.slices.scratch.shape == (state.slices.workers, 2, training._ADAM_SLICE)
        tracemalloc.start()
        try:
            adam_step(p, grads, state, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


def pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tsformer-slices")]


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs the process may run on, as the optimizer reads them."""
    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return set_cpus


class TestSharedSlices:
    @pytest.mark.parametrize("clip", [None, 1.0], ids=["unclipped", "clipped"])
    def test_bits_do_not_depend_on_the_cpu_count(self, cpus, monkeypatch, clip):
        # four slices, shared out over 1, 2 and 3 workers, the last past
        # the cap and more than this host may have, with frequent thread
        # switches; and the clip factor gives the products of a gradient
        # scaled beforehand
        monkeypatch.setattr(training, "_MAX_WORKERS", 3)
        cfg = tiny_config(model_dim=128, ffn_hidden=640)
        size = init_params(cfg).flat.size
        assert 3 * training._ADAM_SLICE < size <= 4 * training._ADAM_SLICE
        tconf = TrainConfig(learning_rate=0.01)
        steps = [uniform_grads(cfg, seed, 1.0) for seed in range(3)]

        def run(workers, prescale=False):
            cpus(workers)
            p = init_params(cfg)
            state = AdamState.zeros(p)
            assert state.slices.workers == workers
            try:
                for grads in steps:
                    scale = None if clip is None else clip_gradients(grads, clip)[1]
                    if prescale and scale is not None:
                        grads, scale = ModelParams(cfg, grads.flat * scale), None
                    adam_step(p, grads, state, tconf, scale)
            finally:
                state.slices.close()
            return [p.flat, state.m, state.v]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run(workers) for workers in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        runs.append(run(1, prescale=True))
        for other in runs[1:]:
            assert [a.tobytes() for a in other] == [a.tobytes() for a in runs[0]]

    def test_workers_are_capped(self, cpus):
        # the CPUs past the count that was timed take no part
        cpus(8)
        state = AdamState.zeros(init_params(tiny_config(model_dim=128, ffn_hidden=640)))
        try:
            assert state.slices.workers == training._MAX_WORKERS == 2
            assert len(pool_threads()) <= 1
        finally:
            state.slices.close()

    def test_sgd_clip_factor_gives_the_prescaled_bits(self):
        # the products of the separate in-place scaling pass it replaced;
        # the gradient itself is left as it is
        cfg = tiny_config()
        grads = uniform_grads(cfg, 5, 3.0)
        before = grads.flat.copy()
        norm, scale = clip_gradients(grads, 0.5)
        assert scale is not None
        got = sgd_step(init_params(cfg), grads, 0.01, scale)
        want = sgd_step(init_params(cfg), ModelParams(cfg, before * (0.5 / norm)), 0.01)
        assert got.flat.tobytes() == want.flat.tobytes()
        assert grads.flat.tobytes() == before.tobytes()

    def test_one_slice_starts_no_thread(self, cpus):
        cpus(4)
        cfg = tiny_config()
        p = init_params(cfg)
        grads = uniform_grads(cfg, 3, 1.0)
        before = threading.active_count()
        state = AdamState.zeros(p)
        adam_step(p, grads, state, TrainConfig())
        sgd_step(p, grads, 0.1)
        assert state.slices.workers == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_no_worker_outlives_train(self, cpus, monkeypatch, optimizer):
        # Adam's steps run on one worker beside the calling thread; SGD's
        # single pass runs on the calling thread alone
        cpus(2)
        seen = []
        shared_run = training._Slices.run

        def run(slices, work):
            shared_run(slices, work)
            seen.append(len(pool_threads()))

        monkeypatch.setattr(training._Slices, "run", run)
        train(sine_dataset(), None, tiny_config(model_dim=64, ffn_hidden=512),
              TrainConfig(epochs=1, optimizer=optimizer))
        assert (seen and set(seen) == {1}) if optimizer == "adam" else seen == []
        assert pool_threads() == []

    def test_a_freed_state_ends_its_worker(self, cpus):
        cpus(2)
        cfg = tiny_config(model_dim=64, ffn_hidden=512)
        p = init_params(cfg)
        state = AdamState.zeros(p)
        adam_step(p, uniform_grads(cfg, 4, 1.0), state, TrainConfig())
        workers = pool_threads()
        assert len(workers) == 1
        del state
        gc.collect()
        workers[0].join(timeout=30)
        assert not workers[0].is_alive()


class TestClipGradients:
    def test_norm_capped(self):
        # the step applies the factor: from zero, an SGD step of lr -1
        # lands on the clipped gradient
        cfg = tiny_config()
        grads = uniform_grads(cfg, 7, 3.0)
        cap = 0.5
        pre, scale = clip_gradients(grads, cap)
        assert pre > cap
        clipped = sgd_step(ModelParams(cfg), grads, lr=-1.0, scale=scale)
        post = np.sqrt(sum(float(np.sum(g * g)) for g in clipped.views.values()))
        assert post <= cap + 1e-12

    def test_returns_the_pre_clip_norm(self):
        cfg = tiny_config()
        grads = uniform_grads(cfg, 9, 3.0)
        expected = np.sqrt(np.sum(grads.flat * grads.flat))
        assert clip_gradients(grads, cap=0.5)[0] == pytest.approx(expected, rel=1e-13)

    def test_under_cap_untouched(self):
        cfg = tiny_config()
        grads = ModelParams(cfg)
        grads.flat[:] = 1e-3
        before = grads.flat.copy()
        assert clip_gradients(grads, cap=10.0)[1] is None
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


def batch_loss(params, grads, rows, starts, y, mcfg, tape=None):
    """``training._batch_loss`` on a tape that holds the parameter leaves
    alone, recorded with the views of ``grads``, as ``train`` builds it."""
    tape = Tape() if tape is None else tape
    leaves = make_param_vars(tape, params, grads)
    return training._batch_loss(tape, leaves, grads, rows, starts, y, mcfg)


class TestBatchLoss:
    def test_backward_writes_parameter_gradients_in_place(self):
        # a d256 batch, as large-roundtrip trains: with each parameter's
        # buffer handed to its rule, the sweep's peak is at least one FFN
        # weight (1024 x 256 values) below that of the same rules returning
        # fresh arrays for the sweep to copy in, and the bits are the same
        mcfg = ModelConfig(window_len=16, input_dim=1, model_dim=256, n_heads=8,
                           ffn_hidden=1024)
        params = init_params(mcfg)
        rng = np.random.default_rng(12)
        rows, starts, y = rng.standard_normal((400, 1)), rng.integers(0, 385, 16), \
            rng.standard_normal((16, 1))

        def sweep(fresh):
            grads = ModelParams(mcfg)
            tape = Tape()
            leaves = make_param_vars(tape, params, grads)
            loss = tape.mse(build_forward(tape, rows, starts, leaves, mcfg)[0], y)
            if fresh:
                for node in tape.nodes[len(leaves):]:
                    node.rule = functools.partial(lambda rule, g, into: rule(g, (None, None, None)), node.rule)
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, grads.flat

        (peak, g), (fresh_peak, fresh_g) = sweep(False), sweep(True)
        assert np.array_equal(g, fresh_g)
        assert peak + 1024 * 256 * 8 <= fresh_peak

    def test_gradients_match_a_per_leaf_reference_bitwise(self):
        # residual adds hand one adjoint to two inputs
        mcfg = tiny_config(n_blocks=2, use_residual=True)
        ds = sine_dataset()
        params = init_params(mcfg)
        starts, y = ds.starts[[4, 0, 5, 1, 2]], ds.y[[4, 0, 5, 1, 2]]
        grads = uniform_grads(mcfg, 6, 1.0)  # stale values are overwritten
        batch_loss(params, grads, ds.rows, starts, y, mcfg)

        # every leaf with a buffer of its own, not a view of one vector
        tape = Tape()
        bufs = {name: np.zeros_like(arr) for name, arr in params.views.items()}
        leaves = {name: tape.leaf(arr, bufs[name]) for name, arr in params.views.items()}
        predictions, _ = build_forward(tape, ds.rows, starts, leaves, mcfg)
        tape.backward(tape.mse(predictions, y[:, None]))
        for name, g in grads.views.items():
            assert g.any() and np.array_equal(g, bufs[name]), name

    def test_peak_memory_is_bounded_by_the_parameters(self):
        # one 2-step window: 1.58 MB of parameters outweigh the activations,
        # so the peak is the gradient vector plus the largest contribution
        mcfg = ModelConfig(window_len=2, input_dim=1, model_dim=128, n_heads=4, ffn_hidden=512)
        params = init_params(mcfg)
        rows = np.random.default_rng(3).uniform(-1, 1, (2, 1))
        tracemalloc.start()
        try:
            batch_loss(params, ModelParams(mcfg), rows, [0], np.ones(1), mcfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * params.flat.nbytes

    def default_batch(self, **overrides):
        # d32, 2 heads, FFN 128; 16 windows of 16 steps, which share no row
        mcfg = ModelConfig(window_len=16, input_dim=4, **overrides)
        rows = np.random.default_rng(4).uniform(-1, 1, (256, 4))
        y = np.random.default_rng(5).uniform(-1, 1, 16)
        return init_params(mcfg), ModelParams(mcfg), rows, np.arange(0, 256, 16), y, mcfg

    def test_default_batch_peak_memory(self):
        # a node keeps only what its backward rule reads, not its output,
        # and the last block after attention holds one row per window
        params, _, *args = self.default_batch()
        tracemalloc.start()
        try:
            batch_loss(params, ModelParams(args[-1]), *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6

    def batch_node_counts(self, **overrides):
        # two batches on one tape: each records after the same 12 leaves
        counts = []

        class CountingTape(Tape):
            def backward(self, root):
                counts.append(collections.Counter(node.op for node in self.nodes))
                super().backward(root)

        params, grads, rows, starts, y, mcfg = self.default_batch(**overrides)
        tape = CountingTape()
        leaves = make_param_vars(tape, params, grads)
        for _ in range(2):
            training._batch_loss(tape, leaves, grads, rows, starts, y, mcfg)
            assert len(tape.nodes) == 12
        assert counts[0] == counts[1]
        return counts[:1]

    def test_default_batch_node_counts(self):
        # the position features enter inside attention: no add node
        assert self.batch_node_counts() == [
            {"leaf": 12, "linear": 4, "attention": 1, "layer_norm": 1, "relu": 1, "mse": 1}
        ]

    def test_residual_batch_node_counts(self):
        # the attention skip, its last step's input row with its position
        # features, is added inside the attention op; the FFN's is an add
        assert self.batch_node_counts(use_residual=True) == [
            {"leaf": 12, "linear": 4, "add": 1, "attention": 1,
             "layer_norm": 1, "relu": 1, "mse": 1}
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
        batch_loss(*self.default_batch())
        # embedding, attention's input (w_qkv) and output (w_o), ffn_w1,
        # ffn_w2, w_y
        assert rows == [16 * 16, 16 * 16, 16, 16, 16, 16]

    def test_last_block_scores_only_the_read_step(self, monkeypatch):
        # block 0 scores all 16 queries of each window, the last block only
        # step T-1's, and nothing asks for the last block's full weights
        rows = scored_query_rows(monkeypatch)
        batch_loss(*self.default_batch(n_blocks=2))
        assert rows == [16, 1]

    def test_tapes_are_freed_without_the_cycle_collector(self, monkeypatch):
        # train's one tape, which every batch reuses, and forward's
        tapes = []

        class TrackedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", TrackedTape)
        monkeypatch.setattr(model, "Tape", TrackedTape)
        mcfg = tiny_config()
        ds = sine_dataset()
        gc.disable()
        try:
            params, _ = train(ds, None, mcfg, TrainConfig(epochs=2, batch_size=7, seed=1))
            forward(ds.rows[:4], params, mcfg)
            assert len(tapes) == 2 and all(ref() is None for ref in tapes)
        finally:
            gc.enable()


class TestTrainLoop:
    def test_one_sample_one_epoch_takes_one_sgd_step(self):
        mcfg = tiny_config()
        ds = sine_dataset(n=6, window=4)
        assert len(ds) == 2
        one = TimeSeriesDataset(ds.rows, ds.starts[:1], ds.y[:1], ds.window_len)
        tcfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=8, optimizer="sgd", seed=3)
        params, report = train(one, None, mcfg, tcfg)

        # recompute the single expected update independently
        expected = init_params(mcfg)
        tape = Tape()
        named = ModelParams(mcfg)
        leaves = make_param_vars(tape, expected, named)
        y, _ = build_forward(tape, one.rows, one.starts, leaves, mcfg)
        tape.backward(tape.mse(y, np.array([[one.y[0]]])))
        sgd_step(expected, named, 0.05)
        assert np.array_equal(params.flat, expected.flat)
        assert len(report.train_mse) == 1

    def test_one_gradient_vector_per_run(self, monkeypatch):
        # 2 epochs of 4 batches reuse one vector, refilled by each batch
        made = []

        class CountedParams(ModelParams):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(training, "ModelParams", CountedParams)
        ds = sine_dataset(n=30)
        train(ds, None, tiny_config(), TrainConfig(epochs=2, batch_size=7, seed=1))
        assert len(ds) == 26 and len(made) == 1

    def test_fixed_seed_reproduces_report_bitwise(self):
        mcfg = tiny_config()
        tcfg = TrainConfig(epochs=3, seed=11)
        ds = sine_dataset()
        _, r1 = train(ds, None, mcfg, tcfg)
        _, r2 = train(ds, None, mcfg, tcfg)
        assert r1 == r2

    def test_each_epoch_logs_its_wall_seconds(self, caplog, monkeypatch):
        # each epoch reads the clock at its start and its end
        ticks = iter([10.0, 10.25, 20.0, 22.5, 30.0, 30.125])
        monkeypatch.setattr(training, "perf_counter", lambda: next(ticks))
        val = sine_dataset(n=14, seed=5)
        with caplog.at_level("INFO", logger="tsformer"):
            train(sine_dataset(n=30), val, tiny_config(), TrainConfig(epochs=3, seed=1))
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("tsformer.training", "INFO", "epoch 1: 0.250 s"),
            ("tsformer.training", "INFO", "epoch 2: 2.500 s"),
            ("tsformer.training", "INFO", "epoch 3: 0.125 s"),
        ]

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

    def test_overflowing_loss_aborts_at_the_first_batch(self):
        # the forward is finite; only the squared errors of 1e200 overflow
        ds = sine_dataset()
        huge = TimeSeriesDataset(ds.rows, ds.starts, np.full(len(ds), 1e200), ds.window_len)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=r"^non-finite loss \(epoch 1, batch 0\)$"):
                train(huge, None, tiny_config(), TrainConfig(epochs=1, seed=2))

    def test_nan_parameter_names_stage_and_epoch(self, monkeypatch):
        poisoned = init_params(tiny_config())
        poisoned.views["block0.w_o"][0, 0] = np.nan
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
        ds = TimeSeriesDataset(np.zeros((8, 1)), np.arange(5), np.zeros(5), 4)
        m, a = evaluate(ModelParams(cfg), cfg, ds)
        assert m == 0.0 and a == 0.0

    def test_stacks_follow_the_byte_budget(self):
        # the default model, large-roundtrip's d256 model and a 2-block d32
        # model; stacks of one window when a window alone is past the budget
        sizes = [training.eval_stack_windows(ModelConfig(window_len=16, input_dim=1, **kw))
                 for kw in (dict(), dict(model_dim=256, n_heads=8, ffn_hidden=1024),
                            dict(n_blocks=2), dict(model_dim=8192, n_heads=8, n_blocks=2))]
        assert sizes == [512, 64, 128, 1]

    def test_chunks_match_the_per_window_mean(self, small_stacks):
        for cfg in stacked_configs(n_heads=4, use_residual=True):
            p = init_params(cfg)
            ds, _ = stacked_dataset(cfg)
            errors = np.array([forward(window(ds, i), p, cfg)[0] - ds.y[i]
                               for i in range(len(ds))])
            m, a = evaluate(p, cfg, ds)
            assert abs(m - np.mean(errors ** 2)) < 1e-14
            assert abs(a - np.mean(np.abs(errors))) < 1e-14

    def test_chunks_match_the_straight_line_reference(self, small_stacks, monkeypatch):
        # every window's prediction, across two stack boundaries, against
        # the scalar-loop oracle
        predictions = []

        def recording_forward(*args):
            y, weights = build_forward(*args)
            predictions.extend(y.value[:, 0])
            return y, weights

        monkeypatch.setattr(training, "build_forward", recording_forward)
        for cfg in stacked_configs(n_heads=4, use_residual=True, seed=3):
            p = init_params(cfg)
            ds, _ = stacked_dataset(cfg)
            predictions.clear()
            evaluate(p, cfg, ds)
            assert len(predictions) == len(ds)
            for i, got in enumerate(predictions):
                assert abs(got - reference_forward(window(ds, i), p, cfg)[0]) < 1e-10

    def test_block_zero_projects_each_covered_row_once(self, small_stacks, monkeypatch):
        # a stack of B stride-1 windows covers B+T-1 rows, and block 0's
        # q/k/v product reads exactly those; later blocks read B*T rows
        inputs = []
        attention = Tape.attention

        def counting_attention(self, h, w_qkv, w_o, windows, *args):
            inputs.append((windows, h.value.shape[0]))
            return attention(self, h, w_qkv, w_o, windows, *args)

        monkeypatch.setattr(Tape, "attention", counting_attention)
        for cfg in stacked_configs():
            ds, stack = stacked_dataset(cfg)
            inputs.clear()
            evaluate(init_params(cfg), cfg, ds)
            assert inputs == [(b, rows) for b in (stack, stack, 5)
                              for rows in [b + 3] + [4 * b] * (cfg.n_blocks - 1)]

    def test_last_block_scores_only_the_read_step(self, small_stacks, monkeypatch):
        # per stack: all 4 steps in block 0, step T-1 alone in the last block
        cfg = tiny_config(n_blocks=2)
        ds, _ = stacked_dataset(cfg)
        rows = scored_query_rows(monkeypatch)
        evaluate(init_params(cfg), cfg, ds)
        assert rows == [4, 1] * 3

    @settings(max_examples=30, deadline=None)
    @given(steps=st.integers(1, 32),
           shape=st.integers(1, 64).flatmap(lambda d: st.tuples(
               st.just(d), st.sampled_from([h for h in range(1, d + 1) if d % h == 0]))),
           blocks=st.integers(1, 3), hidden=st.integers(1, 256))
    # a wide, long config, whose fixed 64-window stacks peaked at ~25 budgets
    @example(steps=64, shape=(256, 8), blocks=2, hidden=256)
    def test_peak_memory_stays_within_the_stack_budget(self, steps, shape, blocks, hidden):
        # over three stacks, two full ones; the parameters are read in place
        cfg = ModelConfig(window_len=steps, input_dim=1, model_dim=shape[0], n_heads=shape[1],
                          n_blocks=blocks, ffn_hidden=hidden)
        p = init_params(cfg)
        n = 2 * training.eval_stack_windows(cfg) + 1
        rows = np.random.default_rng(steps).uniform(-1, 1, (n + steps - 1, 1))
        ds = TimeSeriesDataset(rows, np.arange(n), rows[steps - 1 :, 0], steps)
        tracemalloc.start()
        try:
            evaluate(p, cfg, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= EVAL_PEAK_STACKS * training.EVAL_STACK_BYTES + p.flat.nbytes, cfg

    def test_never_mutates_params(self):
        cfg = tiny_config()
        p = init_params(cfg)
        before = p.flat.copy()
        evaluate(p, cfg, sine_dataset())
        assert np.array_equal(p.flat, before)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            evaluate(init_params(tiny_config()), tiny_config(), empty_dataset())

    def test_window_length_must_match_model(self):
        # windows of 4 steps scored by a 5-step model would pair each
        # prediction with another window's target
        cfg = tiny_config(window_len=5)
        with pytest.raises(DimensionError, match="5"):
            evaluate(init_params(cfg), cfg, sine_dataset(window=4))


class TestExportReport:
    def test_csv_layout_and_blank_val_columns(self, tmp_path):
        mcfg = tiny_config()
        _, report = train(sine_dataset(), None, mcfg, TrainConfig(epochs=2, seed=1))
        path = str(tmp_path / "report.csv")
        export_report(report, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "epoch,train_mse,train_mae,val_mse,val_mae"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[0] == "1"
        assert float(first[1]) == report.train_mse[0] and float(first[2]) == report.train_mae[0]
        assert first[3] == "" and first[4] == ""

    def test_deterministic_bytes(self, tmp_path):
        mcfg = tiny_config()
        ds = sine_dataset()
        _, r1 = train(ds, None, mcfg, TrainConfig(epochs=2, seed=9))
        _, r2 = train(ds, None, mcfg, TrainConfig(epochs=2, seed=9))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        export_report(r1, p1)
        export_report(r2, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
