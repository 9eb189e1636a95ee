"""Loss, metrics, optimizers, and the epoch loop.

Training minimizes mean squared error by reverse-mode backpropagation:
every mini-batch records one forward pass over the stack of its windows
on a tape, reduces it to a scalar batch loss, sweeps the tape backward,
and applies an SGD or Adam update. Everything is seeded, so a rerun with
the same configs reproduces the parameters and the report bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .autodiff import Tape
from .errors import ConfigError, DataError, DimensionError, NumericError
from .data import TimeSeriesDataset
from .fileio import atomic_write_text
from .model import ModelConfig, ModelParams, build_forward, init_params, make_param_vars

__all__ = [
    "TrainConfig",
    "TrainReport",
    "AdamState",
    "mse",
    "mae",
    "sgd_step",
    "adam_step",
    "clip_gradients",
    "train",
    "evaluate",
    "export_report",
]


@dataclass
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-3
    batch_size: int = 16
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")


@dataclass
class TrainReport:
    """Per-epoch metric trajectories; the data behind a loss-curve plot."""

    train_mse: list[float] = field(default_factory=list)
    train_mae: list[float] = field(default_factory=list)
    val_mse: list[float] | None = None
    val_mae: list[float] | None = None
    seconds: list[float] = field(default_factory=list)


def _metric_inputs(predictions, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64).ravel()
    t = np.asarray(targets, dtype=np.float64).ravel()
    if p.size != t.size:
        raise DimensionError(f"metrics: length mismatch, {p.size} vs {t.size}")
    if p.size == 0:
        raise DimensionError("metrics: need at least one sample")
    return p, t


def mse(predictions, targets) -> float:
    """Mean of squared differences."""
    p, t = _metric_inputs(predictions, targets)
    return float(np.mean((p - t) ** 2))


def mae(predictions, targets) -> float:
    """Mean of absolute differences."""
    p, t = _metric_inputs(predictions, targets)
    return float(np.mean(np.abs(p - t)))


def _check_layout(params: ModelParams, grads: ModelParams, who: str) -> None:
    if grads.flat.shape != params.flat.shape:
        raise DimensionError(
            f"{who}: gradient vector shape {grads.flat.shape} does not match "
            f"parameters {params.flat.shape}"
        )


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """Plain gradient descent, in place: theta <- theta - lr * g."""
    _check_layout(params, grads, "sgd_step")
    params.flat -= lr * grads.flat
    return params


_ADAM_SLICE = 1 << 16  # values per Adam pass: 512 KiB temporaries


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like ``ModelParams.flat``,
    plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """Adam update with bias correction, in place on params and state.

    Every operation is elementwise, so the vector is updated in fixed-size
    slices: the numbers are those of one pass per parameter, and the
    temporaries stay at slice size however large the model.
    """
    _check_layout(params, grads, "adam_step")
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for lo in range(0, params.flat.size, _ADAM_SLICE):
        part = slice(lo, lo + _ADAM_SLICE)
        g, m, v = grads.flat[part], state.m[part], state.v[part]
        m[:] = b1 * m + (1.0 - b1) * g
        v[:] = b2 * v + (1.0 - b2) * (g * g)
        step = config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
        params.flat[part] -= step
    return params, state


def clip_gradients(grads: dict[str, np.ndarray], cap: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``cap``.

    ``grads`` maps names to arrays, such as ``ModelParams.views``; they are
    scaled in place. The squared norm is summed one array at a time, in
    the mapping's order. Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > cap:
        factor = cap / norm
        for g in grads.values():
            g *= factor
    return norm


def _batch_loss(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    mconfig: ModelConfig,
) -> tuple[float, np.ndarray, ModelParams]:
    """Forward + backward for one mini-batch, windows ``x`` [B x T x d]
    and targets ``y`` [B], on a fresh tape.

    Returns (mean squared loss, per-window errors, gradients laid out like
    the parameters).
    """
    tape = Tape()
    leaves = make_param_vars(tape, params)
    predictions, _ = build_forward(tape, x, leaves, mconfig)
    diff = tape.sub(predictions, tape.leaf(y[:, None]))
    loss = tape.mean_all(tape.mul(diff, diff))
    grads = tape.backward(loss)
    named = ModelParams(mconfig)
    for name, var in leaves.items():
        g, grads[var.nid] = grads[var.nid], None  # freed once copied
        if g is not None:
            named[name][...] = g
    return loss.value.item(), diff.value.ravel(), named


def train(
    dataset: TimeSeriesDataset,
    val: TimeSeriesDataset | None,
    mconfig: ModelConfig,
    tconfig: TrainConfig,
    clock=time.perf_counter,
) -> tuple[ModelParams, TrainReport]:
    """Run the full epoch loop and return final parameters plus the report.

    Epoch train metrics aggregate each batch's pre-update errors, the usual
    running training loss. Validation metrics, when a validation set is
    given, come from a clean read-only pass after each epoch. A non-finite
    value in the forward pass or the loss aborts immediately, naming the
    stage, epoch and batch, rather than training through the damage.
    """
    n = len(dataset)
    if not n:
        raise DataError("train: dataset is empty")
    if dataset.x.shape[1:] != (mconfig.window_len, mconfig.input_dim):
        raise ConfigError(
            f"train: dataset windows are {dataset.x.shape[1:]}, "
            f"model expects {(mconfig.window_len, mconfig.input_dim)}"
        )
    params = init_params(mconfig)
    state = AdamState.zeros(params) if tconfig.optimizer == "adam" else None
    order_rng = tensor.RngState(tconfig.seed)
    report = TrainReport(
        val_mse=[] if val is not None else None,
        val_mae=[] if val is not None else None,
    )
    for epoch in range(1, tconfig.epochs + 1):
        started = clock()
        order = order_rng.permutation(n)
        sq_sum = 0.0
        abs_sum = 0.0
        try:
            for lo in range(0, n, tconfig.batch_size):
                where = f"batch {lo // tconfig.batch_size}"
                batch = order[lo : lo + tconfig.batch_size]
                loss, errors, grads = _batch_loss(
                    params, dataset.x[batch], dataset.y[batch], mconfig
                )
                if not math.isfinite(loss):
                    raise NumericError("non-finite loss")
                sq_sum += float(np.sum(errors * errors))
                abs_sum += float(np.sum(np.abs(errors)))
                if tconfig.grad_clip is not None:
                    clip_gradients(grads.views, tconfig.grad_clip)
                if tconfig.optimizer == "adam":
                    adam_step(params, grads, state, tconfig)
                else:
                    sgd_step(params, grads, tconfig.learning_rate)
            if val is not None:
                where = "validation"
                v_mse, v_mae = evaluate(params, mconfig, val)
        except NumericError as exc:
            raise NumericError(f"{exc} (epoch {epoch}, {where})") from exc
        report.train_mse.append(sq_sum / n)
        report.train_mae.append(abs_sum / n)
        if val is not None:
            report.val_mse.append(v_mse)
            report.val_mae.append(v_mae)
        report.seconds.append(clock() - started)
    return params, report


EVAL_CHUNK = 16  # windows per evaluate forward call: bounds peak memory


def evaluate(
    params: ModelParams, config: ModelConfig, dataset: TimeSeriesDataset
) -> tuple[float, float]:
    """MSE and MAE of the model over every window; never mutates params.

    Windows run in stacks of ``EVAL_CHUNK`` on one tape whose parameter
    leaves need no gradient, so nothing is recorded and the leaves are
    built once.
    """
    n = len(dataset)
    if not n:
        raise DataError("evaluate: dataset is empty")
    tape = Tape()
    leaves = make_param_vars(tape, params, requires_grad=False)
    predictions = np.concatenate([
        build_forward(tape, dataset.x[lo : lo + EVAL_CHUNK], leaves, config)[0].value[:, 0]
        for lo in range(0, n, EVAL_CHUNK)
    ])
    return mse(predictions, dataset.y), mae(predictions, dataset.y)


def export_report(report: TrainReport, path: str) -> None:
    """Write the plot-ready per-epoch CSV; val columns stay blank without a
    validation set.
    """
    lines = ["epoch,train_mse,train_mae,val_mse,val_mae,seconds"]
    for i in range(len(report.train_mse)):
        val_mse = f"{report.val_mse[i]:.17g}" if report.val_mse is not None else ""
        val_mae = f"{report.val_mae[i]:.17g}" if report.val_mae is not None else ""
        lines.append(
            f"{i + 1},{report.train_mse[i]:.17g},{report.train_mae[i]:.17g},"
            f"{val_mse},{val_mae},{report.seconds[i]:.3f}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
