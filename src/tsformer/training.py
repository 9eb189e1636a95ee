"""Loss, metrics, optimizers, and the epoch loop.

Training minimizes mean squared error by reverse-mode backpropagation:
every mini-batch records one forward pass over its windows, read from the
dataset's rows by start index, on a tape, reduces it to a scalar batch
loss, sweeps the tape backward, and applies an SGD or Adam update.
Everything is seeded, so a rerun with the same configs reproduces the
parameters and the report bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, DataError, DimensionError, NumericError
from .data import TimeSeriesDataset
from .fileio import write_csv
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
    "eval_stack_windows",
    "evaluate",
    "export_report",
]

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-3
    batch_size: int = 16
    optimizer: str = "adam"
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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
_ADAM_SLICE = 1 << 16  # values per Adam pass: two 512 KiB scratch buffers


@dataclass
class AdamState:
    """Moment accumulators, scaled: ``m`` and ``v`` hold M = m / (1-b1) and
    V = v / (1-b2) of Kingma & Ba's m and v, laid out like ``ModelParams.flat``;
    the step counter; and the update's scratch, two slice-sized buffers
    allocated once per run."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2, min(self.m.size, _ADAM_SLICE)))

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
    slices, with every temporary written into ``state.scratch``: the
    numbers are those of one pass per parameter, M = b1 M + g,
    V = b2 V + g^2, theta -= step M / (sqrt(V) + eps_hat) with
    step = lr sqrt(c2) / c1 (1-b1) / sqrt(1-b2) and
    eps_hat = eps sqrt(c2) / sqrt(1-b2); nothing is allocated. In exact
    arithmetic that is the bias-corrected update
    theta -= lr (m / c1) / (sqrt(v / c2) + eps) in 10 passes, not 14.
    """
    _check_layout(params, grads, "adam_step")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    step = config.learning_rate * math.sqrt(c2) / c1 * (1.0 - b1) / math.sqrt(1.0 - b2)
    eps_hat = ADAM_EPS * math.sqrt(c2) / math.sqrt(1.0 - b2)
    for lo in range(0, params.flat.size, _ADAM_SLICE):
        part = slice(lo, lo + _ADAM_SLICE)
        g, m, v, p = grads.flat[part], state.m[part], state.v[part], params.flat[part]
        s1, s2 = state.scratch[:, : g.size]
        m *= b1
        m += g
        np.multiply(g, g, out=s1)
        v *= b2
        v += s1
        np.sqrt(v, out=s2)
        s2 += eps_hat
        np.divide(m, s2, out=s1)
        s1 *= step
        p -= s1
    return params, state


def clip_gradients(grads: ModelParams, cap: float) -> float:
    """Scale the gradient vector in place so its L2 norm is at most ``cap``.

    The squared norm is one ``einsum`` reduction over ``grads.flat``, not
    a BLAS dot: a dot's summation order, and so its bits, depend on the
    BLAS thread count. Returns the pre-clip norm.
    """
    g = grads.flat
    norm = math.sqrt(float(np.einsum("i,i->", g, g)))
    if norm > cap:
        g *= cap / norm
    return norm


def _batch_loss(
    tape: Tape, leaves: dict[str, Var], grads: ModelParams,
    rows: np.ndarray, starts: np.ndarray, y: np.ndarray, mconfig: ModelConfig,
) -> tuple[float, np.ndarray]:
    """Forward + backward for one mini-batch: the windows of ``rows`` that
    start at ``starts`` [B], and their targets ``y`` [B].

    ``tape`` holds only the run's parameter ``leaves``, whose gradient
    buffers are the views of ``grads``: zero-filled, then the sweep adds
    the gradients into them, and the tape is cut back to its leaves.
    Returns (mean squared loss, per-window errors).
    """
    grads.flat.fill(0.0)
    predictions, _ = build_forward(tape, rows, starts, leaves, mconfig)
    loss = tape.mse(predictions, y[:, None])
    tape.backward(loss)
    del tape.nodes[len(leaves):]
    return loss.value.item(), predictions.value[:, 0] - y


# A batch loss above this times max(1, the run's first batch loss) is
# divergence. Targets are z-scored, so a healthy loss is O(1).
DIVERGENCE_FACTOR = 1e6


def train(
    dataset: TimeSeriesDataset,
    val: TimeSeriesDataset | None,
    mconfig: ModelConfig,
    tconfig: TrainConfig,
) -> tuple[ModelParams, TrainReport]:
    """Run the full epoch loop and return final parameters plus the report.

    Epoch train metrics aggregate each batch's pre-update errors, the usual
    running training loss. Validation metrics, when a validation set is
    given, come from a clean read-only pass after each epoch. A non-finite
    value in the forward pass or the loss aborts immediately, naming the
    stage, epoch and batch, rather than training through the damage; so
    does a loss over ``DIVERGENCE_FACTOR`` x max(1, first batch loss).
    Each epoch's wall time is logged at INFO (``TST_LOG=info``), not reported.
    """
    n = len(dataset)
    if not n:
        raise DataError("train: dataset is empty")
    shape = (dataset.window_len, dataset.rows.shape[1])
    if shape != (mconfig.window_len, mconfig.input_dim):
        raise ConfigError(
            f"train: dataset windows are {shape}, "
            f"model expects {(mconfig.window_len, mconfig.input_dim)}"
        )
    params = init_params(mconfig)
    grads = ModelParams(mconfig)  # refilled by every batch
    tape = Tape()  # the parameter leaves, built once; each batch records after them
    leaves = make_param_vars(tape, params, grads)
    state = AdamState.zeros(params) if tconfig.optimizer == "adam" else None
    order_rng = np.random.default_rng(tconfig.seed)
    report = TrainReport(
        val_mse=[] if val is not None else None,
        val_mae=[] if val is not None else None,
    )
    cap = None  # the divergence bound, set by the first batch loss
    for epoch in range(1, tconfig.epochs + 1):
        started = perf_counter()
        order = order_rng.permutation(n)
        sq_sum = 0.0
        abs_sum = 0.0
        try:
            for lo in range(0, n, tconfig.batch_size):
                where = f"batch {lo // tconfig.batch_size}"
                batch = order[lo : lo + tconfig.batch_size]
                loss, errors = _batch_loss(tape, leaves, grads, dataset.rows,
                                           dataset.starts[batch], dataset.y[batch], mconfig)
                if not math.isfinite(loss):
                    raise NumericError("non-finite loss")
                cap = cap or DIVERGENCE_FACTOR * max(1.0, loss)
                if loss > cap:
                    raise NumericError(f"loss {loss:.6g} diverged past {cap:.6g}")
                sq_sum += float(np.sum(errors * errors))
                abs_sum += float(np.sum(np.abs(errors)))
                if tconfig.grad_clip is not None:
                    clip_gradients(grads, tconfig.grad_clip)
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
        log.info("epoch %d: %.3f s", epoch, perf_counter() - started)
    return params, report


EVAL_STACK_BYTES = 2 << 20  # 2 MiB: one evaluate stack's widest activation


def eval_stack_windows(config: ModelConfig) -> int:
    """Windows per :func:`evaluate` forward call: as many as fit
    ``EVAL_STACK_BYTES`` at 8 bytes per value of w, the values per window
    of the widest activation a stack holds. In the last block that is the
    largest of the window rows (T x d), the per-head sums of step T-1's
    query (heads x d) and the FFN's hidden layer; a block that runs all T
    steps, as block 0 does when there are more, holds T x the largest of
    q/k/v (3d), the scores (heads x T) and the FFN's hidden layer. w is
    at least 16 values: at the smallest widths the dozen arrays of one
    value per window (indices, predictions) dominate. At least one window.
    """
    steps, width, heads = config.window_len, config.model_dim, config.n_heads
    widest = max(width * max(steps, heads), config.ffn_hidden, 16)
    if config.n_blocks > 1:
        widest = max(widest, steps * max(3 * width, heads * steps, config.ffn_hidden))
    return max(1, EVAL_STACK_BYTES // (8 * widest))


def evaluate(
    params: ModelParams, config: ModelConfig, dataset: TimeSeriesDataset
) -> tuple[float, float]:
    """MSE and MAE of the model over every window; never mutates params.

    Windows run in stacks of :func:`eval_stack_windows` consecutive starts,
    sized so a stack's widest activation takes about ``EVAL_STACK_BYTES``,
    on one tape whose parameter leaves need no gradient, so nothing is
    recorded and the leaves are built once. B stride-1 windows cover
    B+T-1 rows, which block 0 embeds and projects once each.
    """
    n = len(dataset)
    if not n:
        raise DataError("evaluate: dataset is empty")
    if dataset.window_len != config.window_len:
        raise DimensionError(
            f"evaluate: dataset windows have {dataset.window_len} steps, "
            f"model expects {config.window_len}"
        )
    tape = Tape()
    leaves = make_param_vars(tape, params)
    stack = eval_stack_windows(config)
    predictions = np.concatenate([
        build_forward(
            tape, dataset.rows, dataset.starts[lo : lo + stack], leaves, config
        )[0].value[:, 0]
        for lo in range(0, n, stack)
    ])
    return mse(predictions, dataset.y), mae(predictions, dataset.y)


def export_report(report: TrainReport, path: str) -> None:
    """Write the plot-ready per-epoch CSV; val columns stay blank without a
    validation set. It holds no timings, so equal reports give equal bytes.
    """
    n = len(report.train_mse)
    blank = [None] * n
    write_csv(path, ["epoch", "train_mse", "train_mae", "val_mse", "val_mae"],
              zip(range(1, n + 1), report.train_mse, report.train_mae,
                  report.val_mse or blank, report.val_mae or blank))
