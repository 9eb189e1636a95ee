"""Reverse-mode automatic differentiation, and the numeric kernels it
differentiates.

Each ``Tape`` method is the one definition of its operation: it checks
its shape contract, computes the forward value with numpy without writing
its inputs, and writes its backward rule beside it. The tape records
every operation that a gradient can reach. A node holds the op kind, its
input node ids and its backward rule: a closure from the node's adjoint
to one contribution per input, holding only the arrays and shapes it
reads (a leaf holds its gradient buffer instead). Node ids are append
order, so one reverse sweep accumulates adjoints, each leaf's into its
buffer. An operation whose inputs all need no gradient computes the same
value and records nothing, so inference leaves the tape empty and
computes values bitwise identical to a recorded pass.

The op set is exactly what the forecasting model and its loss need, on
2-D float64 tensors whose rows are steps of a batch of windows: a linear
layer x w^T + b, add of two same-shape tensors (no broadcast), ReLU, row
LayerNorm, multi-head self-attention over the windows with its q/k/v and
output projections (with all T output rows per window, or only the last
step's, whose full T x T weights are then computed only on request), a
row slice, and the mean squared error against a constant target. Each is
one node with a closed-form backward rule rather than a composition of
primitives; every matrix product is a numpy matmul inside one of them.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import as_tensor

__all__ = ["Tape", "Var", "GradCheckReport", "grad_check"]


@dataclass(slots=True)
class Node:
    """One recorded operation. An input that needs no gradient has no node,
    and its entry in ``inputs`` is None. ``rule`` never holds a Var or the
    tape, so a tape is freed by reference counting; a leaf's rule is its
    gradient buffer."""

    op: str
    inputs: tuple[int | None, ...]
    rule: Callable[[np.ndarray], tuple[np.ndarray, ...]] | np.ndarray


@dataclass(slots=True)
class Var:
    """Handle to one tape value: its node id (None when no gradient can
    reach it, so nothing was recorded) and its forward value."""

    tape: "Tape"
    nid: int | None
    value: np.ndarray


def _require_2d(a: np.ndarray, op: str) -> None:
    if a.ndim != 2:
        raise DimensionError(f"{op}: expected a 2-D tensor, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError(f"{op}: empty tensor of shape {a.shape}")


def _softmax_scores(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """softmax(scale * q k^T) over the last axis, the row max subtracted
    before exp: the attention weights [B, heads, n, T] of queries ``q``
    [B, heads, n, head_dim] over keys ``k`` [B, heads, T, head_dim]."""
    weights = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


class Tape:
    """Append-only record of operations, each with its backward rule, for
    one reverse sweep; ops return Vars that hold the forward values."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, op, inputs: tuple[Var, ...], value, rule) -> Var:
        for v in inputs:
            if v.nid is not None:
                break
        else:
            return Var(self, None, value)
        self.nodes.append(Node(op, tuple([v.nid for v in inputs]), rule))
        return Var(self, len(self.nodes) - 1, value)

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, grad: np.ndarray | None = None) -> Var:
        """An input; recorded only with ``grad``, a zeroed array of its shape
        that every :meth:`backward` adds the leaf's gradient into."""
        value = as_tensor(value)
        if grad is None:
            return Var(self, None, value)
        if grad.shape != value.shape:
            raise DimensionError(
                f"leaf: gradient buffer shape {grad.shape} does not match value {value.shape}"
            )
        self.nodes.append(Node("leaf", (), grad))
        return Var(self, len(self.nodes) - 1, value)

    # -- recorded operations ---------------------------------------------

    def linear(self, x: Var, w: Var, b: Var) -> Var:
        """x [m x k] @ w^T + b, for weights w [n x k] and a bias b [n]."""
        x_val, w_val = x.value, w.value
        _require_2d(x_val, "linear")
        _require_2d(w_val, "linear")
        if x_val.shape[1] != w_val.shape[1] or b.value.shape != (w_val.shape[0],):
            raise DimensionError(
                f"linear: input {x_val.shape}, weights {w_val.shape} and bias "
                f"{b.value.shape} do not fit x w^T + b"
            )
        return self._append(
            "linear", (x, w, b), np.matmul(x_val, w_val.T) + b.value,
            lambda g: (g @ w_val, g.T @ x_val, g.sum(axis=0)),
        )

    def add(self, a: Var, b: Var) -> Var:
        """Elementwise sum of two tensors of one shape."""
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
        return self._append("add", (a, b), a.value + b.value, lambda g: (g, g))

    def relu(self, a: Var) -> Var:
        # out > 0 exactly where a > 0, and the next op keeps out anyway
        out = np.maximum(a.value, 0.0)
        return self._append("relu", (a,), out, lambda g: (g * (out > 0.0),))

    def layer_norm(self, x: Var, gain: Var, bias: Var, eps: float) -> Var:
        """Each row normalized to zero mean and unit population variance,
        then scaled by ``gain`` and shifted by ``bias``."""
        x_val, gain_val = x.value, gain.value
        _require_2d(x_val, "layer_norm")
        if gain_val.shape != (x_val.shape[1],) or bias.value.shape != (x_val.shape[1],):
            raise DimensionError(
                f"layer_norm: gain/bias shapes {gain_val.shape}/{bias.value.shape} "
                f"do not match row width {x_val.shape[1]}"
            )
        mean = x_val.mean(axis=1, keepdims=True)
        var = x_val.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x_val - mean) * inv_std

        def rule(g):
            dxhat = g * gain_val
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            return inv_std * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=0), g.sum(axis=0)

        return self._append("layer_norm", (x, gain, bias), xhat * gain_val + bias.value, rule)

    def attention(
        self, h: Var, w_qkv: Var, w_o: Var, windows: int, heads: int, scale: float,
        last_only: bool = False,
    ) -> tuple[Var, Callable[[], np.ndarray]]:
        """Multi-head self-attention of every head over the steps of each
        window (no mask), projections included: Concat(head_i) w_o with
        head_i = softmax(scale * q_i k_i^T) v_i, where q, k and v are the
        columns of h w_qkv^T. ``h`` holds ``windows`` windows of T steps as
        its B*T rows. The rows of ``w_qkv`` are head by head, and q, k, v
        within a head, each head_dim rows; ``w_o`` has heads*head_dim rows.
        Softmax subtracts the row max before exp. Returns the output
        [B*T x w_o columns] and a function that returns the weights
        [B, heads, T, T].

        With ``last_only`` only the last step's query is scored: the output
        holds its attention row alone, [B x w_o columns], and gradients
        reach q only at that step. The full weights are then computed, by
        the same softmax from the same q and k, only if the returned
        function is called."""
        h_val, w_qkv_val, w_o_val = h.value, w_qkv.value, w_o.value
        for a in (h_val, w_qkv_val, w_o_val):
            _require_2d(a, "attention")
        rows, width = h_val.shape
        if (windows < 1 or heads < 1 or rows % windows or w_qkv_val.shape[1] != width
                or w_qkv_val.shape[0] % (3 * heads)
                or 3 * w_o_val.shape[0] != w_qkv_val.shape[0]):
            raise DimensionError(
                f"attention: input {h_val.shape}, w_qkv {w_qkv_val.shape} and w_o "
                f"{w_o_val.shape} do not split into {windows} windows and {heads} heads "
                f"of q, k and v"
            )
        steps, head_dim = rows // windows, w_qkv_val.shape[0] // (3 * heads)
        queries = slice(steps - 1, None) if last_only else slice(None)
        qkv = np.matmul(h_val, w_qkv_val.T)
        q, k, v = qkv.reshape(windows, steps, heads, 3, head_dim).transpose(3, 0, 2, 1, 4)
        weights = _softmax_scores(q[:, :, queries], k, scale)
        mixed = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(-1, heads * head_dim)
        out = np.matmul(mixed, w_o_val)

        def rule(g):
            g_mixed, g_w_o = g @ w_o_val.T, mixed.T @ g
            g_out = g_mixed.reshape(windows, -1, heads, head_dim).transpose(0, 2, 1, 3)
            g_weights = np.matmul(g_out, v.transpose(0, 1, 3, 2))
            # softmax rule per row, then the scaled score product
            dot = (g_weights * weights).sum(axis=-1, keepdims=True)
            g_scores = weights * (g_weights - dot) * scale
            g_qkv = np.zeros((3,) + v.shape)  # g_q is 0 at steps no query reads
            np.matmul(g_scores, k, out=g_qkv[0][:, :, queries])
            np.matmul(g_scores.transpose(0, 1, 3, 2), q[:, :, queries], out=g_qkv[1])
            np.matmul(weights.transpose(0, 1, 3, 2), g_out, out=g_qkv[2])
            g_qkv = g_qkv.transpose(1, 3, 2, 0, 4).reshape(rows, -1)
            return g_qkv @ w_qkv_val, g_qkv.T @ h_val, g_w_o

        if last_only:
            all_weights = functools.partial(_softmax_scores, q, k, scale)
        else:
            all_weights = lambda: weights
        return self._append("attention", (h, w_qkv, w_o), out, rule), all_weights

    def take_rows(self, a: Var, rows: slice) -> Var:
        shape = a.value.shape

        def rule(g):
            full = np.zeros(shape)
            full[rows] = g
            return (full,)

        return self._append("take_rows", (a,), a.value[rows], rule)

    def mse(self, pred: Var, target: np.ndarray) -> Var:
        """Mean squared error [[mean(d * d)]] of d = pred - target, where
        ``target`` is a plain array of pred's shape that needs no gradient."""
        if target.shape != pred.value.shape:
            raise DimensionError(
                f"mse: target shape {target.shape} differs from prediction {pred.value.shape}"
            )
        d = pred.value - target
        return self._append(
            "mse", (pred,), np.array([[(d * d).mean()]]), lambda g: (g[0, 0] / d.size * d * 2,)
        )

    # -- reverse sweep -----------------------------------------------------

    def backward(self, root: Var) -> None:
        """Add the gradient of a scalar root into every recorded leaf's
        buffer (nothing when the root has no node), calling each rule once.
        An interior node's adjoint starts as its first contribution, copied
        only when that is a consumer's own adjoint passed through, and is
        freed once swept."""
        if root.tape is not self:
            raise DimensionError("backward: root was recorded on a different tape")
        if root.value.size != 1:
            raise DimensionError(
                f"backward: root must be scalar, got shape {root.value.shape}"
            )
        if root.nid is None:
            return
        adjoints = [n.rule if n.op == "leaf" else None for n in self.nodes[: root.nid + 1]]
        if adjoints[root.nid] is None:
            adjoints[root.nid] = np.zeros_like(root.value)
        adjoints[root.nid] += 1.0
        for nid in range(root.nid, -1, -1):
            g, adjoints[nid] = adjoints[nid], None  # freed once swept
            node = self.nodes[nid]
            if g is None or node.op == "leaf":
                continue
            for input_id, contribution in zip(node.inputs, node.rule(g)):
                if input_id is None:
                    continue
                if adjoints[input_id] is not None:
                    adjoints[input_id] += contribution
                else:
                    adjoints[input_id] = contribution.copy() if contribution is g else contribution


GRAD_CHECK_STEP = 1e-6
GRAD_CHECK_TOLERANCE = 1e-5


@dataclass
class GradCheckReport:
    """Max relative error per parameter from central finite differences."""

    errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def grad_check(f, params: dict[str, np.ndarray]) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central differences.

    ``f(tape, leaves)`` must build a scalar Var from ``leaves``, a dict of
    recorded leaves mirroring ``params``. For every parameter element
    the numeric gradient is (f(p+h) - f(p-h)) / (2 h) at h =
    ``GRAD_CHECK_STEP``, and the relative error is |a-n| / max(1e-8,
    |a|+|n|); the report carries the max per parameter and passes below
    ``GRAD_CHECK_TOLERANCE``. ``params`` is copied once and only the copies
    are perturbed, so the caller's arrays are never written.
    """
    arrays = {name: as_tensor(p).copy() for name, p in params.items()}

    tape = Tape()
    grads = {name: np.zeros_like(p) for name, p in arrays.items()}
    leaves = {name: tape.leaf(p, grads[name]) for name, p in arrays.items()}
    root = f(tape, leaves)
    if root.value.size != 1:
        raise DimensionError(
            f"grad_check: f must evaluate to a scalar, got shape {root.value.shape}"
        )
    tape.backward(root)

    def value() -> float:
        local = Tape()
        return f(local, {name: local.leaf(p) for name, p in arrays.items()}).value.item()

    errors: dict[str, float] = {}
    for name, p in arrays.items():
        worst = 0.0
        flat = p.reshape(-1)  # a view: copies are C-contiguous
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + GRAD_CHECK_STEP
            f_plus = value()
            flat[i] = original - GRAD_CHECK_STEP
            f_minus = value()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            worst = max(worst, _relative_error(grads[name].ravel()[i], numeric))
        errors[name] = worst
    return GradCheckReport(errors, GRAD_CHECK_TOLERANCE)
