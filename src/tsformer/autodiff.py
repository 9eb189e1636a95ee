"""Reverse-mode automatic differentiation, and the numeric kernels it
differentiates.

Each ``Tape`` method is the one definition of its operation: it checks
its shape contract, computes the forward value with numpy without writing
its inputs, and writes its backward rule beside it. The tape records
every operation that a gradient can reach. A node holds the op kind, its
input node ids and its backward rule: a closure from the node's adjoint
to one contribution per input (it may give None for an input without a
node, which nothing reads), holding only the arrays and shapes it
reads (a leaf holds its gradient buffer instead); it may be handed an
input's gradient buffer and write that contribution there. Node ids are
append order, so one reverse sweep accumulates adjoints and writes each
leaf's into its buffer. An operation whose inputs all need no gradient
computes the same value and records nothing, so inference leaves the
tape empty and computes values bitwise identical to a recorded pass.

The op set is exactly what the forecasting model and its loss need, on
2-D float64 tensors whose rows are steps of a batch of windows: a linear
layer x w^T + b, add of two same-shape tensors (no broadcast), ReLU, row
LayerNorm, multi-head self-attention over the windows with its q/k/v and
output projections (with all T output rows per window, or only the last
step's, and optionally the residual skip that adds each output step's
input row), and the mean squared error against a constant target. Each
is one node with a closed-form backward rule rather than a composition
of primitives; every matrix product is a numpy matmul inside one of them.

Attention reads its windows from the input's rows in window order, or
by an index [B x T] that names the input row of each window's step t,
and adds a constant per-step offset (the position features). For all T
steps it projects each input row once and adds the offset's projection
per step, so overlapping windows cost one projection per row of the
windows' span. For the last step alone it absorbs the projections
instead: it scores the window rows against W_k^T q of step T-1's query
and projects their weighted sum through W_v, so it forms no keys or
values, and its full T x T weights are computed by the all-steps code
only on request. An indexed backward adds every window step's adjoint
back into its row with one ``np.bincount``, exact and in a fixed order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["Tape", "Var", "GradCheckReport", "grad_check"]


@dataclass(slots=True)
class Node:
    """One recorded operation. An input that needs no gradient has no node,
    and its entry in ``inputs`` is None. ``rule`` never holds a Var or the
    tape, so a tape is freed by reference counting; a leaf's rule is its
    gradient buffer."""

    op: str
    inputs: tuple[int | None, ...]
    rule: Callable[..., tuple[np.ndarray, ...]] | np.ndarray


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


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the attention scores [B, heads, n, T]
    of n query rows per window and head, in place, the row max subtracted
    before exp."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _window_rows(a: np.ndarray, index: np.ndarray | None, offset: np.ndarray | None) -> np.ndarray:
    """Rows ``index`` [B x n] of ``a`` (no index: its own B*n rows), plus
    ``offset`` [n x width] (if given) at each of the n positions: [B*n x width]."""
    if index is None:
        return a if offset is None else (a.reshape(-1, *offset.shape) + offset).reshape(a.shape)
    out = np.take(a, index, axis=0)
    if offset is not None:
        out += offset
    return out.reshape(-1, a.shape[1])


def _add_into_rows(g_x: np.ndarray, index: np.ndarray | None, rows: int) -> np.ndarray:
    """The adjoint of :func:`_window_rows`' output [B*n x width] added into
    the ``rows`` rows it read: with ``index``, by one bincount over flat
    (row, column) indices, so repeated rows sum in a fixed order."""
    if index is None:
        return g_x
    width = g_x.shape[1]
    flat = (index.reshape(-1, 1) * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=g_x.ravel(), minlength=rows * width).reshape(rows, width)


def _project_and_score(h_val, w_qkv_val, windows, steps, heads, scale, index, offset):
    """q, k and v [B, heads, T, head_dim] of every window step, and the
    weights [B, heads, T, T] of every query over its window's keys."""
    rows = h_val.shape[0]
    # the offset's T rows ride in the same product as h's rows: one
    # GEMM of rows+T rows costs less than two, above all for one window
    projected = np.matmul(h_val if offset is None else np.vstack([h_val, offset]), w_qkv_val.T)
    qkv = (projected[:rows].reshape(windows, steps, -1) if index is None
           else np.take(projected, index, axis=0))
    if offset is not None:
        qkv += projected[rows:]
    q, k, v = qkv.reshape(windows, steps, heads, 3, -1).transpose(3, 0, 2, 1, 4)
    return q, k, v, _softmax_rows(np.matmul(q, k.transpose(0, 1, 3, 2)) * scale)


def _all_steps(h_val, w_qkv_val, w_o_val, windows, steps, heads, scale, index, offset, residual):
    """The attention output of every window step, its backward rule and
    the function that returns its weights."""
    rows = h_val.shape[0]
    q, k, v, weights = _project_and_score(
        h_val, w_qkv_val, windows, steps, heads, scale, index, offset)
    head_dim = q.shape[-1]
    mixed = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(-1, heads * head_dim)
    out = np.matmul(mixed, w_o_val)
    x = None  # the window rows, which the backward's w_qkv product reads too
    if residual:
        x = _window_rows(h_val, index, offset)
        out += x

    def rule(g, into):
        g_mixed, g_w_o = g @ w_o_val.T, np.matmul(mixed.T, g, out=into[2])
        g_out = g_mixed.reshape(windows, steps, heads, head_dim).transpose(0, 2, 1, 3)
        g_weights = np.matmul(g_out, v.transpose(0, 1, 3, 2))
        # softmax rule per row, then the scaled score product
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - dot) * scale
        # written in qkv's own row layout, so no copy follows
        g_qkv = np.empty((windows * steps, 3 * heads * head_dim))
        g_q, g_k, g_v = g_qkv.reshape(windows, steps, heads, 3, head_dim).transpose(3, 0, 2, 1, 4)
        np.matmul(g_scores, k, out=g_q)
        np.matmul(g_scores.transpose(0, 1, 3, 2), q, out=g_k)
        np.matmul(weights.transpose(0, 1, 3, 2), g_out, out=g_v)
        # both products on the B*T window rows; with an index, only
        # their narrow [B*T x width] input adjoint, the skip's
        # included, is added back into shared rows
        x_rows = _window_rows(h_val, index, offset) if x is None else x
        g_h = g_qkv @ w_qkv_val
        if residual:
            g_h += g
        g_w_qkv = np.matmul(g_qkv.T, x_rows, out=into[1])
        return _add_into_rows(g_h, index, rows), g_w_qkv, g_w_o

    return out, rule, lambda: weights


def _last_step(h_val, w_qkv_val, w_o_val, windows, steps, heads, scale, index, offset, residual):
    """The attention output of each window's step T-1 alone, its backward
    rule and the function that returns the full weights, with the q/k/v
    projections absorbed (the weight absorption of DeepSeek-V2's latent
    attention): q k_t = (W_k^T q) x_t and sum_t a_t v_t = W_v sum_t a_t x_t."""
    rows, width = h_val.shape
    # views: each [heads, head_dim, width]
    w_q, w_k, w_v = w_qkv_val.reshape(heads, 3, -1, width).transpose(1, 0, 2, 3)
    head_dim = w_q.shape[1]
    x = _window_rows(h_val, index, offset).reshape(windows, steps, width)
    last = x[:, -1]
    q = np.matmul(last, w_q.transpose(0, 2, 1))  # [heads, B, head_dim], step T-1's alone
    u = np.matmul(q, w_k)  # [heads, B, width]: the scores are x u
    u *= scale
    u_b = u.transpose(1, 0, 2)  # [B, heads, width]
    weights = _softmax_rows(np.matmul(u_b, x.transpose(0, 2, 1))[:, :, None])[:, :, 0]
    z = np.matmul(weights, x)  # [B, heads, width], the weighted window rows
    mixed = np.matmul(z.transpose(1, 0, 2), w_v.transpose(0, 2, 1))  # [heads, B, head_dim]
    mixed = mixed.transpose(1, 0, 2).reshape(windows, heads * head_dim)
    out = np.matmul(mixed, w_o_val)
    if residual:
        out += last

    def rule(g, into):
        g_mixed, g_w_o = g @ w_o_val.T, np.matmul(mixed.T, g, out=into[2])
        g_o = g_mixed.reshape(windows, heads, head_dim).transpose(1, 0, 2)  # [heads, B, head_dim]
        g_w_qkv = np.empty(w_qkv_val.shape) if into[1] is None else into[1]
        g_w_q, g_w_k, g_w_v = g_w_qkv.reshape(heads, 3, head_dim, width).transpose(1, 0, 2, 3)
        np.matmul(g_o.transpose(0, 2, 1), z.transpose(1, 0, 2), out=g_w_v)
        # x's adjoint is one product of [weights | g_scores] and [g_z | u]:
        # g_z [B, heads, width] is written into its half, not copied there
        g_z_u = np.empty((windows, 2 * heads, width))
        g_z = g_z_u[:, :heads]
        g_z_u[:, heads:] = u_b
        np.matmul(g_o, w_v, out=g_z.transpose(1, 0, 2))
        g_weights = np.matmul(g_z, x.transpose(0, 2, 1))
        # softmax rule per row; the scores x u are already scaled
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - dot)
        g_u = np.matmul(g_scores, x).transpose(1, 0, 2)  # [heads, B, width]
        g_u *= scale
        np.matmul(q.transpose(0, 2, 1), g_u, out=g_w_k)
        g_q = np.matmul(g_u, w_k.transpose(0, 2, 1))  # [heads, B, head_dim]
        np.matmul(g_q.transpose(0, 2, 1), last, out=g_w_q)
        g_last = np.matmul(g_q, w_q).sum(axis=0)  # step T-1 is projected to q
        if residual:
            g_last += g
        g_x = np.matmul(np.concatenate([weights, g_scores], axis=1).transpose(0, 2, 1), g_z_u)
        g_x[:, -1] += g_last
        return _add_into_rows(g_x.reshape(-1, width), index, rows), g_w_qkv, g_w_o

    return out, rule, lambda: _project_and_score(
        h_val, w_qkv_val, windows, steps, heads, scale, index, offset)[3]


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
        """An input; recorded only with ``grad``, a C-contiguous float64 array
        of its shape that every :meth:`backward` overwrites with the leaf's
        gradient (rules write there through reshaped views of it)."""
        value = np.asarray(value, dtype=np.float64)
        if grad is None:
            return Var(self, None, value)
        if grad.shape != value.shape:
            raise DimensionError(
                f"leaf: gradient buffer shape {grad.shape} does not match value {value.shape}"
            )
        if grad.dtype != np.float64 or not grad.flags.c_contiguous:
            raise DimensionError(
                f"leaf: gradient buffer must be C-contiguous float64, got {grad.dtype} "
                f"with strides {grad.strides}"
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
        x_read = x.nid is not None  # else no input adjoint is formed: nothing reads it
        return self._append(
            "linear", (x, w, b), np.matmul(x_val, w_val.T) + b.value,
            lambda g, into: (g @ w_val if x_read else None,
                             np.matmul(g.T, x_val, out=into[1]),
                             np.add.reduce(g, axis=0, out=into[2])),
        )

    def add(self, a: Var, b: Var) -> Var:
        """Elementwise sum of two tensors of one shape."""
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
        return self._append("add", (a, b), a.value + b.value, lambda g, into: (g, g))

    def relu(self, a: Var) -> Var:
        # out > 0 exactly where a > 0, and the next op keeps out anyway
        out = np.maximum(a.value, 0.0)
        return self._append("relu", (a,), out, lambda g, into: (g * (out > 0.0),))

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
        # the ufunc reductions that mean and var call, without their
        # Python wrappers: the same bits
        n = x_val.shape[1]
        centered = x_val - np.add.reduce(x_val, axis=1, keepdims=True) / n
        var = np.add.reduce(centered * centered, axis=1, keepdims=True) / n
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv_std

        def rule(g, into):
            dxhat = g * gain_val
            m1 = np.add.reduce(dxhat, axis=1, keepdims=True) / n
            m2 = np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / n
            return (inv_std * (dxhat - m1 - xhat * m2),
                    np.add.reduce(g * xhat, axis=0, out=into[1]),
                    np.add.reduce(g, axis=0, out=into[2]))

        return self._append("layer_norm", (x, gain, bias), xhat * gain_val + bias.value, rule)

    def attention(
        self, h: Var, w_qkv: Var, w_o: Var, windows: int, heads: int, scale: float,
        last_only: bool = False, index: np.ndarray | None = None,
        offset: np.ndarray | None = None, residual: bool = False,
    ) -> tuple[Var, Callable[[], np.ndarray]]:
        """Multi-head self-attention of every head over the steps of each
        window (no mask), projections included: Concat(head_i) w_o with
        head_i = softmax(scale * q_i k_i^T) v_i, where q, k and v are the
        columns of x w_qkv^T for the windows' input rows x. The rows of
        ``w_qkv`` are head by head, and q, k, v within a head, each
        head_dim rows; ``w_o`` has heads*head_dim rows. Softmax subtracts
        the row max before exp. Returns the output [B*T x w_o columns] and
        a function that returns the weights [B, heads, T, T].

        By default ``h`` holds ``windows`` windows of T steps as its B*T
        rows, in window order. With ``index`` [windows x T], window b's step
        t is instead row ``index[b, t]`` of ``h``, which is projected once
        however many windows hold it. Window b's step t gets ``offset[t]``
        ([T x width], constant, if given): ``offset w_qkv^T`` added per step.
        With ``residual`` the output adds each output step's input row with
        its offset (the skip x + Attention(x)), and w_o must keep h's width.

        With ``last_only`` only the last step's query is scored: the output
        holds its attention row alone, [B x w_o columns]. The projections
        are then absorbed, and neither pass forms q, k or v for all B*T
        rows: per head, with W_q, W_k and W_v its q, k and v rows of
        ``w_qkv``, q = W_q x_{T-1}, the scores are scale * x (W_k^T q),
        and head_i = W_v (a^T x) for the weights a over the window rows
        x. The full weights are computed, by the all-steps code from h and
        w_qkv as they are then, only if the returned function is called."""
        h_val, w_qkv_val, w_o_val = h.value, w_qkv.value, w_o.value
        for a in (h_val, w_qkv_val, w_o_val):
            _require_2d(a, "attention")
        rows, width = h_val.shape
        if index is None:
            steps = rows // windows if windows >= 1 else 0
            fits = steps * windows == rows
        else:
            steps = index.shape[-1]
            fits = index.shape == (windows, steps)
        if (not fits or windows < 1 or heads < 1 or w_qkv_val.shape[1] != width
                or offset is not None and offset.shape != (steps, width)
                or w_qkv_val.shape[0] % (3 * heads)
                or 3 * w_o_val.shape[0] != w_qkv_val.shape[0]
                or residual and w_o_val.shape[1] != width):
            raise DimensionError(
                f"attention: input {h_val.shape}, w_qkv {w_qkv_val.shape} and w_o "
                f"{w_o_val.shape} do not split into {windows} windows and {heads} heads "
                f"of q, k and v"
            )
        step = _last_step if last_only else _all_steps
        out, rule, weights = step(
            h_val, w_qkv_val, w_o_val, windows, steps, heads, scale, index, offset, residual)
        return self._append("attention", (h, w_qkv, w_o), out, rule), weights

    def mse(self, pred: Var, target: np.ndarray) -> Var:
        """Mean squared error [[mean(d * d)]] of d = pred - target, where
        ``target`` is a plain array of pred's shape that needs no gradient."""
        if target.shape != pred.value.shape:
            raise DimensionError(
                f"mse: target shape {target.shape} differs from prediction {pred.value.shape}"
            )
        d = pred.value - target
        loss = np.add.reduce(d * d, axis=None) / d.size  # mean's reduction, unwrapped
        return self._append("mse", (pred,), np.array([[loss]]),
                            lambda g, into: (g[0, 0] / d.size * d * 2,))

    # -- reverse sweep -----------------------------------------------------

    def backward(self, root: Var) -> None:
        """Overwrite every recorded leaf's buffer with the gradient of a
        scalar root, calling each rule once; a leaf the root does not
        reach (every leaf, when the root has no node) gets zeros. Nothing
        is added to what a buffer held: to sum gradients over several
        sweeps, add the buffers up after each.

        A rule is handed, as ``into``, the buffer of each input that is a
        leaf nothing has written yet, and may write its contribution
        there: a parameter, read once, then costs no array and no add. A
        contribution to a leaf that was not written there is copied in,
        and a later reader of the leaf adds into its buffer. An interior
        node's adjoint starts as its first contribution, copied only when
        that is a consumer's own adjoint passed through, and is freed once
        swept."""
        if root.tape is not self:
            raise DimensionError("backward: root was recorded on a different tape")
        if root.value.size != 1:
            raise DimensionError(
                f"backward: root must be scalar, got shape {root.value.shape}"
            )
        nodes = self.nodes
        buffers = {nid: n.rule for nid, n in enumerate(nodes) if n.op == "leaf"}
        unhanded = dict(buffers)  # each leaf's buffer until a rule is handed it
        adjoints = [None] * len(nodes)  # a leaf's is its buffer once written
        if root.nid is not None:
            adjoints[root.nid] = np.ones_like(root.value)
        for nid in range(len(nodes) - 1, -1, -1):
            g, adjoints[nid] = adjoints[nid], None  # freed once swept
            node = nodes[nid]
            if node.op == "leaf":
                if g is None:
                    node.rule.fill(0.0)
                elif g is not node.rule:  # the root itself
                    node.rule[...] = g
                continue
            if g is None:
                continue
            # a leaf that one node reads twice is handed once
            into = [unhanded.pop(input_id, None) for input_id in node.inputs]
            for input_id, contribution in zip(node.inputs, node.rule(g, into)):
                if input_id is None:
                    continue
                held, buffer = adjoints[input_id], buffers.get(input_id)
                if held is not None:
                    held += contribution
                elif buffer is not None:
                    if contribution is not buffer:
                        buffer[...] = contribution
                    adjoints[input_id] = buffer
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
    arrays = {name: np.asarray(p, dtype=np.float64).copy() for name, p in params.items()}

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
