"""Reverse-mode automatic differentiation over the tensor kernels.

A ``Tape`` records every operation that a gradient can reach: each node
stores the op kind, the ids of its input nodes, the forward value, and
whatever saved tensors its backward rule needs. Node ids are append order,
so inputs always precede consumers and a single reverse sweep propagates
adjoints with plain accumulation. An operation whose inputs all need no
gradient runs the same kernel and records nothing, so a forward pass over
leaves without gradients (inference) leaves the tape empty. Forward values
are computed by the kernels in :mod:`tsformer.tensor` either way, so a
recorded value is bitwise identical to an unrecorded one.

The op set is exactly what the forecasting model and its loss need:
matmul (optionally with a transposed right factor), add/sub/mul with the
bias row-vector broadcast, scalar scaling, ReLU, row softmax, row
LayerNorm, column concat, row slicing, and mean/sum reductions. Softmax
and LayerNorm use closed-form backward rules rather than being decomposed
into primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import DimensionError

__all__ = ["Tape", "Var", "GradCheckReport", "grad_check"]


@dataclass(slots=True)
class Node:
    """One recorded operation. An input that needs no gradient has no node,
    and its entry in ``inputs`` is None."""

    op: str
    inputs: tuple[int | None, ...]
    value: np.ndarray
    ctx: tuple


@dataclass(slots=True)
class Var:
    """Handle to one tape value: its node id (None when no gradient can
    reach it, so nothing was recorded) and its forward value."""

    tape: "Tape"
    nid: int | None
    value: np.ndarray

    @property
    def requires_grad(self) -> bool:
        return self.nid is not None


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a full-shape gradient down to a broadcast row vector's shape."""
    if g.shape == shape:
        return g
    if len(shape) == 1:
        return g.sum(axis=0)
    return g.sum(axis=0, keepdims=True)


class Tape:
    """Append-only record of operations supporting one reverse sweep."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def _append(self, op, inputs: tuple[Var, ...], value, ctx=()) -> Var:
        for v in inputs:
            if v.nid is not None:
                break
        else:
            return Var(self, None, value)
        self.nodes.append(Node(op, tuple([v.nid for v in inputs]), value, ctx))
        return Var(self, len(self.nodes) - 1, value)

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, requires_grad: bool = False) -> Var:
        value = tensor.as_tensor(value)
        if not requires_grad:
            return Var(self, None, value)
        self.nodes.append(Node("leaf", (), value, ()))
        return Var(self, len(self.nodes) - 1, value)

    # -- recorded operations ---------------------------------------------

    def matmul(self, a: Var, b: Var, transpose_b: bool = False) -> Var:
        rhs = b.value.T if transpose_b else b.value
        value = tensor.matmul(a.value, rhs)
        return self._append("matmul", (a, b), value, (a.value, b.value, transpose_b))

    def add(self, a: Var, b: Var) -> Var:
        return self._append("add", (a, b), tensor.add(a.value, b.value), (b.value.shape,))

    def sub(self, a: Var, b: Var) -> Var:
        return self._append("sub", (a, b), tensor.sub(a.value, b.value), (b.value.shape,))

    def mul(self, a: Var, b: Var) -> Var:
        value = tensor.mul(a.value, b.value)
        return self._append("mul", (a, b), value, (a.value, b.value))

    def scale(self, a: Var, c: float) -> Var:
        return self._append("scale", (a,), float(c) * a.value, (float(c),))

    def relu(self, a: Var) -> Var:
        return self._append("relu", (a,), np.maximum(a.value, 0.0), (a.value,))

    def softmax_rows(self, a: Var) -> Var:
        value = tensor.softmax_rows(a.value)
        return self._append("softmax_rows", (a,), value, (value,))

    def layer_norm(self, x: Var, gain: Var, bias: Var, eps: float) -> Var:
        value, xhat, inv_std = tensor.layer_norm_rows(x.value, gain.value, bias.value, eps)
        return self._append("layer_norm", (x, gain, bias), value, (xhat, inv_std, gain.value))

    def concat_cols(self, parts: list[Var]) -> Var:
        value = tensor.concat_cols([p.value for p in parts])
        widths = tuple(p.value.shape[1] for p in parts)
        return self._append("concat_cols", tuple(parts), value, (widths,))

    def take_row(self, a: Var, row: int) -> Var:
        if a.value.ndim != 2 or not 0 <= row < a.value.shape[0]:
            raise DimensionError(
                f"take_row: row {row} out of range for shape {a.value.shape}"
            )
        return self._append("take_row", (a,), a.value[row : row + 1, :], (row, a.value.shape))

    def mean_all(self, a: Var) -> Var:
        value = np.array([[a.value.mean()]])
        return self._append("mean_all", (a,), value, (a.value.shape, a.value.size))

    def sum_all(self, a: Var) -> Var:
        value = np.array([[a.value.sum()]])
        return self._append("sum_all", (a,), value, (a.value.shape, a.value.size))

    # -- reverse sweep -----------------------------------------------------

    def backward(self, root: Var) -> list[np.ndarray | None]:
        """Propagate adjoints from a scalar root back to every grad-requiring
        node. Returns gradients indexed by node id (None where not needed,
        and everywhere when the root itself has no node); each gradient has
        the shape of its node's value.
        """
        if root.tape is not self:
            raise DimensionError("backward: root was recorded on a different tape")
        if root.value.size != 1:
            raise DimensionError(
                f"backward: root must be scalar, got shape {root.value.shape}"
            )
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        if root.nid is None:
            return grads
        grads[root.nid] = np.ones_like(root.value)
        for nid in range(root.nid, -1, -1):
            g = grads[nid]
            node = self.nodes[nid]
            if g is None or node.op == "leaf":
                continue
            for input_id, contribution in self._input_grads(node, g):
                if input_id is None:
                    continue
                if grads[input_id] is None:
                    grads[input_id] = np.zeros_like(self.nodes[input_id].value)
                grads[input_id] += contribution
        return grads

    def _input_grads(self, node: Node, g: np.ndarray):
        op = node.op
        if op == "matmul":
            a, b, transpose_b = node.ctx
            if transpose_b:
                yield node.inputs[0], g @ b
                yield node.inputs[1], g.T @ a
            else:
                yield node.inputs[0], g @ b.T
                yield node.inputs[1], a.T @ g
        elif op == "add":
            (b_shape,) = node.ctx
            yield node.inputs[0], g
            yield node.inputs[1], _reduce_to(g, b_shape)
        elif op == "sub":
            (b_shape,) = node.ctx
            yield node.inputs[0], g
            yield node.inputs[1], _reduce_to(-g, b_shape)
        elif op == "mul":
            a, b = node.ctx
            yield node.inputs[0], g * b
            yield node.inputs[1], _reduce_to(g * a, b.shape)
        elif op == "scale":
            (c,) = node.ctx
            yield node.inputs[0], c * g
        elif op == "relu":
            (a,) = node.ctx
            yield node.inputs[0], g * (a > 0.0)
        elif op == "softmax_rows":
            (s,) = node.ctx
            # dL/dx = s * (g - sum_j g_j s_j) per row
            dot = (g * s).sum(axis=1, keepdims=True)
            yield node.inputs[0], s * (g - dot)
        elif op == "layer_norm":
            xhat, inv_std, gain = node.ctx
            dxhat = g * gain
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            yield node.inputs[0], inv_std * (dxhat - m1 - xhat * m2)
            yield node.inputs[1], (g * xhat).sum(axis=0)
            yield node.inputs[2], g.sum(axis=0)
        elif op == "concat_cols":
            (widths,) = node.ctx
            offset = 0
            for input_id, w in zip(node.inputs, widths):
                yield input_id, g[:, offset : offset + w]
                offset += w
        elif op == "take_row":
            row, shape = node.ctx
            full = np.zeros(shape)
            full[row, :] = g[0, :]
            yield node.inputs[0], full
        elif op in ("mean_all", "sum_all"):
            shape, size = node.ctx
            unit = g[0, 0] / size if op == "mean_all" else g[0, 0]
            yield node.inputs[0], np.full(shape, unit)
        else:  # pragma: no cover - every recorded op is handled above
            raise AssertionError(f"no backward rule for op {op!r}")


@dataclass
class GradCheckReport:
    """Max relative error per parameter from central finite differences."""

    errors: dict[str, float]
    step: float
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def grad_check(
    f,
    params: dict[str, np.ndarray],
    step: float = 1e-6,
    tolerance: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central differences.

    ``f(tape, leaves)`` must build a scalar Var from ``leaves``, a dict of
    grad-requiring Vars mirroring ``params``. For every parameter element
    the numeric gradient is (f(p+step) - f(p-step)) / (2 step) and the
    relative error is |a-n| / max(1e-8, |a|+|n|); the report carries the
    max per parameter.
    """
    if step <= 0:
        raise DimensionError(f"grad_check: step must be positive, got {step}")
    arrays = {name: tensor.as_tensor(p) for name, p in params.items()}

    tape = Tape()
    leaves = {name: tape.leaf(p, requires_grad=True) for name, p in arrays.items()}
    root = f(tape, leaves)
    if root.value.size != 1:
        raise DimensionError(
            f"grad_check: f must evaluate to a scalar, got shape {root.value.shape}"
        )
    grads = tape.backward(root)

    def value_at(perturbed: dict[str, np.ndarray]) -> float:
        local = Tape()
        local_leaves = {name: local.leaf(p) for name, p in perturbed.items()}
        return f(local, local_leaves).value.item()

    errors: dict[str, float] = {}
    for name, p in arrays.items():
        analytic = grads[leaves[name].nid]
        if analytic is None:
            analytic = np.zeros_like(p)
        worst = 0.0
        flat = p.ravel()
        for i in range(flat.size):
            original = flat[i]
            work = dict(arrays)
            bumped = p.copy()
            bumped.ravel()[i] = original + step
            work[name] = bumped
            f_plus = value_at(work)
            bumped = p.copy()
            bumped.ravel()[i] = original - step
            work[name] = bumped
            f_minus = value_at(work)
            numeric = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, _relative_error(analytic.ravel()[i], numeric))
        errors[name] = worst
    return GradCheckReport(errors, step, tolerance)
