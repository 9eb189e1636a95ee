"""Dense float64 array kernels every other module builds on.

Tensors are plain ``numpy.ndarray`` values in row-major order with
``float64`` entries. Kernels validate their shape contracts explicitly,
allocate fresh outputs, and never mutate inputs, so results are safe to
share and bitwise reproducible run to run for identical inputs.

Kernels work on 2-D ``(rows, width)`` tensors; a batch of windows is one
tensor of ``B*T`` rows. ``softmax_rows`` also takes stacks of 2-D
tensors, and ``attention`` splits its ``B*T`` rows into B windows of T
steps. Broadcasting is deliberately limited: the only allowed mismatch is
a bias row vector over the last dimension of a 2-D tensor. Anything
fancier is rejected so the kernels stay easy to audit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError

__all__ = [
    "RngState",
    "as_tensor",
    "matmul",
    "add",
    "sub",
    "mul",
    "softmax_rows",
    "layer_norm_rows",
    "attention",
    "xavier_init",
]


class RngState:
    """Seeded, reproducible random source.

    Wraps numpy's PCG64 bit generator: the same seed yields the same draw
    sequence on every run (and across platforms for a fixed numpy version).
    A negative seed is a ConfigError.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float64, copy=False)

    def normal(self, std: float, shape: tuple[int, ...]) -> np.ndarray:
        return (self._gen.standard_normal(size=shape) * std).astype(np.float64, copy=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def as_tensor(values) -> np.ndarray:
    """Coerce nested lists / arrays to a float64 ndarray."""
    return np.asarray(values, dtype=np.float64)


def _require_2d(a: np.ndarray, op: str) -> None:
    if a.ndim != 2:
        raise DimensionError(f"{op}: expected a 2-D tensor, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError(f"{op}: empty tensor of shape {a.shape}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [m x k] and b [k x n]."""
    a = as_tensor(a)
    b = as_tensor(b)
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner extents disagree for shapes {a.shape} and {b.shape}"
        )
    return np.matmul(a, b)


def _check_elementwise(a: np.ndarray, b: np.ndarray, op: str) -> bool:
    """Validate shapes for pointwise ops; True when b is a bias row vector."""
    if b.shape == a.shape:
        return False
    # Bias broadcast: b is a row vector over a's last dimension.
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        return True
    if a.ndim == 2 and b.ndim == 2 and b.shape == (1, a.shape[1]):
        return True
    raise DimensionError(
        f"{op}: shapes {a.shape} and {b.shape} are neither equal nor "
        "row-vector broadcastable over the last dimension"
    )


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_tensor(a)
    b = as_tensor(b)
    _check_elementwise(a, b, "add")
    return a + b


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_tensor(a)
    b = as_tensor(b)
    _check_elementwise(a, b, "sub")
    return a - b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_tensor(a)
    b = as_tensor(b)
    _check_elementwise(a, b, "mul")
    return a * b


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max subtraction for stability, of a
    2-D tensor or a stack of them.

    Every output row is nonnegative and sums to 1 (within roundoff) for any
    finite input, including rows with large entries.
    """
    a = as_tensor(a)
    if a.ndim < 2 or a.size == 0:
        raise DimensionError(f"softmax_rows: expected non-empty rows, got shape {a.shape}")
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_rows(
    x: np.ndarray,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise normalization to zero mean / unit variance plus affine.

    Uses the population variance over each row. Returns ``(out, xhat,
    inv_std)`` so callers that need the backward rule can reuse the saved
    intermediates; plain callers take element 0.
    """
    x = as_tensor(x)
    gain = as_tensor(gain)
    bias = as_tensor(bias)
    _require_2d(x, "layer_norm_rows")
    if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise DimensionError(
            f"layer_norm_rows: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match row width {x.shape[1]}"
        )
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return xhat * gain + bias, xhat, inv_std


def attention(
    qkv: np.ndarray, windows: int, heads: int, scale: float
) -> tuple[np.ndarray, ...]:
    """Self-attention of every head over the steps of each window (no mask).

    ``qkv`` holds ``windows`` windows of T steps as its B*T rows. Its
    columns are head by head, and q, k, v within a head, each ``head_dim``
    wide. Per window and head the weights are softmax(scale * q k^T) and
    the output is weights @ v. Returns ``(out, weights, q, k, v)``: ``out``
    is [B*T x heads*head_dim] with the heads side by side, ``weights`` is
    [B, heads, T, T], and the [B, heads, T, head_dim] views of ``qkv`` are
    for callers that need the backward rule; plain callers take the first
    two.
    """
    qkv = as_tensor(qkv)
    _require_2d(qkv, "attention")
    rows, width = qkv.shape
    if windows < 1 or heads < 1 or rows % windows or width % (3 * heads):
        raise DimensionError(
            f"attention: shape {qkv.shape} does not split into {windows} windows "
            f"and {heads} heads of q, k and v"
        )
    steps, head_dim = rows // windows, width // (3 * heads)
    q, k, v = qkv.reshape(windows, steps, heads, 3, head_dim).transpose(3, 0, 2, 1, 4)
    weights = softmax_rows(np.matmul(q, k.transpose(0, 1, 3, 2)) * scale)
    out = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(rows, heads * head_dim)
    return out, weights, q, k, v


def xavier_init(rows: int, cols: int, rng: RngState) -> np.ndarray:
    """Uniform draw from [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))]."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"xavier_init: extents must be >= 1, got {rows}x{cols}")
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, (rows, cols))
