"""The seeded random source, float64 coercion and Xavier initialization.

Tensors are plain ``numpy.ndarray`` values in row-major order with
``float64`` entries; the operations on them, each with its backward rule,
are the methods of :class:`tsformer.autodiff.Tape`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError

__all__ = ["RngState", "as_tensor", "xavier_init"]


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


def xavier_init(rows: int, cols: int, rng: RngState) -> np.ndarray:
    """Uniform draw from [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))]."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"xavier_init: extents must be >= 1, got {rows}x{cols}")
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, (rows, cols))
