"""Time-series transformer forecasting with hand-rolled backpropagation.

The package is organized bottom-up: the error types (:mod:`.errors`),
atomic file writes and the checkpoint CRC (:mod:`.fileio`), a reverse-mode
autodiff tape whose ops each hold their forward kernel and backward rule
(:mod:`.autodiff`), the transformer architecture, its Xavier init and its
checkpoint format (:mod:`.model`), the training loop and metrics
(:mod:`.training`), CSV/windowing utilities and synthetic generators
(:mod:`.data`), and a CLI (:mod:`.cli`). Every random draw comes from a
``numpy.random.default_rng`` generator seeded from a config or a flag.
"""

# Each module's __all__ is its one list of public names; fileio's stay internal.
from .autodiff import *
from .data import *
from .errors import *
from .model import *
from .training import *

__version__ = "0.1.0"
