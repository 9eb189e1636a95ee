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

from .autodiff import GradCheckReport, Tape, Var, grad_check
from .data import (
    Normalizer,
    RawSeries,
    TimeSeriesDataset,
    chrono_split,
    fit_normalizer,
    load_csv,
    make_windows,
    prepare_datasets,
    synth_ar1,
    synth_sine,
)
from .errors import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    ConfigError,
    DataError,
    DimensionError,
    NumericError,
    TsformerError,
)
from .model import (
    ModelConfig,
    ModelParams,
    build_forward,
    forward,
    init_params,
    load_params,
    positional_encoding,
    save_params,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    evaluate,
    export_report,
    mae,
    mse,
    sgd_step,
    train,
)

__version__ = "0.1.0"
