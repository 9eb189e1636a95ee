"""CSV ingestion, normalization, windowing, splitting, and synthetic series.

The ingestion path is deliberately generic: any numeric CSV with a header
row becomes a supervised forecasting dataset by sliding a length-T window
over the rows (stride 1) and pairing each window with the target-column
value ``horizon`` steps past the window's end. Categorical columns are
rejected unless the caller supplies an explicit value-to-code mapping.

Splits are chronological, never random, so validation windows always lie
strictly later in time than training windows, and normalization statistics
are fitted on training rows only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import atomic_write_text
from .tensor import RngState

__all__ = [
    "RawSeries",
    "TimeSeriesDataset",
    "Normalizer",
    "load_csv",
    "load_mapping",
    "write_series_csv",
    "make_windows",
    "fit_normalizer",
    "chrono_split",
    "synth_sine",
    "synth_ar1",
    "prepare_datasets",
]


@dataclass
class RawSeries:
    """A rectangular numeric series in file order.

    ``columns`` names every stored column; ``features`` is the subset (in
    order) used as model inputs and ``target`` the column being forecast.
    The target may itself be a feature, the usual univariate setup.
    """

    columns: list[str]
    rows: np.ndarray  # (n_rows, len(columns))
    target: str
    features: list[str]

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise DataError(
                f"series rows shape {self.rows.shape} does not match "
                f"{len(self.columns)} columns"
            )
        if self.target not in self.columns:
            raise DataError(f"target column {self.target!r} not among columns")
        for name in self.features:
            if name not in self.columns:
                raise DataError(f"feature column {name!r} not among columns")

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    @property
    def feature_matrix(self) -> np.ndarray:
        idx = [self.columns.index(name) for name in self.features]
        return self.rows[:, idx]

    @property
    def target_values(self) -> np.ndarray:
        return self.column(self.target)


@dataclass
class TimeSeriesDataset:
    """Windowed supervised pairs: window ``x[i]`` [window_len x input_dim]
    and its scalar target ``y[i]``. A batch is ``x[indices]``."""

    x: np.ndarray  # (n, window_len, input_dim)
    y: np.ndarray  # (n,)
    horizon: int

    def __len__(self) -> int:
        return self.x.shape[0]


def _read_rows(path: str) -> list[list[str]]:
    """Every row of a UTF-8 CSV file, a leading BOM dropped. Bytes that are
    not UTF-8 and malformed CSV, such as an oversized field, are a
    DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def load_mapping(path: str) -> dict[str, float]:
    """Read a two-column ``value,code`` CSV into a lookup table."""
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["value", "code"]:
        raise DataError(f"mapping file {path} must start with header 'value,code'")
    mapping: dict[str, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"mapping file {path} row {lineno}: expected 2 cells")
        try:
            mapping[row[0]] = float(row[1])
        except ValueError:
            raise DataError(
                f"mapping file {path} row {lineno}: code {row[1]!r} is not numeric"
            ) from None
    return mapping


def load_csv(
    path: str,
    target: str,
    features: list[str] | None = None,
    mappings: dict[str, dict[str, float]] | None = None,
) -> RawSeries:
    """Read selected columns of a headered CSV, in file order.

    ``features`` defaults to every column in the file. Cells must parse as
    finite numbers; for columns listed in ``mappings`` the cell is instead
    looked up in the given value-to-code table. Parse failures report the
    file row (header is row 1) and the column name.
    """
    mappings = mappings or {}
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [c.strip() for c in rows[0]]
    data_rows = rows[1:]
    if features is None:
        features = list(header)
    if len(set(features)) != len(features):
        raise DataError(f"duplicate feature columns in {features}")
    wanted = list(features)
    if target not in wanted:
        wanted.append(target)
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {', '.join(repr(c) for c in missing)}")
    if not data_rows:
        raise DataError(f"{path}: no data rows after the header")

    indices = [header.index(c) for c in wanted]
    values = np.empty((len(data_rows), len(wanted)))
    for r, row in enumerate(data_rows):
        file_row = r + 2  # header occupies row 1
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {file_row} has {len(row)} cells, expected {len(header)}"
            )
        for j, (name, col) in enumerate(zip(wanted, indices)):
            cell = row[col].strip()
            mapping = mappings.get(name)
            if mapping is not None:
                if cell not in mapping:
                    raise DataError(
                        f"{path}: row {file_row}, column {name!r}: "
                        f"value {cell!r} not in the supplied mapping"
                    )
                values[r, j] = mapping[cell]
                continue
            try:
                parsed = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {file_row}, column {name!r}: "
                    f"cannot parse {cell!r} as a number (categorical columns "
                    "need a value,code mapping)"
                ) from None
            if not math.isfinite(parsed):
                raise DataError(
                    f"{path}: row {file_row}, column {name!r}: non-finite value {cell!r}"
                )
            values[r, j] = parsed
    return RawSeries(columns=wanted, rows=values, target=target, features=list(features))


def write_series_csv(series: RawSeries, path: str) -> None:
    lines = [",".join(series.columns)]
    for row in series.rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _window_count(n_rows: int, window_len: int, horizon: int) -> int:
    """How many stride-1 windows ``n_rows`` rows give."""
    if window_len < 1:
        raise DataError(f"window_len must be >= 1, got {window_len}")
    if horizon < 1:
        raise DataError(f"horizon must be >= 1, got {horizon}")
    needed = window_len + horizon
    if n_rows < needed:
        raise DataError(
            f"need at least {needed} rows for window_len={window_len} "
            f"horizon={horizon}, got {n_rows}"
        )
    return n_rows - needed + 1


def _train_count(count: int, train_fraction: float) -> int:
    """Training windows in a chronological split: floor(count * fraction),
    leaving at least one window on each side."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    k = int(count * train_fraction)
    if k < 1 or k >= count:
        raise DataError(
            f"degenerate split: {count} windows with fraction {train_fraction} "
            f"gives {k} train windows"
        )
    return k


def make_windows(series: RawSeries, window_len: int, horizon: int) -> TimeSeriesDataset:
    """Stride-1 sliding windows over the feature columns.

    Window s covers rows s..s+window_len-1 and its target is the target
    column at row s+window_len-1+horizon, so the count is
    rows - window_len - horizon + 1.
    """
    count = _window_count(series.rows.shape[0], window_len, horizon)
    # sliding_window_view puts the step axis last: (starts, features, steps)
    views = np.lib.stride_tricks.sliding_window_view(series.feature_matrix, window_len, axis=0)
    return TimeSeriesDataset(
        x=np.ascontiguousarray(views[:count].transpose(0, 2, 1)),
        y=np.ascontiguousarray(series.target_values[window_len - 1 + horizon :]),
        horizon=horizon,
    )


STD_FLOOR = 1e-8


@dataclass
class Normalizer:
    """Per-column z-score statistics; the target column keeps its own pair
    so metrics can be reported on either scale."""

    columns: list[str]
    means: np.ndarray
    stds: np.ndarray
    target: str

    @property
    def target_mean(self) -> float:
        return float(self.means[self.columns.index(self.target)])

    @property
    def target_std(self) -> float:
        return float(self.stds[self.columns.index(self.target)])

    def apply(self, series: RawSeries) -> RawSeries:
        if series.columns != self.columns:
            raise DataError(
                f"normalizer fitted on columns {self.columns}, got {series.columns}"
            )
        rows = (series.rows - self.means) / self.stds
        return RawSeries(
            columns=series.columns,
            rows=rows,
            target=series.target,
            features=series.features,
        )

    def invert_target(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.target_std + self.target_mean


def fit_normalizer(series: RawSeries, n_rows: int | None = None) -> Normalizer:
    """Fit per-column mean/std on the first ``n_rows`` rows (default all).

    Standard deviations are floored at 1e-8 so constant columns transform
    to zeros instead of dividing by zero.
    """
    rows = series.rows if n_rows is None else series.rows[:n_rows]
    if rows.shape[0] < 1:
        raise DataError("fit_normalizer: need at least one row")
    means = rows.mean(axis=0)
    stds = np.maximum(rows.std(axis=0), STD_FLOOR)
    return Normalizer(
        columns=list(series.columns), means=means, stds=stds, target=series.target
    )


def chrono_split(
    dataset: TimeSeriesDataset, train_fraction: float
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Split windows by start index: the first floor(count * fraction)
    windows train, the rest validate.

    Validation inputs may overlap training rows, but no training label
    leaks: with stride-1 windows, validation window s >= k has its target
    at row s + span, past the last training target row (k - 1) + span.
    """
    k = _train_count(len(dataset), train_fraction)
    x, y, horizon = dataset.x, dataset.y, dataset.horizon
    return TimeSeriesDataset(x[:k], y[:k], horizon), TimeSeriesDataset(x[k:], y[k:], horizon)


def synth_sine(n: int, period: float, noise_std: float, seed: int) -> RawSeries:
    """Single-column sinusoid: sin(2 pi t / period) plus Gaussian noise."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if not 0 < period < math.inf:
        raise DataError(f"period must be positive and finite, got {period}")
    if not 0 <= noise_std < math.inf:
        raise DataError(f"noise_std must be >= 0 and finite, got {noise_std}")
    t = np.arange(n, dtype=np.float64)
    values = np.sin(2.0 * np.pi * t / period)
    if noise_std > 0:
        values = values + RngState(seed).normal(noise_std, (n,))
    return RawSeries(
        columns=["value"], rows=values.reshape(-1, 1), target="value", features=["value"]
    )


def synth_ar1(n: int, coeff: float, noise_std: float, seed: int) -> RawSeries:
    """First-order autoregression x[t+1] = coeff * x[t] + noise, x[0] = 0."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if not abs(coeff) < 1.0:
        raise DataError(f"|coeff| must be < 1 for stationarity, got {coeff}")
    if not 0 <= noise_std < math.inf:
        raise DataError(f"noise_std must be >= 0 and finite, got {noise_std}")
    noise = RngState(seed).normal(noise_std, (n,)) if noise_std > 0 else np.zeros(n)
    values = np.zeros(n)
    for t in range(1, n):
        values[t] = coeff * values[t - 1] + noise[t - 1]
    return RawSeries(
        columns=["value"], rows=values.reshape(-1, 1), target="value", features=["value"]
    )


def prepare_datasets(
    series: RawSeries,
    window_len: int,
    horizon: int,
    train_fraction: float | None,
) -> tuple[TimeSeriesDataset, TimeSeriesDataset | None, Normalizer]:
    """The documented end-to-end recipe behind the CLI.

    Normalization statistics come only from rows that training windows can
    see (inputs or targets); the normalized series is then windowed and
    split chronologically. ``train_fraction=None`` trains on everything.
    """
    n = series.rows.shape[0]
    count = _window_count(n, window_len, horizon)
    if train_fraction is None:
        fit_rows = n
    else:
        # rows up to the last training window's target
        fit_rows = _train_count(count, train_fraction) + window_len - 1 + horizon
    normalizer = fit_normalizer(series, fit_rows)
    dataset = make_windows(normalizer.apply(series), window_len, horizon)
    if train_fraction is None:
        return dataset, None, normalizer
    train_ds, val_ds = chrono_split(dataset, train_fraction)
    return train_ds, val_ds, normalizer
