"""CSV ingestion, normalization, windowing, splitting, and synthetic series.

The ingestion path is deliberately generic: any numeric CSV with a header
row becomes a supervised forecasting dataset by sliding a length-T window
over the rows (stride 1) and pairing each window with the target-column
value ``horizon`` steps past the window's end. A cell that does not
parse as a finite number, such as a categorical label, is rejected.

Splits are chronological, never random, so validation windows always lie
strictly later in time than training windows, and normalization statistics
are fitted on training rows only.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "RawSeries",
    "TimeSeriesDataset",
    "Normalizer",
    "load_csv",
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
        k = len(self.features)
        if self.columns[:k] == self.features:  # as load_csv and the generators store them
            return self.rows[:, :k]  # a view, not a copy
        return self.rows[:, [self.columns.index(name) for name in self.features]]

    @property
    def target_values(self) -> np.ndarray:
        return self.column(self.target)


@dataclass
class TimeSeriesDataset:
    """Stride-1 windowed supervised pairs over shared rows: window i is
    ``rows[starts[i] : starts[i] + window_len]`` [window_len x input_dim]
    and its scalar target is ``y[i]``. Windows are never copied: a split
    or a batch selects starts, and the model reads each window's rows from
    ``rows`` (see :func:`tsformer.model.build_forward`)."""

    rows: np.ndarray  # (n_rows, input_dim)
    starts: np.ndarray  # (n,) integer row indices
    y: np.ndarray  # (n,)
    window_len: int

    def __len__(self) -> int:
        return self.starts.shape[0]


def _read_rows(path: str) -> list[list[str]]:
    """Every row of a UTF-8 CSV file, a leading BOM dropped. Bytes that are
    not UTF-8 and malformed CSV, such as an oversized field, are a
    DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def _select_columns(
    path: str, header: list[str], target: str, features: list[str] | None
) -> tuple[list[str], list[str]]:
    """The features and the columns to read (the features, then the target
    if it is not one), each of them named exactly once in ``header``."""
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
    repeated = [c for c in wanted if header.count(c) > 1]
    if repeated:
        raise DataError(f"{path}: the header names column {repeated[0]!r} more than once")
    return list(features), wanted


# loadtxt is given whole lines, about this many characters at a time; one
# batch of line strings is alive at once.
_BATCH_CHARS = 1 << 16


def _parse_numeric(path: str) -> tuple[list[str], np.ndarray] | None:
    """The header and every value of an all-numeric CSV with one line per
    row, read by numpy's C parser; None for any other file.

    The file is accepted only where :func:`_parse_cells` would return the
    same values. ``loadtxt`` accepts a subset of the text ``float()`` does
    and rounds it to float64 alike, but it skips blank lines, which
    ``csv`` reads as empty rows, and it allows fields over ``csv``'s size
    limit. So no line, its newline included, may be longer than that limit,
    and the row count must equal the body's line count.

    The file is opened and read once, as one text stream with universal
    newlines, which end a line where ``csv`` does (``\\n``, ``\\r\\n`` or
    a lone ``\\r``): ``csv`` reads the header, and ``loadtxt`` the body in
    batches of whole lines, which are counted and measured as it reads them.
    A body that is empty or opens with a blank line, on which ``loadtxt``
    would warn that it found no data, goes to the loop unread by numpy.
    """
    with open(path, encoding="utf-8-sig") as text:
        try:
            reader = csv.reader(text)
            header = next(reader, None)
            if header is None or reader.line_num != 1:
                return None
            batch = text.readlines(_BATCH_CHARS)
            if not batch or batch[0] == "\n":
                return None
            lines = 0
            limit = csv.field_size_limit()

            def batches():
                nonlocal batch, lines
                while batch:
                    if max(map(len, batch)) > limit:
                        raise ValueError("a line is longer than csv's field size limit")
                    lines += len(batch)
                    yield batch
                    batch = text.readlines(_BATCH_CHARS)

            values = np.loadtxt(itertools.chain.from_iterable(batches()),
                                delimiter=",", comments=None, quotechar='"', ndmin=2)
        except (ValueError, csv.Error):  # UnicodeDecodeError included
            return None
    if values.shape != (lines, len(header)) or not np.isfinite(values).all():
        return None
    return [c.strip() for c in header], values


def _parse_cells(path: str, target: str, features: list[str] | None) -> RawSeries:
    """``load_csv`` by ``csv`` and ``float()``, cell by cell: the reading
    of any file that :func:`_parse_numeric` does not accept."""
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [c.strip() for c in rows[0]]
    data_rows = rows[1:]
    features, wanted = _select_columns(path, header, target, features)
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
            try:
                parsed = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {file_row}, column {name!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(parsed):
                raise DataError(
                    f"{path}: row {file_row}, column {name!r}: non-finite value {cell!r}"
                )
            values[r, j] = parsed
    return RawSeries(columns=wanted, rows=values, target=target, features=features)


def load_csv(
    path: str,
    target: str,
    features: list[str] | None = None,
) -> RawSeries:
    """Read selected columns of a headered CSV, in file order.

    ``features`` defaults to every column in the file; the header may name
    a selected column only once. Cells must parse as finite numbers. Parse
    failures report the file row (header is row 1) and the column name.

    An all-numeric file with one line per row is read by numpy's C parser,
    any other file by ``csv`` and ``float()`` cell by cell; both give the
    same values and the same errors.
    """
    parsed = _parse_numeric(path)
    if parsed is None:
        return _parse_cells(path, target, features)
    header, values = parsed
    # Checked after the body, as the loop does: a file that numpy read
    # whole, the loop would read too, so these are the loop's first errors.
    features, wanted = _select_columns(path, header, target, features)
    if wanted != header:
        values = values[:, [header.index(c) for c in wanted]]
    return RawSeries(columns=wanted, rows=values, target=target, features=features)


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
    rows - window_len - horizon + 1. The dataset holds the feature rows
    once (read-only) and each window's start; ``y`` is a view of the
    target column.
    """
    count = _window_count(series.rows.shape[0], window_len, horizon)
    rows = series.feature_matrix
    rows.flags.writeable = False
    return TimeSeriesDataset(
        rows=rows,
        starts=np.arange(count),
        y=series.target_values[window_len - 1 + horizon :],
        window_len=window_len,
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
        rows = series.rows - self.means  # the one copy, divided in place
        rows /= self.stds
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
    windows train, the rest validate. Both halves share the rows.

    Validation inputs may overlap training rows, but no training label
    leaks: with stride-1 windows, validation window s >= k has its target
    at row s + span, past the last training target row (k - 1) + span.
    """
    k = _train_count(len(dataset), train_fraction)
    starts, y = dataset.starts, dataset.y
    return (dataclasses.replace(dataset, starts=starts[:k], y=y[:k]),
            dataclasses.replace(dataset, starts=starts[k:], y=y[k:]))


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
        values = values + np.random.default_rng(seed).standard_normal(n) * noise_std
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
    noise = np.zeros(n)
    if noise_std > 0:
        noise = np.random.default_rng(seed).standard_normal(n) * noise_std
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
