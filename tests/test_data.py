import builtins
import csv
import io
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsformer import data as data_mod
from tsformer.data import (
    Normalizer,
    RawSeries,
    chrono_split,
    fit_normalizer,
    load_csv,
    make_windows,
    prepare_datasets,
    synth_ar1,
    synth_sine,
)
from tsformer.errors import DataError
from tsformer.fileio import write_csv


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_row_numeric(self, tmp_path):
        path = write(tmp_path, "ok.csv", "a,b\n1,4\n2,5\n3,6\n")
        series = load_csv(path, target="b", features=["a"])
        assert series.columns == ["a", "b"]
        assert series.features == ["a"]
        assert np.array_equal(series.rows, np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))
        assert np.array_equal(series.target_values, np.array([4.0, 5.0, 6.0]))

    def test_features_default_to_all_columns(self, tmp_path):
        path = write(tmp_path, "ok.csv", "a,b\n1,4\n2,5\n")
        series = load_csv(path, target="b")
        assert series.features == ["a", "b"]
        assert series.feature_matrix.shape == (2, 2)

    def test_missing_target_column_named(self, tmp_path):
        path = write(tmp_path, "ok.csv", "a,b\n1,4\n")
        with pytest.raises(DataError, match="'stability'"):
            load_csv(path, target="stability", features=["a"])

    def test_unparseable_cell_cites_row_and_column(self, tmp_path):
        path = write(tmp_path, "bad.csv", "age,balance\n30,abc\n31,200\n")
        with pytest.raises(DataError, match=r"row 2.*'balance'.*'abc'"):
            load_csv(path, target="balance", features=["age"])

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, target="a")

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "h.csv", "a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, target="b")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "ragged.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path, target="b")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "inf.csv", "a\n1\ninf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, target="a")

    def test_duplicate_features_rejected(self, tmp_path):
        path = write(tmp_path, "ok.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path, target="b", features=["a", "a"])

    def test_selected_column_named_twice_rejected(self, tmp_path):
        path = write(tmp_path, "twice.csv", "a,b,a,c,c\n1,2,3,4,5\n")
        for target, features in (("a", ["a", "b"]), ("b", ["a"]), ("a", ["b"])):
            with pytest.raises(DataError, match="column 'a' more than once"):
                load_csv(path, target=target, features=features)
        # a repeated column that is not selected is not read
        series = load_csv(path, target="b", features=["b"])
        assert np.array_equal(series.rows, [[2.0]])

    def test_utf8_bom_before_header_ignored(self, tmp_path):
        bom = "\ufeff".encode("utf-8")
        (tmp_path / "bom.csv").write_bytes(bom + b"job,balance\n0,100\n1,200\n")
        series = load_csv(str(tmp_path / "bom.csv"), target="balance", features=["job"])
        assert series.columns == ["job", "balance"]
        assert np.array_equal(series.column("job"), np.array([0.0, 1.0]))

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        (tmp_path / "latin1.csv").write_bytes("value,code\nw\xe4hrung,1\n".encode("latin-1"))
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(str(tmp_path / "latin1.csv"), target="code")

    def test_oversized_field_rejected(self, tmp_path):
        path = write(tmp_path, "wide.csv", "value,code\n" + "1" * 200_000 + ",1\n")
        with pytest.raises(DataError, match="field"):
            load_csv(path, target="code")


_CSV_TEXT = st.text(alphabet='0123456789.-+e,"\n\r abinfINF\ufeff\x00', max_size=200)


@settings(max_examples=200, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: b"a,b\n" + b),
    _CSV_TEXT.map(lambda t: ("a,b\n" + t).encode("utf-8")),
))
# the edges between numpy's C parser and the cell loop: loadtxt warns on an
# empty body and skips a blank line, where csv reads an empty row; both end
# a line at a lone CR; csv reads a quoted newline in the header into a name
@example(blob=b"a,b\n\r")
@example(blob=b"a,b\n1,2\n\n")
@example(blob=b"a,b\r1,2\r3,4\r")
@example(blob=b'"a\nx",b\n1,2\n')
def test_random_bytes_load_or_raise_data_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(blob)
    try:
        assert isinstance(load_csv(str(path), target="a"), RawSeries)
    except DataError:
        pass


def _reference_load_csv(path, target, features=None):
    """load_csv as one csv.reader loop calling float() on each selected
    cell: the oracle the C-parser path must agree with."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None
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
    repeated = [c for c in wanted if header.count(c) > 1]
    if repeated:
        raise DataError(f"{path}: the header names column {repeated[0]!r} more than once")
    if not data_rows:
        raise DataError(f"{path}: no data rows after the header")
    indices = [header.index(c) for c in wanted]
    values = np.empty((len(data_rows), len(wanted)))
    for r, row in enumerate(data_rows):
        file_row = r + 2
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
    return RawSeries(columns=wanted, rows=values, target=target, features=list(features))


def _outcome(load, path, target, features):
    try:
        series = load(path, target, None if features is None else list(features))
    except DataError as exc:
        return str(exc)
    rows = series.rows
    return series.columns, series.features, series.target, rows.shape, rows.tobytes()


def _number_texts():
    """Shortest and 17-digit texts of floats from subnormal to 1e300,
    integers, and hand-picked forms. Drawing a float and formatting it
    per cell would take hypothesis most of the property's time budget."""
    rng = np.random.default_rng(20)
    values = rng.standard_normal(48) * 10.0 ** rng.integers(-320, 300, 48)
    return sorted(
        [repr(float(v)) for v in values] + [f"{v:.17g}" for v in values]
        + [str(i) for i in rng.integers(-10**6, 10**6, 16)]
        + ["1e3", ".5", "5.", "+1", "-0", "1E-300", "4.9e-324", " 2.5 ", "\t7",
           '"1.5"', '" 2 "', "0.1", "-123.456"]
    )


_NUMBERS = st.sampled_from(_number_texts())
_ODD_CELLS = st.sampled_from([
    "nan", "inf", "-Infinity", "1e500", "1_0", "\u0663", "", '""', "abc",
    "2024-01-05", '"3,4"', ' "1"', '"1"2', "0x1p3", "2 # c", '"1\n"', '"\n"', "1\x00",
])


_INDEX = st.integers(0, 11)  # taken modulo a length; built once, as drawing is the cost
_PICKS = st.none() | st.lists(_INDEX, max_size=3)
_DEFECT = st.sampled_from(["cell", "ragged", "blank", "header"])
_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_files(draw):
    """A headered CSV as bytes, mostly numeric, with 0-2 defects drawn from
    odd cells, ragged rows, blank lines and quoted or repeated header names;
    then line ends, a BOM, the final newline, and a target and features to
    select, which may name a column the file lacks."""
    names = list("abcd")[: 1 + draw(_INDEX) % 4]
    header = list(names)
    rows = [[draw(_NUMBERS) for _ in names] for _ in range(draw(_INDEX) % 6)]
    lines = [header] + rows
    for _ in range(draw(_INDEX) % 3):
        kind = draw(_DEFECT)
        row = rows[draw(_INDEX) % len(rows)] if rows else []
        if kind == "cell" and row:
            row[draw(_INDEX) % len(row)] = draw(_ODD_CELLS)
        elif kind == "ragged" and rows:
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(draw(_NUMBERS))
        elif kind == "blank":
            lines.insert(1 + draw(_INDEX) % len(lines), [])
        elif kind == "header":
            j = draw(_INDEX) % len(header)
            forms = [f'"{header[j]}"', f" {header[j]} ", f'"{header[j]}\nx"', names[0]]
            header[j] = forms[draw(_INDEX) % len(forms)]
    if draw(st.booleans()):
        ends = [draw(_END)] * len(lines)
    else:
        ends = [draw(_END) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    bom = "\ufeff" if draw(st.booleans()) else ""
    choices = names + ["z"]
    target = choices[draw(_INDEX) % len(choices)]
    picks = draw(_PICKS)
    features = None if picks is None else [choices[i % len(choices)] for i in picks]
    return (bom + text).encode("utf-8"), target, features


@settings(max_examples=300, deadline=None)
@given(case=_csv_files())
# csv refuses a field over its size limit; numpy's parser reads it as a number
@example(case=(b"a\n" + b"0" * 131072 + b"1\n", "a", None))
@example(case=(b"a\n" + b"0" * 131071 + b"1\n", "a", None))
# the C parser reads counted batches of lines from one universal-newline
# stream: mixed line ends, a blank line past the first batch, lines at the
# size limit without a newline, and a line whose UTF-8 bytes exceed the limit
# while its characters do not
@example(case=(b"a,b\r\n1,2\r3,4\n5,6\r\n7,8\r", "a", None))
@example(case=(b"a\n" + b"0.5\n" * 20000 + b"\n" + b"0.5\n" * 5000, "a", None))
@example(case=(b"a\n" + b"0" * (csv.field_size_limit() - 1) + b"1", "a", None))
@example(case=(b"a\n" + b"0" * csv.field_size_limit() + b"1", "a", None))
@example(case=(b"a\n" + "\xa0".encode() * 70000 + b"1\n", "a", None))
# the bodies on which loadtxt would warn that it found no data: none at all,
# after a header with or without its newline, and a blank first line
@example(case=(b"a\n", "a", None))
@example(case=(b"a", "a", None))
@example(case=(b"a\n\n1\n", "a", None))
def test_c_parser_agrees_with_the_cell_loop(tmp_path_factory, case):
    blob, target, features = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(blob)
    expected = _outcome(_reference_load_csv, str(path), target, features)
    assert _outcome(load_csv, str(path), target, features) == expected


class TestCParser:
    def test_numeric_file_skips_the_cell_loop(self, tmp_path):
        path = write(tmp_path, "ok.csv", "a,b,c\r\n1,4,7\r\n2,5,8")
        with mock.patch.object(data_mod, "_parse_cells", side_effect=AssertionError):
            series = load_csv(path, target="c", features=["b"])
        assert series.columns == ["b", "c"]
        assert np.array_equal(series.rows, [[4.0, 7.0], [5.0, 8.0]])

    def test_text_column_takes_the_cell_loop(self, tmp_path):
        # loadtxt fails on the date, which the selection does not read
        path = write(tmp_path, "dated.csv", "date,b\n2024-01-05,4\n2024-01-06,5\n")
        with mock.patch.object(data_mod, "_parse_cells", wraps=data_mod._parse_cells) as loop:
            series = load_csv(path, target="b", features=["b"])
        loop.assert_called_once()
        assert np.array_equal(series.rows, [[4.0], [5.0]])

    def test_numeric_file_is_opened_once(self, tmp_path, monkeypatch):
        # the line count, the header and the body share one handle; numpy
        # would open a path again through its _datasource
        path = write(tmp_path, "ok.csv", "a,b\n1,2\n3,4\n")
        opened = []

        def counting(opener):
            def wrapped(file, *args, **kwargs):
                opened.append(str(file))
                return opener(file, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(np.lib._datasource, "open", counting(np.lib._datasource.open))
        with mock.patch.object(data_mod, "_parse_cells", side_effect=AssertionError):
            series = load_csv(path, target="b")
        assert opened == [path]
        assert np.array_equal(series.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_numeric_file_is_read_once(self, tmp_path, monkeypatch):
        # no pass over the bytes before the parse: the lines are counted as
        # loadtxt reads them
        path = str(tmp_path / "long.csv")
        write_csv(path, list("abcd"), np.random.default_rng(5).standard_normal((3000, 4)))
        read = []

        class CountingFileIO(io.FileIO):
            def readinto(self, buffer):
                n = super().readinto(buffer)
                read.append(n or 0)
                return n

            def readall(self):
                data = super().readall()
                read.append(len(data))
                return data

        def counting_open(file, mode="r", encoding=None, newline=None):
            buffered = io.BufferedReader(CountingFileIO(file))
            if "b" in mode:
                return buffered
            return io.TextIOWrapper(buffered, encoding=encoding, newline=newline)

        monkeypatch.setattr(data_mod, "open", counting_open, raising=False)
        with mock.patch.object(data_mod, "_parse_cells", side_effect=AssertionError):
            series = load_csv(path, target="a")
        assert series.rows.shape == (3000, 4)
        assert sum(read) == os.path.getsize(path)

    def test_peak_memory_within_2_5x_the_values(self, tmp_path):
        # the cell loop holds every row as strings, ~11x the values' bytes
        columns = [f"c{i}" for i in range(16)]
        rows = np.random.default_rng(17).standard_normal((5000, 16))
        path = str(tmp_path / "wide.csv")
        write_csv(path, columns, rows)
        tracemalloc.start()
        try:
            series = load_csv(path, target="c0")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(series.rows, rows)
        assert peak <= 2.5 * series.rows.nbytes


class TestRawSeries:
    @pytest.mark.parametrize("rows, target, features, message", [
        (np.zeros((3, 3)), "b", ["a"], r"shape \(3, 3\) does not match 2 columns"),
        (np.zeros(3), "b", ["a"], r"shape \(3,\) does not match 2 columns"),
        (np.zeros((3, 2)), "z", ["a"], "target column 'z' not among columns"),
        (np.zeros((3, 2)), "b", ["a", "z"], "feature column 'z' not among columns"),
    ])
    def test_inconsistent_series_rejected(self, rows, target, features, message):
        with pytest.raises(DataError, match=message):
            RawSeries(["a", "b"], rows, target=target, features=features)


class TestMakeWindows:
    @pytest.mark.parametrize("features", [["a", "b"], ["b", "c"], ["b", "a"]])
    def test_feature_matrix_views_only_leading_features(self, features):
        rows = np.arange(12.0).reshape(4, 3)
        series = RawSeries(["a", "b", "c"], rows, target="c", features=features)
        matrix = series.feature_matrix
        assert np.array_equal(matrix, rows[:, [["a", "b", "c"].index(f) for f in features]])
        assert np.shares_memory(matrix, rows) == (features == ["a", "b"])

    def test_ten_rows_window4_horizon1_gives_six(self):
        series = synth_sine(10, 5.0, 0.0, seed=0)
        ds = make_windows(series, 4, 1)
        assert len(ds) == 6

    def test_window_count_formula_exhaustive(self):
        # enumeration oracle over every small (rows, T, horizon) combination
        for rows in range(2, 21):
            series = synth_ar1(rows, 0.5, 0.1, seed=rows)
            for window in range(1, rows):
                for horizon in range(1, rows - window + 1):
                    valid_starts = [
                        s
                        for s in range(rows)
                        if s + window - 1 + horizon <= rows - 1
                    ]
                    ds = make_windows(series, window, horizon)
                    assert len(ds) == len(valid_starts)
                    assert len(ds) == rows - window - horizon + 1

    def test_first_window_target_index(self):
        series = synth_sine(12, 7.0, 0.1, seed=1)
        window, horizon = 5, 2
        ds = make_windows(series, window, horizon)
        assert ds.y[0] == series.target_values[window - 1 + horizon]

    def test_window_contents_match_rows(self):
        series = synth_sine(9, 4.0, 0.2, seed=2)
        ds = make_windows(series, 3, 1)
        assert ds.window_len == 3 and ds.starts.shape == (6,) and ds.y.shape == (6,)
        assert np.array_equal(ds.rows, series.feature_matrix)
        for s, (start, y) in enumerate(zip(ds.starts, ds.y)):
            assert start == s
            assert np.array_equal(ds.rows[start : start + 3], series.feature_matrix[s : s + 3])
            assert y == series.target_values[s + 3]

    def test_zero_window_rejected(self):
        series = synth_sine(10, 5.0, 0.0, seed=0)
        with pytest.raises(DataError, match="window_len must be >= 1, got 0"):
            make_windows(series, 0, 1)

    def test_zero_horizon_rejected(self):
        series = synth_sine(10, 5.0, 0.0, seed=0)
        with pytest.raises(DataError, match="horizon"):
            make_windows(series, 10, 0)

    def test_too_few_rows_states_minimum(self):
        series = synth_sine(4, 5.0, 0.0, seed=0)
        with pytest.raises(DataError, match="at least 6"):
            make_windows(series, 5, 1)


class TestNormalizer:
    def test_constant_feature_floored_to_zero(self):
        series = RawSeries(
            columns=["c"], rows=np.full((5, 1), 3.0), target="c", features=["c"]
        )
        norm = fit_normalizer(series)
        out = norm.apply(series)
        assert np.abs(out.rows).max() == 0.0

    def test_round_trip_below_1e9(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-100, 100, (40, 3))
        series = RawSeries(["a", "b", "c"], rows, target="c", features=["a", "b", "c"])
        norm = fit_normalizer(series)
        back = norm.invert_target(norm.apply(series).target_values)
        assert np.abs(back - rows[:, 2]).max() < 1e-9

    def test_training_features_centered(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(-10, 10, (25, 2))
        series = RawSeries(["a", "b"], rows, target="b", features=["a", "b"])
        out = fit_normalizer(series).apply(series)
        assert np.abs(out.rows.mean(axis=0)).max() < 1e-9

    def test_stats_ignore_rows_past_the_fit_range(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-1, 1, (30, 2))
        series = RawSeries(["a", "b"], rows, target="b", features=["a", "b"])
        norm = fit_normalizer(series, n_rows=20)
        tampered = rows.copy()
        tampered[20:] += 1e6
        series2 = RawSeries(["a", "b"], tampered, target="b", features=["a", "b"])
        norm2 = fit_normalizer(series2, n_rows=20)
        assert np.array_equal(norm.means, norm2.means)
        assert np.array_equal(norm.stds, norm2.stds)

    def test_target_scale_round_trip(self):
        series = synth_sine(30, 10.0, 0.1, seed=6)
        norm = fit_normalizer(series)
        values = np.array([0.0, 1.0, -2.5])
        normalized = (values - norm.target_mean) / norm.target_std
        assert np.abs(norm.invert_target(normalized) - values).max() < 1e-9


    def test_other_columns_rejected(self):
        normalizer = fit_normalizer(synth_sine(10, 5.0, 0.0, seed=0))
        other = RawSeries(["a"], np.zeros((4, 1)), target="a", features=["a"])
        with pytest.raises(DataError, match=r"fitted on columns \['value'\], got \['a'\]"):
            normalizer.apply(other)

    def test_fit_on_no_rows_rejected(self):
        with pytest.raises(DataError, match="need at least one row"):
            fit_normalizer(synth_sine(10, 5.0, 0.0, seed=0), n_rows=0)


class TestChronoSplit:
    def test_eight_two_split(self):
        ds = make_windows(synth_sine(15, 6.0, 0.0, seed=0), 4, 2)
        assert len(ds) == 10
        train, val = chrono_split(ds, 0.8)
        assert len(train) == 8
        assert len(val) == 2

    def test_fraction_099_floors_to_nine_one(self):
        ds = make_windows(synth_sine(15, 6.0, 0.0, seed=0), 4, 2)
        train, val = chrono_split(ds, 0.99)
        assert len(train) == 9
        assert len(val) == 1

    def test_validation_windows_start_later(self):
        ds = make_windows(synth_ar1(25, 0.7, 0.3, seed=1), 5, 1)
        train, val = chrono_split(ds, 0.6)
        # the split preserves window order, so validation windows are the tail
        k = len(train)
        assert np.array_equal(train.starts, ds.starts[:k]) and np.array_equal(train.y, ds.y[:k])
        assert np.array_equal(val.starts, ds.starts[k:]) and np.array_equal(val.y, ds.y[k:])
        assert train.rows is ds.rows and val.rows is ds.rows
        assert train.window_len == val.window_len == 5

    def test_degenerate_fractions_rejected(self):
        ds = make_windows(synth_sine(15, 6.0, 0.0, seed=0), 4, 2)
        for frac in (0.0, 1.0, -0.5, 1.5, 0.01):
            with pytest.raises(DataError):
                chrono_split(ds, frac)


class TestSynthSine:
    def test_noiseless_quarter_period_cycle(self):
        series = synth_sine(8, 4.0, 0.0, seed=0)
        expected = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0])
        assert np.abs(series.target_values - expected).max() < 1e-12

    def test_seeded_noise_reproducible(self):
        a = synth_sine(50, 9.0, 0.4, seed=7)
        b = synth_sine(50, 9.0, 0.4, seed=7)
        assert np.array_equal(a.rows, b.rows)
        c = synth_sine(50, 9.0, 0.4, seed=8)
        assert not np.array_equal(a.rows, c.rows)

    def test_bad_args_rejected(self):
        with pytest.raises(DataError):
            synth_sine(0, 4.0, 0.0, seed=0)
        with pytest.raises(DataError):
            synth_sine(5, 0.0, 0.0, seed=0)


class TestSynthAr1:
    def test_zero_coeff_zero_noise_is_all_zero(self):
        series = synth_ar1(10, 0.0, 0.0, seed=0)
        assert np.abs(series.rows).max() == 0.0

    def test_stationary_variance(self):
        # var = noise^2 / (1 - coeff^2) = 0.01 / 0.19
        series = synth_ar1(10000, 0.9, 0.1, seed=11)
        sample_var = series.target_values.var()
        expected = 0.01 / (1.0 - 0.81)
        assert abs(sample_var - expected) / expected < 0.20

    def test_nonstationary_coeff_rejected(self):
        with pytest.raises(DataError):
            synth_ar1(10, 1.0, 0.1, seed=0)

    def test_no_rows_rejected(self):
        with pytest.raises(DataError, match="n must be >= 1, got 0"):
            synth_ar1(0, 0.5, 0.1, seed=0)


class TestSeriesCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        series = synth_sine(25, 7.0, 0.3, seed=12)
        path = str(tmp_path / "series.csv")
        write_csv(path, series.columns, series.rows)
        back = load_csv(path, target="value")
        assert np.array_equal(back.rows, series.rows)


class TestPrepareDatasets:
    def test_split_and_normalization(self):
        series = synth_sine(60, 12.0, 0.1, seed=13)
        train_ds, val_ds, norm = prepare_datasets(series, 8, 1, 0.8)
        count = 60 - 8 - 1 + 1
        k = int(count * 0.8)
        assert len(train_ds) == k
        assert len(val_ds) == count - k
        # stats are fitted only on rows visible to training windows
        fit_rows = (k - 1) + 8 - 1 + 1 + 1
        manual = fit_normalizer(series, fit_rows)
        assert np.array_equal(norm.means, manual.means)

    def test_no_split_mode(self):
        series = synth_sine(30, 6.0, 0.0, seed=14)
        train_ds, val_ds, norm = prepare_datasets(series, 4, 1, None)
        assert val_ds is None
        assert len(train_ds) == 26

    def test_too_few_rows_rejected(self):
        series = synth_sine(5, 6.0, 0.0, seed=15)
        with pytest.raises(DataError):
            prepare_datasets(series, 8, 1, 0.8)

    def test_holds_one_normalized_copy(self):
        # 20,000 x 16 as load_csv stores it, the features leading: the
        # datasets keep one normalized copy, and no second one is made
        columns = [f"c{i}" for i in range(16)]
        rows = np.random.default_rng(18).standard_normal((20_000, 16))
        series = RawSeries(columns=columns, rows=rows, target="c0", features=columns)
        tracemalloc.start()
        try:
            datasets = prepare_datasets(series, 16, 1, 0.8)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 1.2 * rows.nbytes
        assert peak <= 1.2 * rows.nbytes
        assert datasets[0].rows.base is datasets[0].y.base

    def test_windows_are_read_only_views_of_the_series(self):
        # 10,000 x 8 values: copying each row into 16 windows would peak
        # near 18x the series' bytes; the splits share one read-only copy
        # of the feature rows
        columns = [f"c{i}" for i in range(8)]
        rows = np.random.default_rng(16).standard_normal((10_000, 8))
        series = RawSeries(columns=columns, rows=rows, target="c0", features=columns)
        tracemalloc.start()
        try:
            train_ds, val_ds, _ = prepare_datasets(series, 16, 1, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * rows.nbytes
        for ds in (train_ds, val_ds):
            assert not ds.rows.flags.writeable
            assert ds.rows is train_ds.rows
