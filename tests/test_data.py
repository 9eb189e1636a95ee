import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsformer.data import (
    Normalizer,
    RawSeries,
    chrono_split,
    fit_normalizer,
    load_csv,
    load_mapping,
    make_windows,
    prepare_datasets,
    synth_ar1,
    synth_sine,
    write_series_csv,
)
from tsformer.errors import DataError
from tsformer.tensor import RngState


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

    def test_categorical_column_with_mapping(self, tmp_path):
        data = write(tmp_path, "cat.csv", "job,balance\nadmin,100\nretired,200\n")
        mapping_path = write(tmp_path, "job_codes.csv", "value,code\nadmin,0\nretired,1\n")
        mapping = load_mapping(mapping_path)
        series = load_csv(data, target="balance", features=["job"], mappings={"job": mapping})
        assert np.array_equal(series.column("job"), np.array([0.0, 1.0]))

    def test_utf8_bom_before_header_ignored(self, tmp_path):
        bom = "\ufeff".encode("utf-8")
        (tmp_path / "cat.csv").write_bytes(bom + b"job,balance\nadmin,100\nretired,200\n")
        (tmp_path / "codes.csv").write_bytes(bom + b"value,code\nadmin,0\nretired,1\n")
        mapping = load_mapping(str(tmp_path / "codes.csv"))
        series = load_csv(str(tmp_path / "cat.csv"), target="balance", features=["job"],
                          mappings={"job": mapping})
        assert series.columns == ["job", "balance"]
        assert np.array_equal(series.column("job"), np.array([0.0, 1.0]))

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        (tmp_path / "latin1.csv").write_bytes("value,code\nw\xe4hrung,1\n".encode("latin-1"))
        for load in (lambda p: load_csv(p, target="code"), load_mapping):
            with pytest.raises(DataError, match="UTF-8"):
                load(str(tmp_path / "latin1.csv"))

    def test_oversized_field_rejected(self, tmp_path):
        path = write(tmp_path, "wide.csv", "value,code\n" + "1" * 200_000 + ",1\n")
        for load in (lambda p: load_csv(p, target="code"), load_mapping):
            with pytest.raises(DataError, match="field"):
                load(path)

    def test_unmapped_categorical_value_rejected(self, tmp_path):
        data = write(tmp_path, "cat.csv", "job,balance\nstudent,100\n")
        with pytest.raises(DataError, match="'student'"):
            load_csv(data, target="balance", features=["job"], mappings={"job": {"admin": 0.0}})

    def test_mapping_file_header_enforced(self, tmp_path):
        bad = write(tmp_path, "m.csv", "val,code\nx,1\n")
        with pytest.raises(DataError, match="value,code"):
            load_mapping(bad)


_CSV_TEXT = st.text(alphabet='0123456789.-+e,"\n\r abinfINF\ufeff\x00', max_size=200)


@settings(max_examples=200, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: b"a,b\n" + b),
    _CSV_TEXT.map(lambda t: ("a,b\n" + t).encode("utf-8")),
))
def test_random_bytes_load_or_raise_data_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(blob)
    try:
        assert isinstance(load_csv(str(path), target="a"), RawSeries)
    except DataError:
        pass
    try:
        load_mapping(str(path))
    except DataError:
        pass


class TestMakeWindows:
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
        assert ds.x.shape == (6, 3, 1) and ds.y.shape == (6,)
        for s, (x, y) in enumerate(zip(ds.x, ds.y)):
            assert np.array_equal(x, series.feature_matrix[s : s + 3])
            assert y == series.target_values[s + 3]

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
        rng = RngState(3)
        rows = rng.uniform(-100, 100, (40, 3))
        series = RawSeries(["a", "b", "c"], rows, target="c", features=["a", "b", "c"])
        norm = fit_normalizer(series)
        back = norm.invert_target(norm.apply(series).target_values)
        assert np.abs(back - rows[:, 2]).max() < 1e-9

    def test_training_features_centered(self):
        rng = RngState(4)
        rows = rng.uniform(-10, 10, (25, 2))
        series = RawSeries(["a", "b"], rows, target="b", features=["a", "b"])
        out = fit_normalizer(series).apply(series)
        assert np.abs(out.rows.mean(axis=0)).max() < 1e-9

    def test_stats_ignore_rows_past_the_fit_range(self):
        rng = RngState(5)
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
        assert np.array_equal(train.x, ds.x[:k]) and np.array_equal(train.y, ds.y[:k])
        assert np.array_equal(val.x, ds.x[k:]) and np.array_equal(val.y, ds.y[k:])

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


class TestSeriesCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        series = synth_sine(25, 7.0, 0.3, seed=12)
        path = str(tmp_path / "series.csv")
        write_series_csv(series, path)
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
