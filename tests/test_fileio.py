import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsformer import fileio
from tsformer.fileio import crc64

POLY = 0x42F0E1EBA9EA3693
MASK64 = 0xFFFFFFFFFFFFFFFF


def _reference_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ POLY) & MASK64
            else:
                crc = (crc << 1) & MASK64
        table.append(crc)
    return table


REFERENCE_TABLE = _reference_table()


def reference_crc64(data, crc: int = 0) -> int:
    """Byte-at-a-time CRC-64/ECMA-182; ``crc`` continues an earlier prefix."""
    for byte in bytes(data):
        crc = REFERENCE_TABLE[((crc >> 56) ^ byte) & 0xFF] ^ ((crc << 8) & MASK64)
    return crc


LANES = fileio._LANES
CHUNK = fileio._CHUNK
BOUNDARY_LENGTHS = sorted({
    0, 1, 9,
    LANES - 1, LANES, LANES + 1,
    2 * LANES - 1, 2 * LANES + 1,
    CHUNK - 1, CHUNK, CHUNK + 1,
    2 * CHUNK, 2 * CHUNK + 1,
})


@pytest.fixture(scope="module")
def boundary_data():
    """Random bytes and the reference CRC of each boundary-length prefix,
    taken in one pass of the slow loop."""
    data = np.random.default_rng(64).bytes(BOUNDARY_LENGTHS[-1])
    expected, crc, done = {}, 0, 0
    for n in BOUNDARY_LENGTHS:
        crc = reference_crc64(data[done:n], crc)
        expected[n], done = crc, n
    return data, expected


def test_catalogue_check_value():
    assert crc64(b"123456789") == 0x6C40DF5F0B497347
    assert reference_crc64(b"123456789") == 0x6C40DF5F0B497347


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
def test_matches_reference_at_lane_and_chunk_boundaries(boundary_data, n):
    data, expected = boundary_data
    assert crc64(data[:n]) == expected[n]


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_accepts_any_bytes_like(boundary_data, wrap):
    data, expected = boundary_data
    assert crc64(wrap(data[: 2 * LANES + 1])) == expected[2 * LANES + 1]
    assert crc64(memoryview(data)[: LANES + 1]) == expected[LANES + 1]


def test_reads_raw_bytes_of_typed_buffers():
    values = np.arange(1000, dtype="<f8")
    assert crc64(memoryview(values)) == reference_crc64(values.tobytes())


def test_leading_zero_bytes_do_not_change_the_crc():
    # init 0: the kernel reads a short head column behind zeros on this property
    assert crc64(bytes(5000) + b"123456789") == 0x6C40DF5F0B497347


def test_temporary_memory_is_bounded_by_the_chunk():
    data = bytes(8 * CHUNK)
    tracemalloc.start()
    try:
        crc64(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * CHUNK


def test_temporary_memory_is_bounded_with_cold_tables():
    # the first call builds the column and shift tables it reads
    fileio._column_table.cache_clear()
    fileio._shift_table.cache_clear()
    data = bytes(8 * CHUNK)
    tracemalloc.start()
    try:
        crc64(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * CHUNK


def test_temporary_memory_stays_below_the_mmap_threshold():
    # glibc serves 128 KiB or more by mmap, and a process faults such pages
    # in again on every use; all that the CRC of a default checkpoint
    # allocates stays below that
    data = np.random.default_rng(68).bytes(102_119)
    crc64(data)  # builds the tables it reads
    tracemalloc.start()
    try:
        crc64(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


# Every power of two from 1 to CHUNK and one off each: past LANES bytes, a
# power of two is whole columns, one more has a 1-byte head column and one
# less a head column of LANES - 1 bytes; up to LANES bytes are one column.
POWER_LENGTHS = sorted({(1 << k) + d for k in range(fileio._CHUNK_LOG2 + 1) for d in (-1, 0, 1)})


@pytest.fixture(scope="module")
def power_data():
    """Random bytes and the reference CRC of each power-length prefix,
    taken in one pass of the slow loop."""
    data = np.random.default_rng(65).bytes(POWER_LENGTHS[-1])
    expected, crc, done = {}, 0, 0
    for n in POWER_LENGTHS:
        crc = reference_crc64(data[done:n], crc)
        expected[n], done = crc, n
    return data, expected


@pytest.mark.parametrize("n", POWER_LENGTHS)
def test_matches_reference_around_every_power_of_two(power_data, n):
    data, expected = power_data
    assert crc64(data[:n]) == expected[n]


def test_three_chunks_after_an_odd_head():
    head = 3 * LANES + 5  # the head block starts with a 5-byte head column
    data = np.random.default_rng(66).bytes(head + 2 * CHUNK)
    crc = reference_crc64(data[:head])
    for end in (head + CHUNK, head + 2 * CHUNK):
        crc = reference_crc64(data[end - CHUNK : end], crc)
    assert crc64(data) == crc


# k whole columns after a head column of r bytes, r in {0, 1, LANES - 1}
# (0: the head column is whole too): the head is read behind zeros, and the
# k + 1 columns take the last rows of the next power of two's table.
HEAD_LENGTHS = sorted({k * LANES + r for k in (0, 1, 2, 255, 256) for r in (0, 1, LANES - 1)})
# each of them up to a chunk also as the head chunk of a two-chunk input
HEAD_CASES = sorted(set(HEAD_LENGTHS) | {n + CHUNK for n in HEAD_LENGTHS if 0 < n <= CHUNK})


@pytest.fixture(scope="module")
def head_data():
    """Random bytes and the reference CRC of each head-case prefix, taken
    in one pass of the slow loop."""
    data = np.random.default_rng(67).bytes(HEAD_CASES[-1])
    expected, crc, done = {}, 0, 0
    for n in HEAD_CASES:
        crc = reference_crc64(data[done:n], crc)
        expected[n], done = crc, n
    return data, expected


@pytest.mark.parametrize("n", HEAD_CASES)
def test_matches_reference_after_every_head_column(head_data, n):
    data, expected = head_data
    assert crc64(data[:n]) == expected[n]


def test_column_tables_are_read_only_and_one_per_lane_length():
    for k in range(fileio._CHUNK_LOG2 + 1):
        crc64(bytes((1 << k) + 1))
    lane_lengths = fileio._CHUNK_LOG2 - fileio._LANES_LOG2 + 1
    tables = [fileio._column_table(k) for k in range(lane_lengths)]
    assert fileio._column_table.cache_info().currsize == lane_lengths
    for k, table in enumerate(tables):
        assert table.shape == (1 << k, 256)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    assert sum(table.nbytes for table in tables) <= CHUNK


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5 * LANES), st.integers(0, 2**32 - 1))
def test_matches_reference_on_random_data(n, seed):
    data = np.random.default_rng(seed).bytes(n)
    assert crc64(data) == reference_crc64(data)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_matches_reference_on_short_inputs(data):
    assert crc64(data) == reference_crc64(data)


def test_refuses_to_replace_a_target_that_is_not_a_regular_file(tmp_path):
    # a rename would put a regular file where the FIFO (or a device node
    # such as /dev/null) was
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        fileio.atomic_write_bytes(str(fifo), b"x\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]  # no temporary file left behind


def test_new_file_gets_the_mode_open_would_give(tmp_path):
    # the temporary file is made 0600; the renamed file must follow the umask
    old = os.umask(0o022)
    try:
        fileio.atomic_write_bytes(str(tmp_path / "a"), b"x\n")
        os.umask(0o007)
        fileio.atomic_write_bytes(str(tmp_path / "b"), b"x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "a").st_mode) == 0o644
    assert stat.S_IMODE(os.stat(tmp_path / "b").st_mode) == 0o660


def test_file_is_synced_before_the_rename_and_directory_after(tmp_path, monkeypatch):
    target = tmp_path / "a.bin"
    target.write_bytes(b"old")
    synced = []  # (path the descriptor names, target's bytes at that moment)
    real = os.fsync

    def recording(fd):
        synced.append((os.readlink(f"/proc/self/fd/{fd}"), target.read_bytes()))
        real(fd)

    monkeypatch.setattr(os, "fsync", recording)
    fileio.atomic_write_bytes(str(target), b"new")
    directory = os.path.realpath(tmp_path)
    (temporary, before), (synced_dir, after) = synced
    assert os.path.dirname(temporary) == directory
    assert os.path.basename(temporary).startswith(".tmp-")
    assert before == b"old"  # the temporary file is synced before the rename
    assert (synced_dir, after) == (directory, b"new")  # the directory after it
    assert os.listdir(tmp_path) == ["a.bin"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_write_csv_round_trips_float64_and_writes_none_blank(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    rows = [(i + 1, v, None) for i, v in enumerate(values)]
    fileio.write_csv(str(path), ["epoch", "value", "missing"], rows)
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert lines[0] == "epoch,value,missing"
    for i, (line, v) in enumerate(zip(lines[1:], values, strict=True)):
        epoch, cell, missing = line.split(",")
        assert epoch == str(i + 1)  # an int stays an int
        assert np.float64(cell).tobytes() == np.float64(v).tobytes()  # -0.0 included
        assert missing == ""

