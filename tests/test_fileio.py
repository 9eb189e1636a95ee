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
    # init 0: the kernel pads at the front on this property
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
        fileio.atomic_write_text(str(fifo), "x\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]  # no temporary file left behind
