"""Durable atomic file writes, the one CSV text format, and the checksum
used by the checkpoint format.

Every artifact is written by :func:`atomic_write_bytes`; every CSV (report,
attention weights, synthetic series) by :func:`write_csv`, at 17
significant digits, so float64 values read back exactly.

The checksum is CRC-64/ECMA-182: polynomial P = 0x42F0E1EBA9EA3693,
MSB first, init 0, no xor-out. It is linear over GF(2), so the CRC of
A followed by B is crc(A) * x^(8 |B|) mod P, xor crc(B); zlib's
``crc32_combine`` rests on the same identity. :func:`crc64` uses it
three times:

- **Columns.** A block of ``lanes`` x ``lane_len`` bytes is read as
  lane_len contiguous columns of ``lanes`` bytes, and lane i holds byte i
  of every column. Byte b in column j adds crc(b) * x^(8 lanes
  (lane_len - 1 - j)) mod P to its lane, a term that does not depend on
  the lane's other bytes. So each column is one table lookup and one XOR
  for all lanes at once, through a row of a cached column table: 2 KiB
  per column, 512 KiB for a full 1 MiB chunk, at most 1022 KiB for all
  lane lengths together.
- **Lanes.** Lane i then holds its bytes' share of the block's CRC but
  for a factor x^(8 (lanes - 1 - i)); neighbouring lanes are merged
  pairwise, from a 1-byte span up.
- **Chunks.** The CRC is carried from one fixed-size chunk to the next.
"""

from __future__ import annotations

import functools
import os
import tempfile
from collections.abc import Iterable

import numpy as np

__all__ = ["crc64", "check_replaceable", "atomic_write_bytes", "write_csv"]

_CRC64_POLY = 0x42F0E1EBA9EA3693  # ECMA-182, MSB first, init 0, no xor-out
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Lanes read together. Both constants are powers of two, so every lane
# length and every merge span is one too, and one cached table per power
# of two serves every input.
_LANES_LOG2 = 12
_LANES = 1 << _LANES_LOG2
_CHUNK_LOG2 = 20  # 1 MiB chunks bound the temporaries, whatever the input size
_CHUNK = 1 << _CHUNK_LOG2


def _times_x(value: int) -> int:
    """value * x mod P."""
    return ((value << 1) & _MASK64) ^ (_CRC64_POLY if value >> 63 else 0)


# Row k of a shift table is indexed by byte k (bits 8k..8k+7) of a CRC.
_ROW_OFFSETS = np.arange(8, dtype=np.intp) * 256


def _byte_tables(basis: np.ndarray) -> np.ndarray:
    """Read-only n x 256 tables of GF(2)-linear maps of a byte, given the
    images of its eight bits, ``basis`` [n x 8]: entry [k, b] is the XOR of
    basis[k, bit] over the set bits of b."""
    table = np.zeros((basis.shape[0], 256), dtype="<u8")
    for bit in range(8):
        np.bitwise_xor(table[:, : 1 << bit], basis[:, bit : bit + 1],
                       out=table[:, 1 << bit : 2 << bit])
    table.setflags(write=False)
    return table


@functools.cache
def _shift_table(log2_bytes: int) -> np.ndarray:
    """Flat 8 x 256 tables that multiply a CRC by x^(8 * 2^log2_bytes) mod P.

    That product is the CRC of the same data followed by 2^log2_bytes zero
    bytes. The multiplier is found by repeated squaring, each square taken
    with the previous table. Only 0.._CHUNK_LOG2 are ever asked for, so
    the cache stays small.
    """
    if log2_bytes == 0:
        power = 1 << 8  # x^8
    else:
        half = _shift_table(log2_bytes - 1)
        power = int(_append_zeros(half[1:2], log2_bytes - 1)[0])  # half[1] = x^(8*2^(n-1))
    basis = np.empty(64, dtype="<u8")  # basis[i] = power * x^i mod P
    for i in range(64):
        basis[i] = power
        power = _times_x(power)
    return _byte_tables(basis.reshape(8, 8)).reshape(-1)


def _append_zeros(crcs: np.ndarray, log2_bytes: int) -> np.ndarray:
    """Each CRC advanced over 2^log2_bytes zero bytes."""
    index = np.ascontiguousarray(crcs, dtype="<u8").view(np.uint8).reshape(-1, 8) + _ROW_OFFSETS
    return np.bitwise_xor.reduce(_shift_table(log2_bytes)[index], axis=1)


@functools.cache
def _column_table(lane_len_log2: int) -> np.ndarray:
    """The lane_len x 256 column table for blocks of lane_len = 2^lane_len_log2
    columns: entry [j, b] is crc(b) * x^(8 * _LANES * (lane_len - 1 - j))
    mod P, what byte b in column j adds to its lane.

    A block of more than _LANES bytes has _LANES lanes, and any other has a
    single column, whose multiplier is 1 whatever its lane count. Only
    0.._CHUNK_LOG2 - _LANES_LOG2 are ever asked for.
    """
    # basis[k, bit] = crc(1 << bit) * x^(8 * _LANES * k); each level doubles
    # k's range. crc(b), the CRC of the one byte b, is b * x^64 mod P: row 7
    # of the one-byte shift table, which reads a CRC's top byte.
    basis = _shift_table(0)[7 * 256 + (1 << np.arange(8))].reshape(1, 8)
    for level in range(lane_len_log2):
        shifted = _append_zeros(basis.reshape(-1), _LANES_LOG2 + level)
        basis = np.concatenate([basis, shifted.reshape(basis.shape)])
    return _byte_tables(basis[::-1])


def _crc_block(block: np.ndarray) -> np.ndarray:
    """CRC of at most _CHUNK bytes, as a one-element array.

    A block whose length is a power of two is read in place. Any other is
    copied, zero-padded at the front to the next power of two, which leaves
    the CRC unchanged because init is 0. Each column adds its looked-up
    bytes to the lanes; then neighbouring lanes are merged pairwise,
    doubling the span each level.
    """
    size = 1 << max(block.size - 1, 0).bit_length()
    if block.size != size:
        padded = np.zeros(size, dtype=np.uint8)
        padded[size - block.size :] = block
        block = padded
    columns = block.reshape(-1, min(size, _LANES))  # row j: byte i goes to lane i
    lanes = columns.shape[1]
    crcs = np.zeros(lanes, dtype="<u8")
    index = np.empty(lanes, dtype=np.intp)
    looked_up = np.empty(lanes, dtype="<u8")
    for row, column in zip(_column_table(columns.shape[0].bit_length() - 1), columns):
        index[...] = column
        row.take(index, out=looked_up, mode="clip")
        crcs ^= looked_up
    span_log2 = 0
    while crcs.size > 1:
        pairs = crcs.reshape(-1, 2)
        crcs = _append_zeros(pairs[:, 0], span_log2) ^ pairs[:, 1]
        span_log2 += 1
    return crcs


def crc64(data: bytes | bytearray | memoryview) -> int:
    """CRC-64/ECMA-182 of any bytes-like object (MSB first, init 0, no xor-out).

    The input is read in place, in 1 MiB chunks: a short one first, so all
    later chunks are whole and the carry between them is one fixed shift.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    head = buf.size % _CHUNK or min(buf.size, _CHUNK)
    crc = _crc_block(buf[:head])
    for start in range(head, buf.size, _CHUNK):
        crc = _append_zeros(crc, _CHUNK_LOG2) ^ _crc_block(buf[start : start + _CHUNK])
    return int(crc[0])


def check_replaceable(path: str) -> None:
    """Raise OSError if ``path`` exists and is not a regular file (a FIFO,
    a device such as /dev/null, a directory), which a rename would replace."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} exists and is not a regular file; refusing to replace it")


def _new_file_mode() -> int:
    """The mode ``open()`` gives a new file: 0o666 less the umask, which
    can only be read by setting it, so it is set back at once."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_bytes(path: str, data: bytes | bytearray | memoryview) -> None:
    """Write a bytes-like object to a temporary file in the target
    directory, then rename.

    Readers never observe a partially written file. The temporary file is
    fsynced before the rename and the directory after it, so once this
    returns the new contents survive an OS crash too. The file gets the
    mode a plain ``open()`` would give it, not the temporary file's 0600.
    A target that :func:`check_replaceable` refuses is left in place.
    """
    check_replaceable(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), _new_file_mode())
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_csv(path: str, header: list[str], rows: Iterable[Iterable[float | None]]) -> None:
    """Write ``header``, then one line per row of ``rows``: a number as
    ``.17g`` (an int below 1e17 stays an int), None as a blank cell."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else f"{v:.17g}" for v in row) for row in rows]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
