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
  lane lengths together. A block of any other length has a short head
  column, read as if zero bytes led it (init is 0, so they add nothing);
  row j's multiplier counts from the table's end, so the last rows of the
  table for the next power of two serve any column count.
- **Lanes.** Lane i then holds its bytes' share of the block's CRC but
  for a factor x^(8 (lanes - 1 - i)). The lanes fold in halves: with h of
  them left, lane i absorbs lane i + h by one shift of h bytes.
- **Chunks.** The CRC is carried from one fixed-size chunk to the next.

No array made for a block of up to one chunk reaches 128 KiB, glibc's
default threshold for serving an allocation by ``mmap``, whose pages a
process faults in anew on every use.
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
# Whole rows, not an [8, 1] column: numpy would allocate a buffer the
# size of the index to broadcast that.
_ROW_OFFSETS = np.repeat(np.arange(8, dtype=np.intp) * 256, _LANES // 8).reshape(8, -1)


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
    """Each CRC advanced over 2^log2_bytes zero bytes, by [8, n] lookups
    (row k: byte k of every CRC) of at most _LANES words each."""
    crcs = np.ascontiguousarray(crcs, dtype="<u8")
    if crcs.size > _LANES // 8:
        return np.concatenate([_append_zeros(crcs[start : start + _LANES // 8], log2_bytes)
                               for start in range(0, crcs.size, _LANES // 8)])
    index = crcs.view(np.uint8).reshape(-1, 8).T.astype(np.intp, order="C")
    index += _ROW_OFFSETS[:, : crcs.size]
    return np.bitwise_xor.reduce(_shift_table(log2_bytes).take(index, mode="clip"), axis=0)


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

    The block is read in place. Its first column is short unless the
    length is a multiple of the lane count: it goes into the index buffer
    behind zeros. The columns take the last rows of the column table for
    the next power of two. Each column adds its looked-up bytes to the
    lanes; then the lanes fold in halves, the first half shifted over the
    second's length.
    """
    lanes = min(1 << max(block.size - 1, 0).bit_length(), _LANES)
    head = block.size % lanes or min(block.size, lanes)
    columns = block[head:].reshape(-1, lanes)  # row j: byte i goes to lane i
    table = _column_table(columns.shape[0].bit_length())[-1 - columns.shape[0] :]
    index = np.zeros(lanes, dtype=np.intp)
    index[lanes - head :] = block[:head]
    crcs = table[0].take(index, mode="clip")
    looked_up = np.empty(lanes, dtype="<u8")
    for row, column in zip(table[1:], columns):
        index[...] = column
        row.take(index, out=looked_up, mode="clip")
        crcs ^= looked_up
    del index, looked_up  # freed before the fold allocates its own
    while crcs.size > 1:
        half = crcs.size // 2
        crcs = _append_zeros(crcs[:half], half.bit_length() - 1) ^ crcs[half:]
    return crcs


def crc64(data: bytes | bytearray | memoryview) -> int:
    """CRC-64/ECMA-182 of any bytes-like object (MSB first, init 0, no xor-out).

    The input is read in place, never copied or padded, in 1 MiB chunks: a
    short one first, so all later chunks are whole and the carry between
    them is one fixed shift.
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
