"""Atomic file writes and the checksum used by the checkpoint format.

The checksum is CRC-64/ECMA-182: polynomial P = 0x42F0E1EBA9EA3693,
MSB first, init 0, no xor-out. It is linear over GF(2), so the CRC of
A followed by B is crc(A) * x^(8 |B|) mod P, xor crc(B); zlib's
``crc32_combine`` rests on the same identity. :func:`crc64` uses it to
step thousands of lanes of the input at once in numpy, then to merge the
lane CRCs and to carry the CRC from one fixed-size chunk to the next.
"""

from __future__ import annotations

import functools
import os
import tempfile

import numpy as np

__all__ = ["crc64", "atomic_write_bytes", "atomic_write_text"]

_CRC64_POLY = 0x42F0E1EBA9EA3693  # ECMA-182, MSB first, init 0, no xor-out
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Lanes stepped together. Both constants are powers of two, so every lane
# length and every merge span is one too, and one cached shift table per
# power of two serves every input.
_LANES = 4096
_CHUNK_LOG2 = 20  # 1 MiB chunks bound the temporaries, whatever the input size
_CHUNK = 1 << _CHUNK_LOG2


def _times_x(value: int) -> int:
    """value * x mod P."""
    return ((value << 1) & _MASK64) ^ (_CRC64_POLY if value >> 63 else 0)


def _build_table() -> np.ndarray:
    """Entry b is the CRC register after feeding byte b into a zero register."""
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = _times_x(crc)
        table.append(crc)
    return np.array(table, dtype="<u8")


_CRC64_TABLE = _build_table()
# Row k of a shift table is indexed by byte k (bits 8k..8k+7) of a CRC.
_ROW_OFFSETS = np.arange(8, dtype=np.intp) * 256


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
    basis = basis.reshape(8, 8)
    table = np.zeros((8, 256), dtype="<u8")
    for bit in range(8):
        table[:, 1 << bit : 2 << bit] = table[:, : 1 << bit] ^ basis[:, bit : bit + 1]
    table.setflags(write=False)
    return table.reshape(-1)


def _append_zeros(crcs: np.ndarray, log2_bytes: int) -> np.ndarray:
    """Each CRC advanced over 2^log2_bytes zero bytes."""
    index = np.ascontiguousarray(crcs, dtype="<u8").view(np.uint8).reshape(-1, 8) + _ROW_OFFSETS
    return np.bitwise_xor.reduce(_shift_table(log2_bytes)[index], axis=1)


def _crc_block(block: np.ndarray) -> np.ndarray:
    """CRC of at most _CHUNK bytes, as a one-element array.

    With init 0, leading zero bytes leave the CRC unchanged, so the block is
    padded at the front to lanes x lane_len bytes, both powers of two. Every
    lane is stepped through the byte table one column at a time, then
    neighbouring lanes are merged pairwise, doubling the span each level.
    """
    size = 1 << max(block.size - 1, 0).bit_length()
    lane_len = max(size // _LANES, 1)
    lanes = size // lane_len
    padded = np.zeros(size, dtype=np.uint8)
    padded[size - block.size :] = block
    crcs = np.zeros(lanes, dtype="<u8")
    top = crcs.view(np.uint8)[7::8]  # high byte of each lane's register
    index = np.empty(lanes, dtype=np.intp)
    looked_up = np.empty(lanes, dtype="<u8")
    for column in padded.reshape(lanes, lane_len).T:
        np.bitwise_xor(top, column, out=index, casting="unsafe")
        np.take(_CRC64_TABLE, index, out=looked_up, mode="clip")
        np.left_shift(crcs, 8, out=crcs)
        np.bitwise_xor(crcs, looked_up, out=crcs)
    span_log2 = lane_len.bit_length() - 1
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


def atomic_write_bytes(path: str, data: bytes | bytearray | memoryview) -> None:
    """Write a bytes-like object to a temporary file in the target
    directory, then rename.

    Readers never observe a partially written file. An existing target
    that is not a regular file (a FIFO, a device such as /dev/null, a
    directory) raises OSError and is left in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} exists and is not a regular file; refusing to replace it")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
