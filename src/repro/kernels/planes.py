"""Bit-plane packing: lines as rows of a numpy ``uint64`` matrix.

The kernels represent a population of ``line_bits``-wide lines as an
``(num_lines, words_per_line)`` array of little-endian ``uint64`` words:
bit ``b`` of line ``i`` lives at ``planes[i, b // 64] >> (b % 64) & 1``.
This is byte-for-byte the little-endian serialisation the rest of the
code base already uses for CRC computation and PLT entry checksums
(``value.to_bytes(..., "little")``), so packing is a straight
reinterpretation, not a permutation.

Conversions between the Python-int line representation (arbitrary
precision, used by the reference backend and every public API) and the
plane representation live here so the two backends agree on exactly
one layout.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def words_per_line(line_bits: int) -> int:
    """``uint64`` words needed to hold one line (rounded up)."""
    if line_bits <= 0:
        raise ValueError("line_bits must be positive")
    return (line_bits + 63) // 64


def pack_line(value: int, line_bits: int) -> np.ndarray:
    """One line int -> a ``(words_per_line,)`` little-endian uint64 row."""
    nbytes = words_per_line(line_bits) * 8
    return np.frombuffer(value.to_bytes(nbytes, "little"), dtype="<u8")


def unpack_line(row: np.ndarray) -> int:
    """A plane row -> the line value as a Python int."""
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")


def pack_lines(values: Sequence[int], line_bits: int) -> np.ndarray:
    """Line ints -> an ``(N, words_per_line)`` little-endian uint64 matrix.

    The serialisation loop is O(N) Python, but each step is a single
    ``int.to_bytes`` -- the unavoidable toll booth between arbitrary-
    precision ints and fixed-width planes.  Everything downstream of
    this call is vectorised.
    """
    wpl = words_per_line(line_bits)
    nbytes = wpl * 8
    buffer = bytearray(len(values) * nbytes)
    offset = 0
    for value in values:
        buffer[offset:offset + nbytes] = value.to_bytes(nbytes, "little")
        offset += nbytes
    return np.frombuffer(bytes(buffer), dtype="<u8").reshape(len(values), wpl)


def unpack_lines(rows: np.ndarray) -> List[int]:
    """An ``(N, words_per_line)`` plane matrix -> line values as ints."""
    matrix = np.ascontiguousarray(rows, dtype="<u8")
    raw = matrix.tobytes()
    nbytes = matrix.shape[1] * 8
    return [
        int.from_bytes(raw[offset:offset + nbytes], "little")
        for offset in range(0, len(raw), nbytes)
    ]
