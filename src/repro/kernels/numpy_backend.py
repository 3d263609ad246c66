"""The numpy backend: batched bit-plane kernels.

Lines are packed into an ``(N, words_per_line)`` little-endian uint64
plane matrix (:mod:`repro.kernels.planes`); the hot operations then run
as whole-matrix numpy expressions instead of per-line Python loops.

Batched line decode
-------------------

The expensive part of a scrub is ``LineCodec.decode`` per dirty line:
a ~543-iteration payload gather, ``r`` wide popcounts for the Hamming
syndrome, and a 64-step table CRC -- all over arbitrary-precision ints.
The vectorised pipeline computes the identical decision for N lines at
once:

* **Syndrome.**  For the positional Hamming construction, syndrome bit
  ``j`` is the parity of codeword bits whose 1-based position has bit
  ``j`` set; equivalently the full syndrome is the XOR of the 1-based
  positions of every *set* codeword bit.  With the codewords unpacked
  to an ``(N, n)`` bit matrix ``B``, that is one
  ``bitwise_xor.reduce(B * positions, axis=1)``.

* **CRC.**  The table CRC is affine over GF(2) in (init, message):
  each step is ``register = (register << 8) ^ table[(register >> s) ^
  byte]`` and the table itself is linear (``table[x ^ y] == table[x] ^
  table[y]``).  The batch pipeline runs the same 64 byte-steps, but on
  a length-N register vector -- 64 numpy ops regardless of N.

* **Corrected-path CRC re-check.**  Affinity also gives
  ``crc(m ^ e) == crc(m) ^ crc0(e)`` where ``crc0`` is the same
  polynomial with ``init=0, xorout=0``.  Flipping codeword bit ``p``
  changes the data by a known single-bit delta, so the scalar path's
  "recompute CRC of the repaired payload" collapses to two XORs against
  per-position delta tables built once per codec.

The pipeline is only engaged for codecs whose semantics it provably
matches (the stock :class:`~repro.core.linecodec.LineCodec`:
positional ``HammingSEC`` over ``data || CRC``, non-reflected
byte-aligned CRC, little-endian host); anything else falls back to the
scalar ``codec.decode`` per word, which is always correct.
"""

from __future__ import annotations

import sys
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.crc import CRC
from repro.coding.hamming import HammingSEC
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.kernels.interface import KernelBackend
from repro.kernels.planes import pack_lines, words_per_line


class _LineCodecTables:
    """Precomputed vectorisation tables for one eligible ``LineCodec``."""

    def __init__(self, codec: LineCodec) -> None:
        layout = codec.layout
        ecc = layout.ecc
        crc = layout.crc
        self.n = ecc.n
        self.data_bits = layout.data_bits
        self.crc_bits = layout.crc_bits
        self.wpl = words_per_line(self.n)
        # Codeword bit index of payload bit j (the systematic gather).
        self._payload_gather = np.array(ecc._data_cw_shift, dtype=np.int64)
        # Syndrome = XOR of 1-based positions of set codeword bits.
        self._positions = np.arange(1, self.n + 1, dtype=np.uint16)
        # Table CRC as uint64 vector ops (single-width constants avoid
        # the silent uint64/int promotion to float64).
        self._crc_table = np.array(crc._table, dtype=np.uint64)
        self._crc_shift = np.uint64(crc.width - 8)
        self._crc_mask = np.uint64(crc._mask)
        self._crc_init = np.uint64(crc.init)
        self._crc_xorout = np.uint64(crc.xorout)
        self._ff = np.uint64(0xFF)
        self._eight = np.uint64(8)
        self._byte_powers = np.array(
            [1 << (8 * i) for i in range((self.crc_bits + 7) // 8)],
            dtype=np.uint64,
        )
        # Per-codeword-position CRC deltas for the corrected re-check:
        # flipping position p changes computed CRC by dcomp[p] (payload
        # data bit) and the stored CRC field by dstore[p] (payload CRC
        # bit); check-bit positions change neither.
        homogeneous = CRC(
            crc.width, crc.poly, init=0, refin=False, refout=False, xorout=0
        )
        self._dcomp = np.zeros(self.n, dtype=np.uint64)
        self._dstore = np.zeros(self.n, dtype=np.uint64)
        self._payload_index = np.full(self.n, -1, dtype=np.int64)
        for j, position in enumerate(ecc._data_cw_shift):
            self._payload_index[position] = j
            if j < self.data_bits:
                self._dcomp[position] = homogeneous.compute_int(
                    1 << j, self.data_bits
                )
            else:
                self._dstore[position] = 1 << (j - self.data_bits)

    def decode_batch(self, words: Sequence[int]) -> List[LineDecode]:
        clean, accepted, flip_position, data_blob, nbytes = self._classify(words)
        results: List[LineDecode] = []
        for i, word in enumerate(words):
            if clean[i]:
                data = int.from_bytes(
                    data_blob[i * nbytes:(i + 1) * nbytes], "little"
                )
                results.append(LineDecode(DecodeStatus.CLEAN, word, data))
            elif accepted[i]:
                position = int(flip_position[i])
                data = int.from_bytes(
                    data_blob[i * nbytes:(i + 1) * nbytes], "little"
                )
                payload_bit = int(self._payload_index[position])
                if 0 <= payload_bit < self.data_bits:
                    data ^= 1 << payload_bit
                results.append(
                    LineDecode(
                        DecodeStatus.CORRECTED,
                        word ^ (1 << position),
                        data,
                        position,
                    )
                )
            else:
                results.append(LineDecode(DecodeStatus.UNCORRECTABLE, word, None))
        return results

    def decode_clean_batch(self, words: Sequence[int]) -> List[LineDecode]:
        """Payload extraction only, for words promised to decode CLEAN.

        A clean decode is ``LineDecode(CLEAN, word, data)``; the
        syndrome multiply-reduce and the 64-step CRC register loop (the
        bulk of :meth:`_classify`) exist solely to *establish* that
        verdict, so when the caller already knows it they collapse to
        the systematic payload gather.
        """
        rows = pack_lines(words, self.n)
        byte_matrix = rows.view(np.uint8).reshape(len(words), self.wpl * 8)
        bits = np.unpackbits(byte_matrix, axis=1, bitorder="little")[:, : self.n]
        payload_bits = bits[:, self._payload_gather]
        data_bytes = np.packbits(
            payload_bits[:, : self.data_bits], axis=1, bitorder="little"
        )
        blob = data_bytes.tobytes()
        nbytes = self.data_bits // 8
        return [
            LineDecode(
                DecodeStatus.CLEAN,
                word,
                int.from_bytes(blob[i * nbytes:(i + 1) * nbytes], "little"),
            )
            for i, word in enumerate(words)
        ]

    def verify_batch(self, words: Sequence[int]) -> List[bool]:
        clean, _, _, _, _ = self._classify(words)
        return [bool(flag) for flag in clean]

    def _classify(self, words: Sequence[int]):
        """Shared vector pipeline: per-row decision masks + data bytes."""
        rows = pack_lines(words, self.n)
        byte_matrix = rows.view(np.uint8).reshape(len(words), self.wpl * 8)
        bits = np.unpackbits(byte_matrix, axis=1, bitorder="little")[:, : self.n]
        syndrome = np.bitwise_xor.reduce(
            bits.astype(np.uint16) * self._positions, axis=1
        ).astype(np.int64)
        payload_bits = bits[:, self._payload_gather]
        data_bytes = np.packbits(
            payload_bits[:, : self.data_bits], axis=1, bitorder="little"
        )
        crc_bytes = np.packbits(
            payload_bits[:, self.data_bits:], axis=1, bitorder="little"
        )
        stored_crc = (crc_bytes.astype(np.uint64) * self._byte_powers).sum(
            axis=1, dtype=np.uint64
        )
        register = np.full(len(words), self._crc_init, dtype=np.uint64)
        for column in range(data_bytes.shape[1]):
            index = (
                (register >> self._crc_shift)
                ^ data_bytes[:, column].astype(np.uint64)
            ) & self._ff
            register = ((register << self._eight) & self._crc_mask) ^ (
                self._crc_table[index]
            )
        computed = register ^ self._crc_xorout
        crc_ok = computed == stored_crc
        clean = crc_ok & (syndrome == 0)
        correctable = (syndrome != 0) & (syndrome <= self.n)
        flip_position = np.where(correctable, syndrome - 1, 0)
        accepted = correctable & (
            (computed ^ self._dcomp[flip_position])
            == (stored_crc ^ self._dstore[flip_position])
        )
        return clean, accepted, flip_position, data_bytes.tobytes(), (
            self.data_bits // 8
        )


#: Per-codec table cache.  Keyed weakly so throwaway codecs (tests build
#: thousands) do not pin their tables forever.
_TABLE_CACHE: "weakref.WeakKeyDictionary[LineCodec, _LineCodecTables]" = (
    weakref.WeakKeyDictionary()
)


def _tables_for(codec) -> Optional[_LineCodecTables]:
    """Vectorisation tables for a codec, or None when ineligible.

    Eligibility is deliberately conservative: exactly the stock
    ``LineCodec`` (subclasses may override ``decode``), a positional
    ``HammingSEC``, a non-reflected byte-aligned CRC of width <= 64,
    and a little-endian host (the plane layout reinterprets raw bytes).
    """
    if type(codec) is not LineCodec or sys.byteorder != "little":
        return None
    tables = _TABLE_CACHE.get(codec)
    if tables is not None:
        return tables
    layout = codec.layout
    crc = layout.crc
    if (
        type(layout.ecc) is not HammingSEC
        or crc.refin
        or crc.refout
        or crc.width > 64
        or layout.data_bits % 8
    ):
        return None
    tables = _LineCodecTables(codec)
    _TABLE_CACHE[codec] = tables
    return tables


class NumpyBackend(KernelBackend):
    """Batched uint64 bit-plane kernels (bit-identical to reference)."""

    name = "numpy"
    batched = True

    def scatter_fault_vectors(
        self, flat: np.ndarray, line_bits: int
    ) -> Dict[int, int]:
        # Vectorised divmod; the OR-accumulation stays a dict loop over
        # *faults* (masks are arbitrary-precision ints), preserving the
        # reference backend's first-occurrence insertion order.
        indices = np.asarray(flat, dtype=np.int64)
        lines = (indices // line_bits).tolist()
        bits = (indices % line_bits).tolist()
        vectors: Dict[int, int] = {}
        for line_index, bit_position in zip(lines, bits):
            vectors[line_index] = vectors.get(line_index, 0) | (1 << bit_position)
        return vectors

    def fold_line_masks(
        self, events: Iterable[Tuple[int, int]], num_lines: int
    ) -> Dict[int, int]:
        # Burst events are few (a binomial draw at per-line *event*
        # rates) and their masks are arbitrary-precision ints; the
        # reference fold is already O(events).
        vectors: Dict[int, int] = {}
        for line_index, mask in events:
            if line_index >= num_lines:
                continue
            vectors[line_index] = vectors.get(line_index, 0) | mask
        return vectors

    def xor_fold(self, words: Sequence[int], line_bits: int) -> int:
        words = list(words)
        if not words:
            return 0
        planes = pack_lines(words, line_bits)
        folded = np.bitwise_xor.reduce(planes, axis=0)
        return int.from_bytes(folded.tobytes(), "little")

    def batch_decode(self, codec, words: Sequence[int]) -> List[object]:
        words = list(words)
        if not words:
            return []
        tables = _tables_for(codec)
        if tables is None:
            return [codec.decode(word) for word in words]
        return tables.decode_batch(words)

    def batch_decode_clean(self, codec, words: Sequence[int]) -> List[object]:
        words = list(words)
        if not words:
            return []
        tables = _tables_for(codec)
        if tables is None:
            return [codec.decode(word) for word in words]
        return tables.decode_clean_batch(words)

    def batch_verify(self, codec, words: Sequence[int]) -> List[bool]:
        words = list(words)
        if not words:
            return []
        tables = _tables_for(codec)
        if tables is None:
            return [codec.verify(word) for word in words]
        return tables.verify_batch(words)

    def dirty_lines(
        self, stored: Sequence[int], golden: Sequence[int]
    ) -> List[int]:
        # Int-list storage: the comparison is already O(lines) with no
        # per-line decode; numpy cannot beat it without a repack.
        return [
            index
            for index, (stored_word, golden_word) in enumerate(zip(stored, golden))
            if stored_word != golden_word
        ]
