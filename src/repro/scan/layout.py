"""Database memory layouts used by the PQ Scan implementations.

Section 3 of the paper studies four PQ Scan implementations that differ
mainly in how pqcodes are laid out and loaded:

* **row layout** — each vector's ``m`` byte-sized indexes stored
  contiguously (Figure 1); used by the naive implementation.
* **word-packed layout** — the ``m=8`` byte indexes of a vector packed
  into a single 64-bit word loaded at once; individual indexes extracted
  with 8-bit shifts (the libpq implementation).
* **transposed layout** — the j-th components of 8 consecutive vectors
  stored contiguously so one SIMD load fetches ``a[j] .. h[j]`` (the AVX
  and gather implementations, Figure 5).
* **nibble-packed layout** — the Quick ADC successor layout (arXiv
  1704.07355, Figure 2) for 4-bit sub-quantizers: two 4-bit centroid
  indexes share one byte, and the j-th nibbles of 16 consecutive vectors
  form one 128-bit block, so a single SIMD load feeds an in-register
  ``pshufb`` lookup with no grouping or minimum tables.
  :class:`NibblePartition` is that layout at numpy's register width:
  one contiguous row of packed bytes per nibble pair, consumed whole.

These layouts are implemented for real here — packing, shifting and
transposition are performed with genuine integer manipulation so tests
can verify the data-movement logic, not just the arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "pack_codes_words",
    "unpack_codes_words",
    "extract_component",
    "transpose_codes",
    "untranspose_codes",
    "pack_nibbles",
    "unpack_nibbles",
    "nibble_block_layout",
    "nibble_lower_bounds",
    "NibblePartition",
]


def pack_codes_words(codes: np.ndarray) -> np.ndarray:
    """Pack ``(n, 8)`` uint8 pqcodes into ``(n,)`` little-endian uint64.

    Component ``j`` occupies bits ``8j .. 8j+7`` of the word, matching a
    64-bit load of the row layout on a little-endian machine.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != 8:
        raise ConfigurationError("word packing requires (n, 8) codes (PQ 8x8)")
    if codes.dtype != np.uint8:
        if codes.max(initial=0) > 0xFF or codes.min(initial=0) < 0:
            raise ConfigurationError("code components must fit in a byte")
        codes = codes.astype(np.uint8)
    return np.ascontiguousarray(codes).view("<u8")[:, 0]


def unpack_codes_words(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_codes_words`: ``(n,)`` uint64 → ``(n, 8)``."""
    words = np.ascontiguousarray(np.asarray(words, dtype="<u8"))
    return words.view(np.uint8).reshape(-1, 8)


def extract_component(words: np.ndarray, j: int) -> np.ndarray:
    """libpq-style index extraction: shift then mask the packed word.

    Mirrors the ``(word >> 8*j) & 0xFF`` idiom of the libpq scan loop.
    """
    if not 0 <= j < 8:
        raise ConfigurationError(f"component index must be in [0, 8), got {j}")
    return ((np.asarray(words, dtype=np.uint64) >> np.uint64(8 * j))
            & np.uint64(0xFF)).astype(np.uint8)


def transpose_codes(codes: np.ndarray, lanes: int = 8) -> tuple[np.ndarray, int]:
    """Re-lay ``(n, m)`` codes into SIMD-friendly transposed blocks.

    Returns ``(blocks, n)`` where ``blocks`` has shape
    ``(n_blocks, m, lanes)``: block ``b`` stores the j-th components of
    vectors ``b*lanes .. b*lanes+lanes-1`` contiguously (Figure 5's layout,
    enabling one load per table instead of per element). The tail block is
    padded with repeats of the last vector; ``n`` recovers the true count.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ConfigurationError("transpose_codes expects (n, m) codes")
    n, m = codes.shape
    if n == 0:
        return np.empty((0, m, lanes), dtype=codes.dtype), 0
    n_blocks = (n + lanes - 1) // lanes
    padded = np.empty((n_blocks * lanes, m), dtype=codes.dtype)
    padded[:n] = codes
    padded[n:] = codes[-1]
    blocks = padded.reshape(n_blocks, lanes, m).transpose(0, 2, 1)
    return np.ascontiguousarray(blocks), n


def untranspose_codes(blocks: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`transpose_codes`, dropping the padding."""
    blocks = np.asarray(blocks)
    if blocks.ndim != 3:
        raise ConfigurationError("untranspose_codes expects (blocks, m, lanes)")
    n_blocks, m, lanes = blocks.shape
    codes = blocks.transpose(0, 2, 1).reshape(n_blocks * lanes, m)
    return codes[:n].copy()


# -- Quick ADC nibble-packed layout (4-bit sub-quantizers) ---------------------

#: Vectors per 128-bit block of the nibble layout (one SIMD register).
NIBBLE_BLOCK = 16


def _checked_nibbles(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ConfigurationError("nibble packing expects (n, m) codes")
    if codes.dtype != np.uint8:
        raise ConfigurationError(
            f"4-bit codes must be uint8 sub-indexes, got dtype {codes.dtype}"
        )
    if codes.size and int(codes.max()) > 0x0F:
        raise ConfigurationError(
            "4-bit codes must have sub-indexes in [0, 16), found "
            f"{int(codes.max())}"
        )
    return codes


def pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Pack ``(n, m)`` 4-bit sub-indexes into ``(n, ceil(m/2))`` bytes.

    Component ``2s`` occupies the low nibble of byte ``s`` and component
    ``2s+1`` its high nibble — the extraction order of the SIMD kernel
    (``pand`` for even components, ``psrlw``+``pand`` for odd ones).
    With odd ``m`` the final high nibble is zero padding.
    """
    codes = _checked_nibbles(codes)
    n, m = codes.shape
    n_slices = (m + 1) // 2
    padded = np.zeros((n, n_slices * 2), dtype=np.uint8)
    padded[:, :m] = codes
    low = padded[:, 0::2]
    high = padded[:, 1::2]
    # Both nibbles are < 16, so the OR of low | high<<4 stays a byte.
    return (low | (high << 4)).astype(np.uint8)  # reprolint: narrowing=exact


def unpack_nibbles(packed: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`: ``(n, ceil(m/2))`` bytes → ``(n, m)``."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ConfigurationError("unpack_nibbles expects (n, slices) bytes")
    if m < 1 or (m + 1) // 2 != packed.shape[1]:
        raise ConfigurationError(
            f"m={m} does not match {packed.shape[1]} packed byte slices"
        )
    out = np.empty((packed.shape[0], packed.shape[1] * 2), dtype=np.uint8)
    # Masking/shifting nibbles out of bytes cannot leave the uint8 range.
    out[:, 0::2] = packed & 0x0F
    out[:, 1::2] = packed >> 4
    return out[:, :m].copy()


def nibble_block_layout(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Quick ADC Figure-2 block layout of ``(n, m)`` 4-bit codes.

    Returns ``(blocks, n)`` where ``blocks`` has shape
    ``(n_blocks, ceil(m/2), 16)`` uint8: slice ``s`` of block ``b`` holds
    packed byte ``s`` (components ``2s`` and ``2s+1``) of vectors
    ``b*16 .. b*16+15``, so one 128-bit load brings one nibble pair of 16
    vectors. The tail block is padded by repeating the last vector;
    padding lanes must be masked out by the consumer.
    """
    codes = _checked_nibbles(codes)
    n, m = codes.shape
    packed = pack_nibbles(codes)
    n_slices = packed.shape[1]
    if n == 0:
        return np.empty((0, n_slices, NIBBLE_BLOCK), dtype=np.uint8), 0
    n_blocks = (n + NIBBLE_BLOCK - 1) // NIBBLE_BLOCK
    padded = np.empty((n_blocks * NIBBLE_BLOCK, n_slices), dtype=np.uint8)
    padded[:n] = packed
    padded[n:] = packed[-1]
    blocks = padded.reshape(n_blocks, NIBBLE_BLOCK, n_slices).transpose(0, 2, 1)
    return np.ascontiguousarray(blocks), n


def nibble_lower_bounds(packed: np.ndarray, q_tables: np.ndarray) -> np.ndarray:
    """Saturating int8 lower bounds from a nibble-packed code array.

    ``packed`` is the ``(n, ceil(m/2))`` output of :func:`pack_nibbles`;
    ``q_tables`` the ``(m, 16)`` floor-quantized int8 distance tables
    (entries 0..127). The returned int16 bounds equal a left-fold of
    saturating ``paddsb`` adds over the per-component lookups: all
    entries are non-negative, so the fold equals ``min(sum, 127)`` (see
    :mod:`repro.core.quantization`) — which is what is computed here,
    vectorized.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    q_tables = np.asarray(q_tables)
    if packed.ndim != 2 or q_tables.ndim != 2 or q_tables.shape[1] != 16:
        raise ConfigurationError(
            "nibble_lower_bounds expects (n, slices) packed codes and "
            "(m, 16) quantized tables"
        )
    m = q_tables.shape[0]
    if (m + 1) // 2 != packed.shape[1]:
        raise ConfigurationError(
            f"m={m} tables do not match {packed.shape[1]} packed byte slices"
        )
    total = np.zeros(packed.shape[0], dtype=np.int16)
    for j in range(m):
        byte, half = divmod(j, 2)
        column = packed[:, byte]
        idx = (column & 0x0F) if half == 0 else (column >> 4)
        total += q_tables[j].astype(np.int16)[idx]
    return np.minimum(total, 127)


class NibblePartition:
    """A partition prepared for Quick ADC: the transposed nibble layout.

    Built once per partition (the query-independent half of the scan)
    and reused by every query, as
    :class:`~repro.core.grouping.GroupedPartition` is for PQ Fast Scan.

    Attributes:
        m: components per code.
        packed: ``(ceil(m/2), n)`` C-contiguous bytes, the transpose of
            :func:`pack_nibbles`: row ``s`` holds components ``2s`` (low
            nibble) and ``2s+1`` (high nibble) of every vector, so a
            lookup reads one packed column as it lies in memory.
        id_order: ``(n,)`` storage rows by ascending database id
            (stable); its prefix is the sample phase.
    """

    def __init__(self, codes: np.ndarray, ids: np.ndarray) -> None:
        codes = np.asarray(codes)
        self.packed = np.ascontiguousarray(pack_nibbles(codes).T)
        self.m = int(codes.shape[1])
        self.id_order = np.argsort(np.asarray(ids), kind="stable")

    def __len__(self) -> int:
        return self.packed.shape[1]

    def lower_bounds(self, q_tables: np.ndarray) -> np.ndarray:
        """Saturating lower bounds of every row, one lookup per byte.

        The same integers as :func:`nibble_lower_bounds` (and as the
        kernel's ``pshufb``/``paddsb`` fold), from one 256-entry *pair
        table* per packed byte,
        ``pair[s][hi << 4 | lo] = q_tables[2s][lo] + q_tables[2s+1][hi]``:
        the packed byte is the index, so no nibble is extracted per
        query. Entries are 0..127, so a pair is at most 254 and the
        int16 sum of ``ceil(m/2)`` pairs cannot wrap before the clamp.
        """
        q_tables = np.asarray(q_tables)
        if q_tables.shape != (self.m, 16):
            raise ConfigurationError(
                f"expected ({self.m}, 16) quantized tables, got {q_tables.shape}"
            )
        padded = np.zeros((2 * len(self.packed), 16), dtype=np.int16)
        padded[: self.m] = q_tables  # odd m: the padding nibble reads zeros
        pair = (padded[0::2, None, :] + padded[1::2, :, None]).reshape(-1, 256)
        total = pair[0].take(self.packed[0])
        for table, column in zip(pair[1:], self.packed[1:]):
            total += table.take(column)
        return np.minimum(total, 127, out=total)
