"""Vector grouping and the compact code layout (Section 4.2).

Vectors are grouped on the 4 most significant bits of their first ``c``
components (c=4 in the paper for partitions over 3.2M vectors). All
vectors of a group hit the same 16-entry *portion* of the distance tables
D0..D(c-1), so those portions can be loaded into SIMD registers once per
group and used as the small tables S0..S(c-1).

Grouping also shrinks storage by 25% for c=4, m=8: within a group the
high nibble of each grouped component is the group key, so only the low
nibble needs storing. The compact layout packs the ``c`` low nibbles two
per byte followed by the ``m - c`` remaining full bytes — 6 bytes per
vector for PQ 8×8, which is exactly the "6 bytes loaded per lower bound
computation" of Section 5.8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dtypes import Int64Array, UInt8Array
from ..exceptions import ConfigurationError
from ..ivf.partition import Partition

__all__ = ["GroupedPartition", "Group", "group_key_digits", "min_partition_size"]

#: Vectors per group below which loading portions dominates (Section 4.2).
TARGET_GROUP_SIZE = 50


def min_partition_size(c: int) -> int:
    """``nmin(c) = 50 * 16**c``: smallest partition worth grouping on ``c``."""
    return TARGET_GROUP_SIZE * 16**c


def suggested_components(partition_size: int, maximum: int = 4) -> int:
    """Largest ``c <= maximum`` whose groups average >= 50 vectors."""
    c = 0
    while c < maximum and partition_size >= min_partition_size(c + 1):
        c += 1
    return c


def group_key_digits(codes: np.ndarray, c: int) -> np.ndarray:
    """High nibbles of the first ``c`` components, shape ``(n, c)``."""
    codes = np.asarray(codes)
    if not 0 <= c <= codes.shape[1]:
        raise ConfigurationError(f"cannot group on {c} of {codes.shape[1]} components")
    return (codes[:, :c] >> 4).astype(np.uint8)


@dataclass(frozen=True)
class Group:
    """One group of vectors sharing table portions.

    Attributes:
        key: ``(c,)`` portion index (0..15) per grouped component.
        start: first row of this group in the grouped partition.
        stop: one past the last row.
    """

    key: tuple[int, ...]
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


class GroupedPartition:
    """A partition reorganized for PQ Fast Scan.

    Vectors are sorted by group key and stored in the compact nibble
    layout. Built from a plain :class:`Partition` whose codes have already
    been remapped by the centroid assignment (see
    :class:`~repro.core.minimum_tables.CentroidAssignment`).

    Attributes:
        c: number of grouped components.
        m: total components per code.
        groups: list of :class:`Group` in storage order.
        ids: ``(n,)`` database ids in grouped order.
        packed_low: ``(n, ceil(c/2))`` packed low nibbles of the grouped
            components (two nibbles per byte, even component in bits 0-3).
        tail: ``(n, m-c)`` full bytes of the non-grouped components.
        codes: ``(n, m)`` full codes in grouped order (the exact path).
        lookup: ``(m, n)`` lower-bound lookup indexes, one contiguous row
            per sub-quantizer: the whole code byte of a grouped
            component (``portion(key)[low] == table[key << 4 | low]``),
            the high nibble — the minimum-table index — of the others.
        id_order: ``(n,)`` storage rows by ascending database id; its
            prefix is the keep-phase sample.
    """

    def __init__(self, partition: Partition, c: int = 4) -> None:
        codes = np.asarray(partition.codes)
        if codes.dtype != np.uint8:
            raise ConfigurationError("grouping requires uint8 codes (PQ m x 8)")
        n, m = codes.shape
        if not 0 <= c <= m:
            raise ConfigurationError(f"c={c} out of range for m={m}")
        self.c = c
        self.m = m
        self.partition_id = partition.partition_id

        digits = group_key_digits(codes, c)
        # Lexicographic sort by key digits, stable so same-group vectors
        # keep database order (ties then resolved by id in top-k anyway).
        if c > 0:
            sort_key = np.zeros(n, dtype=np.int64)
            for j in range(c):
                sort_key = sort_key * 16 + digits[:, j]
            order = np.argsort(sort_key, kind="stable")
        else:
            sort_key = np.zeros(n, dtype=np.int64)
            order = np.arange(n)
        codes = codes[order]
        digits = digits[order]
        sort_key = sort_key[order]
        self.ids: Int64Array = np.asarray(partition.ids, dtype=np.int64)[order]
        self.id_order: Int64Array = np.argsort(self.ids, kind="stable")
        self.codes: UInt8Array = codes
        self.lookup: UInt8Array = codes.T.copy()
        self.lookup[c:] >>= 4

        # Group boundaries.
        self.groups: list[Group] = []
        if n > 0:
            boundaries = np.flatnonzero(np.diff(sort_key)) + 1
            starts = np.concatenate(([0], boundaries))
            stops = np.concatenate((boundaries, [n]))
            for start, stop in zip(starts, stops):
                self.groups.append(
                    Group(
                        key=tuple(int(x) for x in digits[start]),
                        start=int(start),
                        stop=int(stop),
                    )
                )

        # Compact layout: packed low nibbles of grouped components + full
        # tail bytes. The high nibbles are NOT stored — they are the key.
        # Values are masked to 0..15 first, so the cast loses nothing.
        low = (codes[:, :c] & 0x0F).astype(np.uint8)  # reprolint: narrowing=exact
        n_low_bytes = (c + 1) // 2
        packed = np.zeros((n, n_low_bytes), dtype=np.uint8)
        for j in range(c):
            byte, shift = divmod(j, 2)
            packed[:, byte] |= low[:, j] << (4 * shift)
        self.packed_low = packed
        self.tail = codes[:, c:].copy()

    def __len__(self) -> int:
        return len(self.ids)

    # -- compact-layout accessors -------------------------------------------

    @property
    def nbytes(self) -> int:
        """Compact storage footprint in bytes."""
        return self.packed_low.nbytes + self.tail.nbytes

    @property
    def raw_nbytes(self) -> int:
        """Footprint of the plain (ungrouped) layout, for the 25% claim."""
        return len(self) * self.m

    @property
    def memory_saving(self) -> float:
        """Fraction of memory saved by the compact layout."""
        if self.raw_nbytes == 0:
            return 0.0
        return 1.0 - self.nbytes / self.raw_nbytes

    def low_nibbles(self, start: int, stop: int) -> np.ndarray:
        """Unpack low nibbles of grouped components for rows [start, stop)."""
        out = np.empty((stop - start, self.c), dtype=np.uint8)
        packed = self.packed_low[start:stop]
        for j in range(self.c):
            byte, shift = divmod(j, 2)
            out[:, j] = (packed[:, byte] >> (4 * shift)) & 0x0F
        return out

    def tail_high_nibbles(self, start: int, stop: int) -> np.ndarray:
        """High nibbles of non-grouped components (index S_c..S_{m-1})."""
        return (self.tail[start:stop] >> 4).astype(np.uint8)

    def reconstruct_all(self) -> np.ndarray:
        """Full codes in grouped order, rebuilt from the compact storage."""
        out = np.empty((len(self), self.m), dtype=np.uint8)
        out[:, : self.c] = self.low_nibbles(0, len(self))
        out[:, self.c :] = self.tail
        for group in self.groups:
            for j, digit in enumerate(group.key):
                out[group.start : group.stop, j] |= digit << 4
        return out

    def group_stats(self) -> dict[str, float]:
        """Summary used by the grouping ablation (Section 5.6)."""
        sizes = np.array([len(g) for g in self.groups], dtype=np.float64)
        if len(sizes) == 0:
            return {"n_groups": 0, "mean_size": 0.0, "min_size": 0.0, "max_size": 0.0}
        return {
            "n_groups": int(len(sizes)),
            "mean_size": float(sizes.mean()),
            "min_size": float(sizes.min()),
            "max_size": float(sizes.max()),
        }
