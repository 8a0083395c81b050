"""Small tables: register-sized lookup tables for lower bounds (Sec. 4.1/4.5).

For a PQ 8×8 quantizer there are 8 small tables S0..S7 of 16 × 8-bit
entries each — one 128-bit SIMD register per table:

* S0..S(c-1) (grouped components): the 16-entry *portion* of the distance
  table selected by the group key, quantized to int8. Reloaded per group
  (solid arrows of Figure 13).
* S(c)..S7 (non-grouped components): quantized *minimum tables*, computed
  once per query and used for the whole partition.

A lower bound for vector ``p`` is the saturated sum of 8 lookups: the low
nibbles of grouped components index S0..S(c-1), the high nibbles of the
remaining components index S(c)..S7 (dotted arrows of Figure 13).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..dtypes import Int8Array
from ..exceptions import ConfigurationError
from .grouping import Group, GroupedPartition
from .minimum_tables import PORTION_SIZE, minimum_tables
from .quantization import SATURATION, DistanceQuantizer

__all__ = ["SmallTables"]


class SmallTables:
    """Per-query small-table set for one partition scan.

    Args:
        tables: ``(m, 256)`` distance tables, already remapped to the
            optimized centroid assignment.
        c: number of grouped components (tables 0..c-1 use portions,
            tables c..m-1 use minimum tables).
        quantizer: the distance quantizer fixing qmin/qmax for this query.
    """

    def __init__(
        self, tables: npt.ArrayLike, c: int, quantizer: DistanceQuantizer
    ) -> None:
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 2 or tables.shape[1] != 256:
            raise ConfigurationError("small tables require (m, 256) distance tables")
        m = tables.shape[0]
        if not 0 <= c <= m:
            raise ConfigurationError(f"c={c} out of range for m={m}")
        self.tables = tables
        self.c = c
        self.m = m
        self.quantizer = quantizer
        non_grouped = np.arange(c, m)
        if len(non_grouped):
            mins = minimum_tables(tables, non_grouped)
            self.min_tables_q = quantizer.quantize_table(mins)
        else:
            self.min_tables_q = np.empty((0, PORTION_SIZE), dtype=np.int8)

    def portion_tables(self, key: tuple[int, ...]) -> np.ndarray:
        """Quantized portions S0..S(c-1) for one group key, ``(c, 16)`` int8."""
        if len(key) != self.c:
            raise ConfigurationError(f"key length {len(key)} != c={self.c}")
        out = np.empty((self.c, PORTION_SIZE), dtype=np.int8)
        for j, digit in enumerate(key):
            if not 0 <= digit < 16:
                raise ConfigurationError(f"group key digit out of range: {digit}")
            portion = self.tables[j, digit * PORTION_SIZE : (digit + 1) * PORTION_SIZE]
            out[j] = self.quantizer.quantize_table(portion)
        return out

    def lower_bounds(
        self,
        grouped: GroupedPartition,
        group: Group,
        start: int | None = None,
        stop: int | None = None,
    ) -> np.ndarray:
        """Saturated int8 lower bounds for rows of ``group``.

        ``start``/``stop`` clamp the row range (used to skip rows already
        scanned in the keep phase). All quantized entries are
        non-negative, so the left-fold of ``paddsb`` saturating adds
        equals ``min(sum, 127)``, computed here in int16.
        """
        start = group.start if start is None else max(start, group.start)
        stop = group.stop if stop is None else min(stop, group.stop)
        if start >= stop:
            return np.empty(0, dtype=np.int8)
        acc = np.zeros(stop - start, dtype=np.int16)
        if self.c:
            portions = self.portion_tables(group.key)
            low = grouped.low_nibbles(start, stop)
            for j in range(self.c):
                acc += portions[j][low[:, j]].astype(np.int16)
        if self.m > self.c:
            high = grouped.tail_high_nibbles(start, stop)
            for j in range(self.m - self.c):
                acc += self.min_tables_q[j][high[:, j]].astype(np.int16)
        np.minimum(acc, SATURATION, out=acc)
        # Clamped to <= 127 on the line above; entries are non-negative.
        return acc.astype(np.int8)  # reprolint: narrowing=exact

    def partition_lower_bounds(self, grouped: GroupedPartition) -> Int8Array:
        """Saturated int8 lower bounds of every row, in grouped order.

        Equal to concatenating :meth:`lower_bounds` over the groups, but
        one ``take`` per sub-quantizer over the prepared
        :attr:`GroupedPartition.lookup` rows: a group's portion is a
        slice of the whole quantized table, so indexing that table with
        the full code byte reads the same entry without knowing the key.
        """
        grouped_q = self.quantizer.quantize_table(self.tables[: self.c])
        acc = np.zeros(len(grouped), dtype=np.int16)
        for table_q, index in zip((*grouped_q, *self.min_tables_q), grouped.lookup):
            acc += table_q.take(index)
        np.minimum(acc, SATURATION, out=acc)
        # Clamped to <= 127 on the line above; entries are non-negative.
        return acc.astype(np.int8)  # reprolint: narrowing=exact

    def float_lower_bound(self, code: np.ndarray) -> float:
        """Un-quantized lower bound of one full code (testing aid).

        Sums the float portion/minimum values the quantized tables stand
        for; by construction this never exceeds the true ADC distance.
        """
        code = np.asarray(code)
        total = 0.0
        for j in range(self.c):
            # Grouped components use the exact table entry (the portion
            # holds the true values, not minima).
            total += float(self.tables[j, int(code[j])])
        for j in range(self.c, self.m):
            digit = int(code[j]) >> 4
            portion = self.tables[j, digit * PORTION_SIZE : (digit + 1) * PORTION_SIZE]
            total += float(portion.min())
        return total
