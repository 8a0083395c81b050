"""libpq-style PQ Scan: 64-bit word loads with shift-extracted indexes.

Section 3.1: "Rather than loading 8 centroid indexes of 8 bits each, the
libpq implementation loads a 64-bit word into a register, and performs
8-bit shifts to access individual centroid indexes", reducing mem1
accesses from 8 to 1 (9 L1 loads per vector instead of 16) — at the cost
of extra shift/mask instructions, which on Haswell makes it *slightly
slower* than naive despite fewer loads.

The word packing and shift extraction are performed for real on uint64
arrays (see :mod:`repro.scan.layout`), so this module genuinely exercises
the libpq data movement rather than reusing the naive index path.
"""

from __future__ import annotations

import numpy as np

from ..ivf.partition import Partition
from .base import PartitionScanner, ScanResult
from .layout import extract_component, pack_codes_words
from .topk import TopKAccumulator, select_topk

__all__ = ["LibpqScanner"]


class LibpqScanner(PartitionScanner):
    """PQ Scan over word-packed codes (libpq implementation)."""

    name = "libpq"

    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanResult:
        tables = np.asarray(tables, dtype=np.float64)
        words = pack_codes_words(partition.codes)
        distances = np.zeros(len(words), dtype=np.float64)
        for j in range(8):
            indexes = extract_component(words, j)
            distances += tables[j, indexes]
        ids, dists = select_topk(distances, partition.ids, topk)
        return ScanResult(ids=ids, distances=dists, n_scanned=len(partition))

    def scan_scalar(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanResult:
        """Per-vector loop with explicit word load + shift extraction."""
        words = pack_codes_words(partition.codes)
        acc = TopKAccumulator(topk)
        for i, word in enumerate(words):
            w = int(word)  # the single mem1 load of this vector
            d = 0.0
            for j in range(8):
                index = (w >> (8 * j)) & 0xFF
                d += float(tables[j][index])
            acc.offer(d, int(partition.ids[i]))
        ids, dists = acc.result()
        return ScanResult(ids=ids, distances=dists, n_scanned=len(partition))
