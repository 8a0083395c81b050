"""Naive PQ Scan: direct transliteration of Algorithm 1.

Per scanned vector (PQ 8×8): 8 mem1 loads of byte indexes, 8 mem2 loads
from the distance tables, 8 scalar additions — 16 L1 loads total
(Section 3.1).

Two code paths are provided:

* :meth:`NaiveScanner.scan` — vectorized over the partition with numpy;
  this is what benchmarks use for wall-clock runs. Numerically it
  performs exactly the per-vector sum of Equation (3).
* :meth:`NaiveScanner.scan_scalar` — the literal loop of Algorithm 1,
  used by the tests as the semantic reference and kept close to the
  paper's pseudocode line-for-line.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionMismatchError
from ..ivf.partition import Partition
from ..pq.adc import adc_distance_single, adc_distances
from .base import PartitionScanner, ScanBlock, ScanResult
from .topk import TopKAccumulator, select_topk, select_topk_rows

__all__ = ["NaiveScanner"]


class NaiveScanner(PartitionScanner):
    """The paper's baseline PQ Scan (Algorithm 1)."""

    name = "naive"

    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanResult:
        distances = adc_distances(tables, partition.codes)
        ids, dists = select_topk(distances, partition.ids, topk)
        return ScanResult(ids=ids, distances=dists, n_scanned=len(partition))

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanBlock:
        """Scan one partition for a whole query batch at once.

        ``tables`` is the ``(b, m, k*)`` stack of per-query distance
        tables. The codes are gathered once per component for the whole
        batch, the per-component contributions accumulate in the same
        left-to-right order as :func:`~repro.pq.adc.adc_distances`, and
        one :func:`~repro.scan.select_topk_rows` selects for every query,
        so result ``i`` is bit-identical to ``scan(tables[i], ...)``.
        """
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 3:
            raise DimensionMismatchError(3, tables.ndim, what="array rank")
        codes = partition.codes
        if codes.shape[1] != tables.shape[1]:
            raise DimensionMismatchError(tables.shape[1], codes.shape[1], what="code")
        distances = tables[:, 0, :].take(codes[:, 0], axis=1)
        for j in range(1, tables.shape[1]):
            distances += tables[:, j, :].take(codes[:, j], axis=1)
        n, b = len(partition), len(distances)
        ids, dists = select_topk_rows(distances, partition.ids, topk)
        counts = np.array([[ids.shape[1]], [n], [0]], dtype=np.int64)
        return ScanBlock(ids, dists, np.repeat(counts, b, axis=1))

    def scan_scalar(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanResult:
        """Literal Algorithm 1 loop (pqscan / pqdistance)."""
        acc = TopKAccumulator(topk)
        for i in range(len(partition)):
            p = partition.codes[i]
            d = adc_distance_single(tables, p)
            acc.offer(d, int(partition.ids[i]))
        ids, dists = acc.result()
        return ScanResult(ids=ids, distances=dists, n_scanned=len(partition))
