"""Naive PQ Scan: direct transliteration of Algorithm 1.

Per scanned vector (PQ 8×8): 8 mem1 loads of byte indexes, 8 mem2 loads
from the distance tables, 8 scalar additions — 16 L1 loads total
(Section 3.1).

Two code paths are provided:

* :meth:`NaiveScanner.scan_batch` — vectorized over the partition and
  the query batch with numpy (``scan`` is its batch of one); this is what
  benchmarks use for wall-clock runs. Numerically it performs exactly
  the per-vector sum of Equation (3).
* :meth:`NaiveScanner.scan_scalar` — the literal loop of Algorithm 1,
  used by the tests as the semantic reference and kept close to the
  paper's pseudocode line-for-line.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionMismatchError
from ..ivf.partition import Partition
from ..pq.adc import adc_distance_single, adc_distances_batch
from .base import PartitionScanner, ScanBlock, ScanResult
from .topk import TopKAccumulator

__all__ = ["NaiveScanner"]


class NaiveScanner(PartitionScanner):
    """The paper's baseline PQ Scan (Algorithm 1)."""

    name = "naive"

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanBlock:
        """Scan one partition for a whole query batch at once.

        ``tables`` is the ``(b, m, k*)`` stack of per-query distance
        tables. :func:`~repro.pq.adc.adc_distances_batch` gathers the
        codes once per component for the whole batch, summed in
        :func:`~repro.pq.adc.adc_distances`' order, and one
        :func:`~repro.scan.select_topk_rows` selects for every query.
        """
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 3:
            raise DimensionMismatchError(3, tables.ndim, what="array rank")
        return ScanBlock.exhaustive(
            adc_distances_batch(tables, partition.codes), partition.ids, topk
        )

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
