"""Quantization-only PQ Fast Scan variant (Section 5.5, Figure 17).

To isolate how much pruning power each small-table technique costs, the
paper implements a variant that *only* quantizes distances: it keeps full
256-entry tables (of 8-bit integers) and computes lower bounds as the
saturated sum of the quantized exact entries — no grouping, no minimum
tables. Such tables do not fit SIMD registers, so the variant brings no
speedup; it exists purely to measure pruning power, which the paper finds
to be 99.9%-99.97% (versus 98%-99.7% for full PQ Fast Scan), showing that
minimum tables — not quantization — cause most of the pruning-power loss.
It is an instrument, not an engine kind: Figure 17's benchmark builds it
directly (measured in numpy it is no faster than naive either).
"""

from __future__ import annotations

import numpy as np

from ..dtypes import Float64Array, Int8Array
from ..exceptions import ConfigurationError, NotFittedError
from ..ivf.partition import Partition
from ..pq.product_quantizer import ProductQuantizer
from ..scan.base import NO_IDS, PartitionScanner, table_stack
from .fast_scan import FastScanResult, pruned_scan_batch
from .quantization import SATURATION, DistanceQuantizer

__all__ = ["QuantizationOnlyScanner"]


class QuantizationOnlyScanner(PartitionScanner):
    """Lower bounds from quantized full tables; measures pruning power."""

    name = "qonly"

    def __init__(self, pq: ProductQuantizer, *, keep: float = 0.005) -> None:
        if not pq.is_fitted:
            raise NotFittedError("scanner requires a fitted ProductQuantizer")
        if pq.bits != 8:
            raise ConfigurationError("requires 8-bit sub-quantizers")
        if not 0.0 <= keep <= 1.0:
            raise ConfigurationError(f"keep must be in [0, 1], got {keep}")
        self.pq = pq
        self.keep = keep

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1,
        tombstones: np.ndarray = NO_IDS,
    ) -> list[FastScanResult]:
        """PQ Fast Scan's own :func:`pruned_scan_batch` with the bounds of
        the quantized full tables, so Figure 17 compares the two
        scanners' bounds and nothing else. The keep sample is the first
        rows in storage order."""
        tables = table_stack(tables, (self.pq.m, 256))
        codes = partition.codes

        def bounds(
            row: Float64Array, threshold: float
        ) -> tuple[DistanceQuantizer, Int8Array]:
            quantizer = DistanceQuantizer.from_tables(row, threshold)
            tables_q = quantizer.quantize_table(row)  # (m, 256) int8
            acc = np.zeros(len(codes), dtype=np.int16)
            for j in range(self.pq.m):
                acc += tables_q[j].take(codes[:, j])
            np.minimum(acc, SATURATION, out=acc)
            # Clamped to <= 127 on the line above; entries are non-negative.
            return quantizer, acc.astype(np.int8)  # reprolint: narrowing=exact

        return pruned_scan_batch(
            tables, codes, partition.ids, np.arange(len(partition)),
            keep=self.keep, topk=topk, bounds=bounds,
            context=f"qonly partition {partition.partition_id}",
            tombstones=tombstones,
        )
