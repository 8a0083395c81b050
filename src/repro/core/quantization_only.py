"""Quantization-only PQ Fast Scan variant (Section 5.5, Figure 17).

To isolate how much pruning power each small-table technique costs, the
paper implements a variant that *only* quantizes distances: it keeps full
256-entry tables (of 8-bit integers) and computes lower bounds as the
saturated sum of the quantized exact entries — no grouping, no minimum
tables. Such tables do not fit SIMD registers, so the variant brings no
speedup; it exists purely to measure pruning power, which the paper finds
to be 99.9%-99.97% (versus 98%-99.7% for full PQ Fast Scan), showing that
minimum tables — not quantization — cause most of the pruning-power loss.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from ..ivf.partition import Partition
from ..pq.adc import adc_distances
from ..pq.product_quantizer import ProductQuantizer
from ..scan.base import PartitionScanner
from ..scan.topk import select_topk
from .fast_scan import FastScanResult, best_first_pass
from .quantization import SATURATION, DistanceQuantizer
from .sanitize import check_lower_bound_invariant, sanitizer_enabled

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

    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> FastScanResult:
        tables = np.asarray(tables, dtype=np.float64)
        codes = partition.codes
        ids = partition.ids
        n = len(partition)
        n_keep = min(n, max(int(np.ceil(self.keep * n)), topk))
        top_ids, top_dists = select_topk(
            adc_distances(tables, codes[:n_keep]), ids[:n_keep], topk
        )
        if n_keep == n:
            # The keep phase was the whole partition (always so below
            # topk rows, where no finite qmax exists): already exact.
            return FastScanResult(
                ids=top_ids, distances=top_dists, n_scanned=n, n_keep=n
            )

        m = self.pq.m
        quantizer = DistanceQuantizer.from_tables(tables, float(top_dists[-1]))
        tables_q = quantizer.quantize_table(tables)  # (m, 256) int8
        acc = np.zeros(n, dtype=np.int16)
        for j in range(m):
            acc += tables_q[j].take(codes[:, j])
        np.minimum(acc, SATURATION, out=acc)
        # Clamped to <= 127 on the line above; entries are non-negative.
        bounds = acc.astype(np.int8)  # reprolint: narrowing=exact
        if sanitizer_enabled():
            check_lower_bound_invariant(
                bounds,
                adc_distances(tables, codes),
                quantizer,
                m,
                context=f"qonly partition {partition.partition_id}",
            )
        # The survivor schedule is PQ Fast Scan's own, so Figure 17
        # compares the two scanners' bounds and nothing else.
        top_ids, top_dists, n_exact = best_first_pass(
            bounds,
            np.arange(n_keep),
            quantizer,
            (top_ids, top_dists),
            ids,
            lambda rows: adc_distances(tables, codes[rows]),
            components=m,
        )
        return FastScanResult(
            ids=top_ids,
            distances=top_dists,
            n_scanned=n,
            n_pruned=n - n_keep - n_exact,
            n_keep=n_keep,
            n_exact=n_exact,
            qmin=quantizer.qmin,
            qmax=quantizer.qmax,
        )
