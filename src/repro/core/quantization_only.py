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
from ..scan.topk import TopKAccumulator
from .fast_scan import FastScanResult
from .quantization import SATURATION, DistanceQuantizer
from .sanitize import check_lower_bound_invariant, sanitizer_enabled

__all__ = ["QuantizationOnlyScanner"]


class QuantizationOnlyScanner(PartitionScanner):
    """Lower bounds from quantized full tables; measures pruning power."""

    name = "qonly"

    #: ``chunk`` trades pruning power for batching: the threshold only
    #: tightens between chunks, so very large chunks scan with a stale
    #: threshold. 512 keeps the loss negligible at benchmark scales.

    def __init__(self, pq: ProductQuantizer, *, keep: float = 0.005,
                 chunk: int = 512) -> None:
        if not pq.is_fitted:
            raise NotFittedError("scanner requires a fitted ProductQuantizer")
        if pq.bits != 8:
            raise ConfigurationError("requires 8-bit sub-quantizers")
        if not 0.0 <= keep <= 1.0:
            raise ConfigurationError(f"keep must be in [0, 1], got {keep}")
        self.pq = pq
        self.keep = keep
        self.chunk = chunk

    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> FastScanResult:
        tables = np.asarray(tables, dtype=np.float64)
        codes = partition.codes
        ids = partition.ids
        n = len(partition)
        acc = TopKAccumulator(topk)
        n_keep = min(n, max(int(np.ceil(self.keep * n)), topk))
        keep_dists = adc_distances(tables, codes[:n_keep])
        acc.offer_many(keep_dists, ids[:n_keep])
        if n_keep == n:
            # The keep phase was the whole partition (always so below
            # topk rows, where no finite qmax exists): already exact.
            result_ids, result_dists = acc.result()
            return FastScanResult(
                ids=result_ids, distances=result_dists, n_scanned=n, n_keep=n
            )

        quantizer = DistanceQuantizer.from_tables(tables, acc.threshold)
        tables_q = quantizer.quantize_table(tables)  # (m, 256) int8
        threshold_q = quantizer.quantize_threshold(acc.threshold, components=self.pq.m)

        n_pruned = 0
        n_exact = 0
        sanitize = sanitizer_enabled()
        for start in range(n_keep, n, self.chunk):
            stop = min(start + self.chunk, n)
            block = codes[start:stop]
            lb = np.zeros(stop - start, dtype=np.int16)
            for j in range(tables_q.shape[0]):
                lb += tables_q[j, block[:, j]].astype(np.int16)
            np.minimum(lb, SATURATION, out=lb)
            if sanitize:
                check_lower_bound_invariant(
                    lb,
                    adc_distances(tables, block),
                    quantizer,
                    self.pq.m,
                    context=f"quantization-only rows {start}:{stop}",
                )
            survivors = np.flatnonzero(lb <= threshold_q)
            n_pruned += (stop - start) - len(survivors)
            if len(survivors) == 0:
                continue
            n_exact += len(survivors)
            dists = adc_distances(tables, block[survivors])
            acc.offer_many(dists, ids[start + survivors])
            threshold_q = quantizer.quantize_threshold(acc.threshold, components=self.pq.m)

        result_ids, result_dists = acc.result()
        return FastScanResult(
            ids=result_ids,
            distances=result_dists,
            n_scanned=n,
            n_pruned=n_pruned,
            n_keep=n_keep,
            n_exact=n_exact,
            qmin=quantizer.qmin,
            qmax=quantizer.qmax,
        )
