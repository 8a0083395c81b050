"""Quick ADC scan: exact in-register lookups over 4-bit sub-quantizers.

Quick ADC (arXiv 1704.07355) is the successor move to the paper's PQ
Fast Scan: instead of squeezing 256-entry 8-bit tables into registers
via vector grouping and minimum tables, it halves the sub-quantizer
width. A PQ m×4 code has 16-entry distance tables, and a 16-entry int8
table *is* one 128-bit register — so every lookup is an exact
``pshufb``, with no grouping, no minimum tables and no per-group
bookkeeping. Quicker ADC (arXiv 1812.09162) and the ARM 4-bit PQ paper
(arXiv 2203.02505) extend the same layout to AVX-512 (``vpshufb`` over
512-bit lanes, 4 blocks per instruction) and NEON (``tbl``); the
:mod:`repro.simd` cost models for both live in
:mod:`repro.simd.arch`.

Scan pipeline implemented by :class:`QuickADCScanner` (mirrored
instruction-for-instruction by
:func:`repro.simd.kernels.quickadc_kernel`):

1. **sample phase** — the first ``keep`` fraction of the database
   (smallest ids, exactly the keep-phase rule of
   :class:`~repro.core.fast_scan.PQFastScanner`) is scanned with exact
   ADC; the temporary topk-th distance becomes the quantization bound
   ``qmax``.
2. **quantized pass** — the float tables floor-quantize to ``(m, 16)``
   int8 (:class:`~repro.core.quantization.DistanceQuantizer`); every
   vector's lower bound is the saturating ``paddsb`` fold of its ``m``
   in-register lookups. Here that is one pair-table lookup per packed
   byte of the prepared :class:`~repro.scan.layout.NibblePartition`
   (the split into nibbles happened once, at build time).
3. **candidate selection** — rows whose bound does not exceed the
   *smaller* of the ceil-quantized sample threshold and the topk-th
   smallest bound are kept as candidates.
4. **exact rerank** — candidates (and only candidates) get exact float
   ADC distances and are merged with the sample phase's topk.

Unlike PQ Fast Scan, Quick ADC is **approximate at the margin**: two
vectors whose true distances straddle the final topk boundary can fall
into the same quantization bin, in which case selection by the bound
may keep the wrong one. The paper accepts this (4-bit codes already
trade recall for speed); the reports quantify it as recall against the
exhaustive scan. What *is* guaranteed, and what the execution layers
assert, is determinism: every executor path returns byte-identical
results to this scanner's own sequential scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.quantization import SATURATION, DistanceQuantizer
from ..core.sanitize import (
    check_lower_bound_invariant,
    check_nibble_invariant,
    check_saturation_invariant,
    sanitizer_enabled,
)
from ..exceptions import ConfigurationError, DimensionMismatchError, NotFittedError
from ..ivf.partition import Partition
from ..pq.adc import adc_distances
from ..pq.product_quantizer import ProductQuantizer
from .base import PartitionScanner, ScanResult
from .layout import NibblePartition
from .prepared import PreparedCache
from .topk import select_topk

__all__ = ["QuickADCScanner", "QuickADCResult"]


@dataclass(frozen=True)
class QuickADCResult(ScanResult):
    """ScanResult enriched with Quick ADC statistics.

    Attributes (in addition to :class:`ScanResult`):
        n_sample: vectors scanned with exact ADC in the sample phase.
        n_candidates: vectors reranked with exact ADC after the
            quantized pass.
        n_saturated: vectors whose quantized bound saturated at 127
            (their true distance is provably >= qmax).
        qmin: lower quantization bound used for this query.
        qmax: upper quantization bound (temporary-NN distance).
    """

    n_sample: int = 0
    n_candidates: int = 0
    n_saturated: int = 0
    qmin: float = 0.0
    qmax: float = 0.0


class QuickADCScanner(PreparedCache[NibblePartition], PartitionScanner):
    """Scanner implementing Quick ADC over PQ m×4 nibble codes.

    Args:
        pq: the fitted product quantizer of the database (must be m×4:
            nibble codes; Quick ADC targets 16-entry tables).
        keep: fraction of the partition scanned with exact ADC to bound
            ``qmax`` (same role and same row-selection rule as PQ Fast
            Scan's keep phase, default 0.5%).
        prepared_cache_size: maximum nibble layouts held by the
            :meth:`prepared` cache (LRU eviction beyond that;
            ``None`` = unbounded).
    """

    name = "quickadc"

    def __init__(
        self,
        pq: ProductQuantizer,
        /,
        *,
        keep: float = 0.005,
        prepared_cache_size: int | None = 256,
    ) -> None:
        if not pq.is_fitted:
            raise NotFittedError("QuickADCScanner requires a fitted ProductQuantizer")
        if pq.bits != 4:
            raise ConfigurationError(
                "Quick ADC requires 4-bit sub-quantizers (nibble codes, "
                f"16-entry register tables); got bits={pq.bits}"
            )
        if not 0.0 <= keep <= 1.0:
            raise ConfigurationError(f"keep must be in [0, 1], got {keep}")
        PreparedCache.__init__(self, prepared_cache_size)
        self.pq = pq
        self.keep = keep

    def prepare(self, partition: Partition) -> NibblePartition:
        """Transpose the partition's codes into the nibble layout.

        This is the build-time step of Quick ADC; the layout is
        query-independent and reused for every scan of the partition.
        """
        return NibblePartition(partition.codes, partition.ids)

    # -- scanning ---------------------------------------------------------------

    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> QuickADCResult:
        """Full Quick ADC scan of ``partition`` for one query."""
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 2:
            raise DimensionMismatchError(2, tables.ndim, what="array rank")
        return self.scan_batch(tables[None], partition, topk)[0]

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> list[QuickADCResult]:
        """Scan one partition for a whole ``(b, m, 16)`` table stack.

        What does not depend on the query (table shape check, layout
        fetch, the sample rows, the sanitizer's code-range check) is
        done once for the batch; result ``i`` is byte-identical to
        ``scan(tables[i], ...)``.
        """
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 3:
            raise DimensionMismatchError(3, tables.ndim, what="array rank")
        m = self.pq.m
        if tables.shape[1:] != (m, self.pq.ksub):
            raise DimensionMismatchError(
                m * self.pq.ksub, tables.shape[1] * tables.shape[2], what="table"
            )
        layout = self.prepared(partition)
        n = len(partition)
        if n == 0:
            return [
                QuickADCResult(
                    ids=np.empty(0, dtype=np.int64),
                    distances=np.empty(0, dtype=np.float64),
                    n_scanned=0,
                )
                for _ in tables
            ]
        ids = partition.ids
        codes = partition.codes
        sanitize = sanitizer_enabled()
        context = f"quickadc partition {partition.partition_id}"
        if sanitize:
            # Validate the nibble range before the exact sample phase
            # indexes any table with these codes: the cached layout may
            # predate in-place corruption of the code array.
            check_nibble_invariant(codes, context=context)

        # Sample rows: the first keep% of the *database* (smallest ids)
        # — the same representative-sample rule as the fast-scan keep
        # phase; needs at least topk rows to bound qmax.
        n_sample = min(n, max(int(np.ceil(self.keep * n)), topk))
        sample_rows = layout.id_order[:n_sample]
        sample_codes = codes[sample_rows]
        sample_ids = ids[sample_rows]
        fresh = np.ones(n, dtype=np.bool_)
        fresh[sample_rows] = False

        results = []
        for row in tables:
            # Sample phase: exact ADC seeds the topk.
            top_ids, top_dists = select_topk(
                adc_distances(row, sample_codes), sample_ids, topk
            )
            if n_sample == n:
                # The sample was the whole partition (always so below
                # topk rows, where no finite qmax exists): the scan is
                # already exact and complete, no quantized pass needed.
                results.append(QuickADCResult(
                    ids=top_ids, distances=top_dists, n_scanned=n, n_sample=n
                ))
                continue

            # Quantized pass: the temporary-NN topk-th distance bounds
            # the quantization; every vector's lower bound comes from
            # one pair-table lookup per packed byte.
            threshold = float(top_dists[-1])
            quantizer = DistanceQuantizer.from_tables(row, threshold)
            q_tables = quantizer.quantize_table(row)
            bounds = layout.lower_bounds(q_tables)
            if sanitize:
                check_saturation_invariant(q_tables, context=context)
                check_lower_bound_invariant(
                    bounds, adc_distances(row, codes), quantizer, m, context=context
                )

            # Candidate selection: the sample threshold prunes rows
            # provably worse than the temporary NN set; the topk-th
            # smallest bound additionally caps the rerank at the rows
            # that could still matter. This second cut is where Quick
            # ADC is approximate: ties in quantized space are resolved
            # by the bound, not the exact distance.
            sample_cut = quantizer.quantize_threshold(threshold, components=m)
            kth_bound = int(np.partition(bounds, topk - 1)[topk - 1])
            candidates = np.flatnonzero(
                (bounds <= min(sample_cut, kth_bound)) & fresh
            )

            # Exact rerank of candidates only (the sample is already in).
            if len(candidates):
                top_ids, top_dists = select_topk(
                    np.concatenate(
                        (top_dists, adc_distances(row, codes[candidates]))
                    ),
                    np.concatenate((top_ids, ids[candidates])),
                    topk,
                )
            results.append(QuickADCResult(
                ids=top_ids,
                distances=top_dists,
                n_scanned=n,
                n_pruned=n - n_sample - len(candidates),
                n_sample=n_sample,
                n_candidates=len(candidates),
                n_saturated=int(np.count_nonzero(bounds >= SATURATION)),
                qmin=quantizer.qmin,
                qmax=quantizer.qmax,
            ))
        return results
