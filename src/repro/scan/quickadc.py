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

A row a job's tombstones name is skipped: it is never sampled, never a
candidate and never counted into the ``kth_bound`` cut, so the scan
returns live rows only, each at its ADC distance.

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
from ..exceptions import ConfigurationError, NotFittedError
from ..ivf.partition import Partition
from ..pq.adc import adc_distances, adc_distances_batch
from ..pq.product_quantizer import ProductQuantizer
from .base import NO_IDS, PartitionScanner, ScanResult, table_stack
from .layout import NibblePartition
from .prepared import PreparedCache
from .topk import dead_rows, live_sample, select_topk, select_topk_rows

__all__ = ["QuickADCScanner", "QuickADCResult"]

#: Most bounds one :meth:`NibblePartition.lower_bounds` block holds: a
#: batch's quantized pass runs over as many queries at a time as fit
#: (all 16 of a 16 384-row partition; one at a time past 2^20 rows), so
#: the int16 block stays at 2 MiB whatever the batch.
_BOUND_RUN_CELLS = 1 << 20


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
    """

    name = "quickadc"

    def __init__(
        self,
        pq: ProductQuantizer,
        /,
        *,
        keep: float = 0.005,
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
        PreparedCache.__init__(self)
        self.pq = pq
        self.keep = keep

    def prepare(self, partition: Partition) -> NibblePartition:
        """Transpose the partition's codes into the nibble layout.

        This is the build-time step of Quick ADC; the layout is
        query-independent and reused for every scan of the partition.
        """
        return NibblePartition(partition.codes, partition.ids)

    # -- scanning ---------------------------------------------------------------

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1,
        tombstones: np.ndarray = NO_IDS,
    ) -> list[QuickADCResult]:
        """Scan one partition, minus the rows ``tombstones`` name, for a
        whole ``(b, m, 16)`` table stack.

        What does not depend on the query (table shape check, layout
        fetch, the sample rows, the sanitizer's code-range check) is
        done once for the batch, and the sample phase, the bounds, the
        ``kth_bound`` cut and the saturation counts are each one block
        operation over the batch (the bounds in runs of at most
        :data:`_BOUND_RUN_CELLS`); only the quantizer and the ragged
        candidate rerank are per query. Every step is the same
        elementwise arithmetic in the same order for every row, so
        result ``i`` does not depend on the other rows of the stack.
        """
        m = self.pq.m
        tables = table_stack(tables, (m, self.pq.ksub))
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

        # Sample rows: the first keep% of the live *database* (smallest
        # ids) — the same representative-sample rule as the fast-scan
        # keep phase; needs at least topk rows to bound qmax.
        dead = dead_rows(ids, tombstones)
        sample_rows, n_live = live_sample(layout.id_order, self.keep, topk, dead)
        n_sample = len(sample_rows)
        # Sample phase: exact ADC seeds every query's topk, one gather
        # and one selection for the batch.
        sample_ids, sample_dists = select_topk_rows(
            adc_distances_batch(tables, codes[sample_rows]), ids[sample_rows], topk
        )
        if n_sample == n_live:
            # The sample was every live row (always so below topk live
            # rows, where no finite qmax exists): the scan is already
            # exact and complete, no quantized pass needed.
            return [
                QuickADCResult(
                    ids=top_ids, distances=top_dists, n_scanned=n, n_sample=n_sample
                )
                for top_ids, top_dists in zip(sample_ids, sample_dists)
            ]

        # Quantized pass: each query's temporary-NN topk-th distance
        # bounds its own quantization; every vector's lower bound comes
        # from one pair-table lookup per packed byte, for a run of
        # queries at once.
        thresholds = sample_dists[:, -1].tolist()
        quantizers = [
            DistanceQuantizer.from_tables(row, threshold)
            for row, threshold in zip(tables, thresholds)
        ]
        q_tables = np.stack([
            q.quantize_table(row) for q, row in zip(quantizers, tables)
        ])
        # Candidate selection: the sample threshold prunes rows provably
        # worse than the temporary NN set; the topk-th smallest bound
        # additionally caps the rerank at the rows that could still
        # matter. This second cut is where Quick ADC is approximate: ties
        # in quantized space are resolved by the bound, not the exact
        # distance.
        sample_cuts = np.array([
            q.quantize_threshold(threshold, components=m)
            for q, threshold in zip(quantizers, thresholds)
        ])
        fresh = np.ones(n, dtype=np.bool_)
        fresh[sample_rows] = False

        results = []
        per_run = max(1, _BOUND_RUN_CELLS // n)
        for start in range(0, len(tables), per_run):
            stop = start + per_run
            bounds = layout.lower_bounds(q_tables[start:stop])
            if sanitize:
                for i, row_bounds in enumerate(bounds, start):
                    check_saturation_invariant(q_tables[i], context=context)
                    check_lower_bound_invariant(
                        row_bounds, adc_distances(tables[i], codes), quantizers[i], m,
                        context=context,
                    )
            saturated = np.count_nonzero(bounds >= SATURATION, axis=1)
            if dead is not None:
                # Above every live bound, so out of the kth_bound cut
                # and above every cut: never a candidate.
                bounds[:, dead] = SATURATION + 1
            kth_bounds = np.partition(bounds, topk - 1, axis=1)[:, topk - 1]
            cuts = np.minimum(sample_cuts[start:stop], kth_bounds)
            kept = (bounds <= cuts[:, None]) & fresh
            for i, row_kept, n_saturated in zip(
                range(start, stop), kept, saturated
            ):
                # Exact rerank of candidates only (the sample is already in).
                candidates = np.flatnonzero(row_kept)
                top_ids, top_dists = sample_ids[i], sample_dists[i]
                if len(candidates):
                    top_ids, top_dists = select_topk(
                        np.concatenate(
                            (top_dists, adc_distances(tables[i], codes[candidates]))
                        ),
                        np.concatenate((top_ids, ids[candidates])),
                        topk,
                    )
                results.append(QuickADCResult(
                    ids=top_ids,
                    distances=top_dists,
                    n_scanned=n,
                    n_pruned=n_live - n_sample - len(candidates),
                    n_sample=n_sample,
                    n_candidates=len(candidates),
                    n_saturated=int(n_saturated),
                    qmin=quantizers[i].qmin,
                    qmax=quantizers[i].qmax,
                ))
        return results
