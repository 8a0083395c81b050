"""PQ Fast Scan: the paper's core contribution (Section 4).

The scan of one partition (Figure 6) proceeds per database vector:

1. compute an 8-bit *lower bound* on its ADC distance from small,
   register-sized tables (no cache access on real hardware);
2. if the lower bound exceeds the (quantized) distance to the current
   topk-th nearest neighbor, discard the vector — over 95% of vectors
   are pruned this way;
3. otherwise compute the exact pqdistance from the full distance tables
   and update the nearest-neighbor set.

Because lower bounds are conservative (floor-quantized under-estimates
compared against a ceil-quantized threshold), PQ Fast Scan returns
*exactly* the same neighbors as PQ Scan — the library asserts this in
tests and benchmarks.

Query pipeline implemented by :class:`PQFastScanner`:

* **keep phase** — the first ``keep`` fraction of the partition is
  scanned with plain PQ Scan; the resulting temporary topk-th distance
  becomes the quantization bound ``qmax`` (Section 4.4).
* **small-table build** — quantized minimum tables for the non-grouped
  components, quantized full tables (all 16 portions) for the grouped.
* **lower bounds** — the whole partition in one ``take`` per
  sub-quantizer over the lookup rows the grouped layout prepared
  (:meth:`SmallTables.partition_lower_bounds`).
* **survivor pass** — :func:`best_first_pass`: the rows whose bound
  passes the keep-phase threshold, visited in increasing bound order in
  a handful of epochs; each epoch is one exact ADC, one top-k merge and
  one cut of the remaining candidates at the tightened threshold.

Every bound is in hand before any row is visited, so the visiting order
is free, and smallest bound first is the order under which the threshold
tightens fastest. Groups shape the prepared layout and never appear in
the query path; the paper's streaming schedule (threshold re-read every
16 vectors, in storage order) is :func:`repro.simd.fastscan_kernel`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ..dtypes import Float64Array, Int8Array, Int64Array
from ..exceptions import ConfigurationError, NotFittedError
from ..ivf.partition import Partition
from ..pq.adc import adc_distances
from ..pq.product_quantizer import ProductQuantizer
from ..scan.base import PartitionScanner, ScanResult
from ..scan.prepared import PreparedCache
from ..scan.topk import select_topk
from .grouping import GroupedPartition, suggested_components
from .minimum_tables import CentroidAssignment, optimized_assignment
from .quantization import DistanceQuantizer
from .sanitize import check_lower_bound_invariant, sanitizer_enabled
from .small_tables import SmallTables

__all__ = ["PQFastScanner", "FastScanResult", "best_first_pass"]


@dataclass(frozen=True)
class FastScanResult(ScanResult):
    """ScanResult enriched with PQ Fast Scan statistics.

    Attributes (in addition to :class:`ScanResult`):
        n_keep: vectors scanned with plain PQ Scan in the keep phase.
        n_exact: vectors whose exact distance was computed in the
            survivor pass (:func:`best_first_pass`): rows whose bound
            was still at or under the threshold when their epoch began.
        qmin: lower quantization bound used for this query.
        qmax: upper quantization bound (temporary-NN distance).
    """

    n_keep: int = 0
    n_exact: int = 0
    qmin: float = 0.0
    qmax: float = 0.0


def best_first_pass(
    bounds: Int8Array,
    keep_rows: Int64Array,
    quantizer: DistanceQuantizer,
    top: tuple[Int64Array, Float64Array],
    ids: Int64Array,
    exact: Callable[[Int64Array], Float64Array],
    *,
    components: int,
) -> tuple[Int64Array, Float64Array, int]:
    """Score the rows the bounds cannot discard, smallest bound first.

    Args:
        bounds: saturated lower bound of every row of the partition.
        keep_rows: rows the keep phase already scored (never revisited).
        quantizer: the query's quantizer, which made ``bounds``.
        top: the running ``(ids, distances)`` top-k, full (``k`` rows).
        ids: database id of every row.
        exact: exact ADC distances of the given rows.
        components: entries summed into one bound (threshold offset).

    Returns ``(ids, distances, n_exact)``: the final top-k and how many
    rows ``exact`` was asked for. A row is discarded only once its bound
    exceeds the ceil-quantized k-th distance, whatever the visiting
    order, so the result is PQ Scan's; the order decides how soon.
    """
    top_ids, top_dists = top
    k = len(top_ids)
    threshold_q = quantizer.quantize_threshold(top_dists[-1], components=components)
    live = bounds <= threshold_q
    live[keep_rows] = False
    cand = np.flatnonzero(live)
    # int8 keys: numpy's stable sort is a radix sort.
    cand = cand[np.argsort(bounds[cand], kind="stable")]
    cand_bounds = bounds[cand]
    # Epoch sizes are measured constants: docs/execution.md, "Epoch
    # constants" (a start of k alone is slower, a larger start or x4
    # growth prunes less).
    done, size, end = 0, max(2 * k, 256), len(cand)
    while done < end:
        rows = cand[done : min(done + size, end)]
        done += len(rows)
        size *= 2
        dists = exact(rows)
        close = dists <= top_dists[-1]  # ties included: ids break them
        if close.any():
            top_ids, top_dists = select_topk(
                np.concatenate((top_dists, dists[close])),
                np.concatenate((top_ids, ids[rows[close]])),
                k,
            )
            threshold_q = quantizer.quantize_threshold(
                top_dists[-1], components=components
            )
            end = int(np.searchsorted(cand_bounds[:end], threshold_q, side="right"))
    return top_ids, top_dists, done


class PQFastScanner(PreparedCache[GroupedPartition], PartitionScanner):
    """Scanner implementing PQ Fast Scan over PQ 8×8 codes.

    Args:
        pq: the fitted product quantizer of the database (must be m×8:
            byte codes; the paper targets PQ 8×8).
        keep: fraction of the partition scanned with plain PQ Scan to
            bound ``qmax`` (paper: 0.1%-1%, default 0.5%).
        group_components: how many leading components to group on.
            ``None`` (default) picks the largest c whose average group
            still holds >= 50 vectors — the paper's ``nmin(c) = 50*16^c``
            rule (4 above 3.2M vectors, 3 above 200K — Section 4.2/5.6).
        assignment: ``"optimized"`` (same-size k-means reassignment of
            centroid indexes, Section 4.3) or ``"arbitrary"`` (keep the
            training assignment; ablation baseline).
        qmax_bound: ``"keep"`` (the paper's choice: distance to the
            temporary nearest neighbor from the keep phase) or
            ``"naive"`` (the rejected alternative: sum of per-table
            maxima — much coarser quantization bins, Figure 12;
            ablation baseline).
        seed: RNG seed of the assignment clustering.
        prepared_cache_size: maximum grouped layouts held by the
            :meth:`prepared` cache (LRU eviction beyond that;
            ``None`` = unbounded).
    """

    name = "fastpq"

    def __init__(
        self,
        pq: ProductQuantizer,
        /,
        *,
        keep: float = 0.005,
        group_components: int | None = None,
        assignment: str = "optimized",
        qmax_bound: str = "keep",
        seed: int = 0,
        prepared_cache_size: int | None = 256,
    ) -> None:
        if not pq.is_fitted:
            raise NotFittedError("PQFastScanner requires a fitted ProductQuantizer")
        if pq.bits != 8:
            raise ConfigurationError(
                "PQ Fast Scan requires 8-bit sub-quantizers (byte codes)"
            )
        if not 0.0 <= keep <= 1.0:
            raise ConfigurationError(f"keep must be in [0, 1], got {keep}")
        if assignment not in ("optimized", "arbitrary"):
            raise ConfigurationError(f"unknown assignment mode {assignment!r}")
        if qmax_bound not in ("keep", "naive"):
            raise ConfigurationError(f"unknown qmax bound {qmax_bound!r}")
        PreparedCache.__init__(self, prepared_cache_size)
        self.pq = pq
        self.keep = keep
        self.group_components = group_components
        self.assignment_mode = assignment
        self.qmax_bound = qmax_bound
        self.seed = seed
        # Learned lazily, first writer wins under ``_cache_lock``.
        self._assignment: CentroidAssignment | None = None

    # -- database-side preparation ---------------------------------------------

    @property
    def assignment(self) -> CentroidAssignment:
        """The centroid-index assignment (learned lazily).

        With an explicit ``group_components`` only the non-grouped
        sub-quantizers are reassigned (grouped components never use
        minimum tables, so their assignment is irrelevant for
        tightness). In auto mode the chosen ``c`` varies per partition,
        so every component that *could* feed a minimum table — all of
        them — gets the optimized assignment.
        """
        if self._assignment is None:
            if self.assignment_mode == "optimized":
                if self.group_components is None:
                    components = list(range(self.pq.m))
                else:
                    c = self._components_for(None)
                    components = list(range(c, self.pq.m))
                learned = optimized_assignment(
                    self.pq, components, seed=self.seed
                )
            else:
                learned = CentroidAssignment.identity(self.pq.m)
            # The assignment is deterministic, so concurrent learners
            # compute identical results; first writer wins.
            with self._cache_lock:
                if self._assignment is None:
                    self._assignment = learned
        return self._assignment

    def prepare(self, partition: Partition, c: int | None = None) -> GroupedPartition:
        """Remap codes to the optimized assignment and group the partition.

        This is the build-time step of PQ Fast Scan; its output (compact
        layout, lookup rows, id order) serves every query of the partition.
        """
        c = self._components_for(len(partition)) if c is None else c
        remapped = Partition(
            self.assignment.remap_codes(partition.codes),
            partition.ids,
            partition.partition_id,
        )
        return GroupedPartition(remapped, c=c)

    def warm(self, partitions: Iterable[Partition]) -> int:
        """Pre-build the grouped layouts (and the lazy assignment).

        The batch executor calls this from the coordinating thread
        before fanning partition jobs across workers, so the
        :meth:`prepared` cache and :attr:`assignment` are only *read*
        concurrently. Returns the number of layouts newly built.
        """
        _ = self.assignment
        return super().warm(partitions)

    def _components_for(self, partition_size: int | None) -> int:
        if self.group_components is not None:
            return min(self.group_components, self.pq.m)
        if partition_size is None:
            return min(4, self.pq.m)
        return suggested_components(partition_size, maximum=min(4, self.pq.m))

    # -- scanning ---------------------------------------------------------------

    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> FastScanResult:
        """Full PQ Fast Scan of ``partition`` for one query."""
        return self.scan_grouped(tables, self.prepared(partition), topk)

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> list[FastScanResult]:
        """Scan one partition for a whole ``(b, m, 256)`` table stack.

        The prepared layout is fetched once and the stack remapped in
        one :meth:`CentroidAssignment.remap_tables` call; result ``i``
        is byte-identical to ``scan(tables[i], ...)``.
        """
        grouped = self.prepared(partition)
        tables_r = self.assignment.remap_tables(tables)
        return [self.scan_prepared(row, grouped, topk) for row in tables_r]

    def scan_grouped(
        self, tables: np.ndarray, grouped: GroupedPartition, topk: int = 1
    ) -> FastScanResult:
        """Scan an already-prepared partition."""
        tables_r = self.assignment.remap_tables(np.asarray(tables, dtype=np.float64))
        return self.scan_prepared(tables_r, grouped, topk)

    def scan_prepared(
        self, tables_r: np.ndarray, grouped: GroupedPartition, topk: int = 1
    ) -> FastScanResult:
        """Scan with *already remapped* tables: the one query path, which
        :meth:`scan`, :meth:`scan_batch` and :meth:`scan_grouped` end in."""
        n = len(grouped)

        # Keep phase (Section 4.4): plain PQ Scan over the first keep%
        # of the *database* (smallest ids), needs at least topk vectors
        # to bound qmax. Database order is uncorrelated with grouping, so
        # the temporary nearest neighbor is drawn from a representative
        # sample — a grouped-order prefix would be a single coherent
        # cluster and can yield an arbitrarily loose qmax.
        n_keep = min(n, max(int(np.ceil(self.keep * n)), topk))
        keep_rows = grouped.id_order[:n_keep]
        top_ids, top_dists = select_topk(
            adc_distances(tables_r, grouped.codes[keep_rows]),
            grouped.ids[keep_rows],
            topk,
        )
        if n_keep == n:
            # The keep phase was the whole partition (always so below
            # topk rows, where no finite qmax exists): already exact.
            return FastScanResult(
                ids=top_ids, distances=top_dists, n_scanned=n, n_keep=n
            )

        m = grouped.m
        qmax = float(top_dists[-1])
        if self.qmax_bound == "naive":
            qmax = float(tables_r.max(axis=1).sum())
        quantizer = DistanceQuantizer.from_tables(tables_r, qmax)
        small = SmallTables(tables_r, grouped.c, quantizer)
        bounds = small.partition_lower_bounds(grouped)
        if sanitizer_enabled():
            check_lower_bound_invariant(
                bounds,
                adc_distances(tables_r, grouped.codes),
                quantizer,
                m,
                context=f"fastpq partition {grouped.partition_id}",
            )
        top_ids, top_dists, n_exact = best_first_pass(
            bounds,
            keep_rows,
            quantizer,
            (top_ids, top_dists),
            grouped.ids,
            lambda rows: adc_distances(tables_r, grouped.codes[rows]),
            components=m,
        )

        n_pruned = n - n_keep - n_exact
        return FastScanResult(
            ids=top_ids,
            distances=top_dists,
            n_scanned=n,
            n_pruned=n_pruned,
            n_keep=n_keep,
            n_exact=n_exact,
            qmin=quantizer.qmin,
            qmax=quantizer.qmax,
        )
