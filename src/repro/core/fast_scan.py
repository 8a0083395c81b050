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

Query pipeline, :func:`pruned_scan_batch` (which
:class:`PQFastScanner` and the quantization-only variant of Figure 17
both end in; they differ only in how they bound a row):

* **keep phase** — the first ``keep`` fraction of the partition's live
  rows is scanned with plain PQ Scan, for the whole table stack at once; the
  resulting temporary topk-th distance becomes the quantization bound
  ``qmax`` (Section 4.4).
* **small-table build** (per query) — quantized minimum tables for the
  non-grouped components, quantized full tables (all 16 portions) for
  the grouped.
* **lower bounds** (per query) — the whole partition in one ``take`` per
  sub-quantizer over the lookup rows the grouped layout prepared
  (:meth:`SmallTables.partition_lower_bounds`).
* **survivor pass** (per query) — :func:`best_first_pass`: the rows
  whose bound passes the keep-phase threshold, visited in increasing
  bound order in a handful of epochs; each epoch is one exact ADC, one
  top-k merge and one cut of the remaining candidates at the tightened
  threshold.

A row a job's tombstones name is one more row the pass never scores: it
is neither sampled nor visited, so a deleted row costs its bound and
nothing else.

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

from ..dtypes import Float64Array, Int8Array, Int64Array, UInt8Array
from ..exceptions import ConfigurationError, NotFittedError
from ..ivf.partition import Partition
from ..pq.adc import adc_distances, adc_distances_batch
from ..pq.product_quantizer import ProductQuantizer
from ..scan.base import NO_IDS, PartitionScanner, ScanResult, table_stack
from ..scan.prepared import PreparedCache
from ..scan.topk import dead_rows, live_sample, select_topk, select_topk_rows
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
    skip_rows: Int64Array,
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
        skip_rows: rows never visited: the keep phase's (already
            scored) and the tombstoned ones.
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
    live[skip_rows] = False
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


def pruned_scan_batch(
    tables: Float64Array,
    codes: UInt8Array,
    ids: Int64Array,
    sample_order: Int64Array,
    *,
    keep: float,
    topk: int,
    bounds: Callable[[Float64Array, float], tuple[DistanceQuantizer, Int8Array]],
    context: str,
    tombstones: Int64Array = NO_IDS,
) -> list[FastScanResult]:
    """The query path of the 8-bit pruning scanners, for a table stack.

    ``tables`` is ``(b, m, 256)``, in the code space of the partition's
    ``codes`` and ``ids``. The keep phase scores the first live rows of
    ``sample_order`` (:func:`~repro.scan.topk.live_sample`) with one
    exact gather and one row-wise top-k selection for the whole stack.
    Then, per query, ``bounds(tables[i], topk-th keep distance)`` gives
    its quantizer and the int8 lower bound of every row, the sanitizer
    (``REPRO_SANITIZE=1``; ``context`` names the partition) checks them
    against the exact distances of every row, tombstoned ones too, and
    :func:`best_first_pass` scores the survivors. The rows
    ``tombstones`` name are skipped: never sampled, never visited.
    """
    n = len(ids)
    dead = dead_rows(ids, tombstones)
    keep_rows, n_live = live_sample(sample_order, keep, topk, dead)
    n_keep = len(keep_rows)
    keep_ids, keep_dists = select_topk_rows(
        adc_distances_batch(tables, codes[keep_rows]), ids[keep_rows], topk
    )
    if n_keep == n_live:
        # The keep phase was every live row (always so below topk live
        # rows, where no finite qmax exists): already exact.
        return [
            FastScanResult(ids=top_ids, distances=top_dists, n_scanned=n, n_keep=n_keep)
            for top_ids, top_dists in zip(keep_ids, keep_dists)
        ]
    skip_rows = keep_rows
    if dead is not None:
        skip_rows = np.concatenate((keep_rows, np.flatnonzero(dead)))
    m = tables.shape[1]
    sanitize = sanitizer_enabled()
    results = []
    for row, top_ids, top_dists in zip(tables, keep_ids, keep_dists):
        quantizer, row_bounds = bounds(row, float(top_dists[-1]))
        if sanitize:
            check_lower_bound_invariant(
                row_bounds, adc_distances(row, codes), quantizer, m, context=context
            )
        top_ids, top_dists, n_exact = best_first_pass(
            row_bounds, skip_rows, quantizer, (top_ids, top_dists), ids,
            lambda rows, row=row: adc_distances(row, codes[rows]), components=m,
        )
        results.append(FastScanResult(
            ids=top_ids,
            distances=top_dists,
            n_scanned=n,
            n_pruned=n_live - n_keep - n_exact,
            n_keep=n_keep,
            n_exact=n_exact,
            qmin=quantizer.qmin,
            qmax=quantizer.qmax,
        ))
    return results


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
        PreparedCache.__init__(self)
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

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1,
        tombstones: np.ndarray = NO_IDS,
    ) -> list[FastScanResult]:
        """Full PQ Fast Scan of ``partition`` for a ``(b, m, 256)`` table
        stack: the stack remapped to the optimized assignment in one
        call, then :func:`pruned_scan_batch` over the prepared layout,
        with the small tables' lower bounds, skipping the rows
        ``tombstones`` name."""
        tables = table_stack(tables, (self.pq.m, 256))
        grouped = self.prepared(partition)
        tables_r = self.assignment.remap_tables(tables)

        def bounds(
            row: Float64Array, threshold: float
        ) -> tuple[DistanceQuantizer, Int8Array]:
            qmax = threshold
            if self.qmax_bound == "naive":
                qmax = float(row.max(axis=1).sum())
            quantizer = DistanceQuantizer.from_tables(row, qmax)
            small = SmallTables(row, grouped.c, quantizer)
            return quantizer, small.partition_lower_bounds(grouped)

        # Keep phase (Section 4.4) over the first keep% of the *database*
        # (smallest ids). Database order is uncorrelated with grouping, so
        # the temporary nearest neighbor is drawn from a representative
        # sample — a grouped-order prefix would be a single coherent
        # cluster and can yield an arbitrarily loose qmax.
        return pruned_scan_batch(
            tables_r, grouped.codes, grouped.ids, grouped.id_order,
            keep=self.keep, topk=topk, bounds=bounds,
            context=f"fastpq partition {grouped.partition_id}", tombstones=tombstones,
        )
