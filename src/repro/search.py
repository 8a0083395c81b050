"""High-level ANN search API: route, scan, merge.

The paper evaluates single-partition scans (its Step 3); a deployed
system wraps the full Algorithm 1 loop and usually probes several
coarse cells (``nprobe``) to trade response time for recall. This module
provides that wrapper so downstream users get a one-call search:

    searcher = ANNSearcher(index, scanner=PQFastScanner(pq))
    ids, distances = searcher.search(query, topk=100, nprobe=4)

Results from multiple partitions are merged with the same
(distance, id) ordering used everywhere else, so the merged output is
exactly what a single scan over the union of the probed partitions
would return.

Multi-query batches run through a **partition-major execution engine**
(:class:`BatchPlanner` / :class:`BatchExecutor`): the whole batch is
routed up front, the per-query plan is inverted so that all queries
probing a partition scan it together (per-partition state — grouped
layouts, remapped tables, gathered codes — is touched once per batch
instead of once per query), and partition-scan jobs fan out across a
thread pool. Section 5.8 of the paper shows concurrent PQ Fast Scan
queries become memory-bandwidth-bound around 8 cores; this engine is
the layer that actually produces that concurrent-query traffic.

How a plan becomes results is written once, in :class:`PlanPipeline`
(route, hand each job its partition's tombstones, scan, fold the delta
segments and each landed :class:`ScanPart` into a
:class:`StreamingMerger`, ``results()``); an executor defines only how
a plan's scan lands in parts. The thread and process executors
(:class:`PlanExecutor`) land one, their ``scan_plan``;
:class:`~repro.shard.ScatterGatherExecutor` lands one per shard, in
completion order, under its deadline / retry / partial policy. The
merger's (distance, id) order is total, so batched
results are byte-identical to the sequential per-query loop (kept as
``executor="sequential"`` on :meth:`ANNSearcher.search` for baselines
and tests) whatever the executor, worker count or fold order.
:func:`merge_partials` is the barrier form of the same merge, kept as
the reference the merger is tested against.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .exceptions import ConfigurationError, SimulationError
from .ivf.inverted_index import IVFADCIndex
from .obs import Observability, get_observability
from .scan.base import PAD_DISTANCE, PAD_ID, PartitionScanner, ScanBlock, ScanResult
from .scan.naive import NaiveScanner
from .scan.topk import select_topk, select_topk_rows
from .simd.counters import (
    WorkerStats,
    aggregate_worker_stats,
    combine_worker_stats,
)

if TYPE_CHECKING:  # import cycle: repro.delta imports repro.search
    from .delta.store import DeltaView

__all__ = [
    "ANNSearcher",
    "BatchExecutor",
    "BatchPlan",
    "BatchPlanner",
    "BatchReport",
    "GATHER_TIMEOUT_S",
    "PackedPartials",
    "PartitionJob",
    "SearchResult",
    "StreamingMerger",
    "merge_partials",
    "scan_partition_batch",
]

#: Deadline for gathering one worker future. Scans are CPU-bound and
#: finish in milliseconds; this bound exists so a wedged worker turns
#: into a loud TimeoutError instead of a silent hang (lint rule R9).
GATHER_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class SearchResult:
    """Merged multi-partition search outcome.

    Attributes:
        ids: topk database ids sorted by (distance, id).
        distances: matching ADC distances.
        n_scanned: vectors considered across all probed partitions.
        n_pruned: vectors pruned by lower bounds (fast scanners only).
        probed: ids of the partitions scanned.
    """

    ids: np.ndarray
    distances: np.ndarray
    n_scanned: int
    n_pruned: int
    probed: tuple[int, ...]

    @property
    def pruned_fraction(self) -> float:
        if self.n_scanned == 0:
            return 0.0
        return self.n_pruned / self.n_scanned


# -- batch planning ------------------------------------------------------------

#: A clean job's tombstones.
_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class PartitionJob:
    """All scans of one partition for one query batch.

    The unit of partition-major scheduling: every query of the batch
    that probes ``partition_id`` is handled by this single job, so the
    partition's codes (and, for fast scanners, its grouped layout) are
    loaded once per batch.

    Attributes:
        partition_id: the partition this job scans.
        query_rows: batch row index of each participating query.
        probe_positions: position of ``partition_id`` within each
            query's probe list (preserves the sequential merge order).
        cost: scan-work estimate (queries x partition size) used to
            schedule large jobs first.
        tombstones: sorted ids of the partition's base rows a tombstone
            hits, one per row (:attr:`~repro.delta.DeltaView.hits`): the
            scan runs that many rows wider and drops them (:func:`_scan_block`).
    """

    partition_id: int
    query_rows: np.ndarray
    probe_positions: np.ndarray
    cost: int
    tombstones: np.ndarray


class _QueryHalfOnce:
    """A batch's query half, built by the first of the executor's scan,
    the thread shards' scans and the overlay fold to need it; the
    others wait for that one instead of building their own."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: np.ndarray | None = None

    def of(self, index: IVFADCIndex, queries: np.ndarray) -> np.ndarray:
        with self._lock:
            if self._tables is None:
                self._tables = index.query_half(queries)
            return self._tables


@dataclass(frozen=True)
class BatchPlan:
    """Routing decisions for one query batch, inverted partition-major.

    Attributes:
        queries: the ``(b, d)`` query block.
        topk: neighbors requested per query.
        nprobe: partitions probed per query.
        probed: ``(b, nprobe)`` routed partition ids (Step 1 output).
        jobs: partition-major jobs, largest first.
    """

    queries: np.ndarray
    topk: int
    nprobe: int
    probed: np.ndarray
    jobs: tuple[PartitionJob, ...]
    # One slot, shared by every plan ``replace`` derives (a shard's
    # jobs, the plan with its tombstones): a batch pays Step 2's query
    # half once in this process, whoever asks first.
    _query_half: _QueryHalfOnce = field(
        default_factory=_QueryHalfOnce, repr=False, compare=False
    )

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def query_half(self, index: IVFADCIndex) -> np.ndarray:
        """:meth:`IVFADCIndex.query_half` of :attr:`queries`; read-only."""
        return self._query_half.of(index, self.queries)


class BatchPlanner:
    """Routes a whole batch and inverts the plan to partition-major order.

    Step 1 of Algorithm 1 runs once for the entire batch
    (:meth:`IVFADCIndex.route_batch` is a single vectorized
    centroid-distance computation), then the per-query probe lists are
    transposed into one :class:`PartitionJob` per distinct partition.
    """

    def __init__(self, index: IVFADCIndex):
        self.index = index

    def plan(
        self, queries: np.ndarray, topk: int = 10, nprobe: int = 1
    ) -> BatchPlan:
        """Build the partition-major plan for ``queries``."""
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ConfigurationError(
                f"queries must be 1-D or 2-D, got shape {queries.shape}"
            )
        if topk < 1:
            raise ConfigurationError("topk must be >= 1")
        probed = self.index.route_batch(queries, nprobe=nprobe)
        # One stable argsort inverts the plan: a partition's probes stay
        # in row-major order, so each job lists its queries ascending.
        flat = probed.ravel()
        order = np.argsort(flat, kind="stable")
        rows, positions = np.divmod(order, probed.shape[1])
        pids = flat[order]
        cuts = (np.flatnonzero(pids[1:] != pids[:-1]) + 1).tolist()
        jobs = []
        for start, stop in zip([0, *cuts], [*cuts, len(pids)]):
            if start == stop:  # an empty batch has no run at all
                break
            pid = int(pids[start])
            size = len(self.index.partitions[pid])
            jobs.append(
                PartitionJob(
                    partition_id=pid,
                    query_rows=rows[start:stop],
                    probe_positions=positions[start:stop],
                    cost=(stop - start) * max(size, 1),
                    tombstones=_NO_IDS,
                )
            )
        # Largest jobs first: with fewer jobs than workers towards the
        # end of the batch, the stragglers should be the cheap ones.
        jobs.sort(key=lambda job: (-job.cost, job.partition_id))
        return BatchPlan(
            queries=queries,
            topk=topk,
            nprobe=nprobe,
            probed=probed,
            jobs=tuple(jobs),
        )


# -- batch execution -----------------------------------------------------------


#: Candidates a widened scan holds at once: a job a tombstone hits scans
#: its queries in runs of at most this many over their width.
_WIDE_SCAN_CELLS = 1 << 20


def _scan_block(
    scanner: PartitionScanner,
    tables: np.ndarray,
    partition,
    topk: int,
    tombstones: np.ndarray = _NO_IDS,
) -> ScanBlock:
    """Scan one partition for a whole query batch, packed.

    The shared partition-scan kernel of every executor (thread-backed
    :class:`BatchExecutor`, the process workers of :mod:`repro.parallel`,
    the sharded scatter-gather path): the scanner's ``scan_batch``,
    which shares across the batch whatever the scanner can (plain PQ
    Scan: one batched ADC accumulation and one row-wise selection;
    :class:`~repro.core.PQFastScanner` / Quick ADC: one prepared-layout
    fetch, PQ Fast Scan also one table-stack remap) and is the per-query
    ``scan`` loop for a scanner that defines nothing else.

    ``tables`` is the ``(b, m, k*)`` stack for the batch's queries
    against this partition; the block has one cell per table row,
    byte-identical to the per-query sequential loop.

    ``tombstones`` (:attr:`PartitionJob.tombstones`, ``t_p`` ids) are a
    filter on that scan: it runs ``topk + t_p`` wide and every cell loses
    its tombstoned ids and is cut back to ``topk``. (distance, id) is a
    total order, so what is left is the top ``topk`` of the partition
    without those rows. A cell's ``n_scanned`` counts them too.
    """
    if not len(tombstones):
        return ScanBlock.pack(scanner.scan_batch(tables, partition, topk))
    width = topk + len(tombstones)
    run = max(1, _WIDE_SCAN_CELLS // width)
    return ScanBlock.concatenate([
        _without(
            ScanBlock.pack(scanner.scan_batch(tables[i : i + run], partition, width)),
            tombstones,
            topk,
        )
        for i in range(0, len(tables), run)
    ])


def _without(block: ScanBlock, tombstones: np.ndarray, topk: int) -> ScanBlock:
    """``block``'s cells minus ``tombstones``, re-selected to ``topk``:
    a dropped candidate becomes padding, which sorts last."""
    gone = np.isin(block.ids, tombstones)
    gone &= np.arange(block.ids.shape[1]) < block.lengths[:, None]  # not padding
    ids, distances = select_topk_rows(
        np.where(gone, PAD_DISTANCE, block.distances),
        np.where(gone, PAD_ID, block.ids),
        topk,
    )
    lengths = np.minimum(block.lengths - gone.sum(axis=1), topk)
    return ScanBlock(ids, distances, np.vstack([lengths, block.counts[1:]]))


def _record_scans(
    obs: Observability,
    scanner_name: str,
    stats: WorkerStats,
    cells: ScanBlock,
    busy_time_s: float,
    n_jobs: int = 1,
) -> None:
    """Account the scans of one job (or of a worker's ``n_jobs``).

    The one place scans are counted, in the process that owns ``obs``:
    every executor's :class:`ScanBlock` lands here, so the scan counters
    and the pruning-rate gauge do not depend on which process scanned
    or on which handle a scanner could see.
    """
    _, n_scanned, n_pruned = cells.counts.sum(axis=1).tolist()
    obs.record_scan(scanner_name, n_scanned=n_scanned, n_pruned=n_pruned)
    stats.record_job(
        n_jobs=n_jobs,
        n_scans=len(cells),
        n_vectors_scanned=n_scanned,
        n_vectors_pruned=n_pruned,
        busy_time_s=busy_time_s,
    )


def scan_partition_batch(
    scanner: PartitionScanner, tables: np.ndarray, partition, topk: int
) -> list[ScanResult]:
    """The executors' partition scan as one :class:`~repro.scan.ScanResult`
    per table row (the executors themselves keep it packed)."""
    return list(_scan_block(scanner, tables, partition, topk))


def merge_partials(
    plan: BatchPlan,
    partials: list[list[ScanResult | None]],
    *,
    require_complete: bool = True,
) -> list[SearchResult]:
    """Deterministic per-query merge of partition-scan partials.

    ``partials[row][position]`` holds the :class:`ScanResult` of query
    ``row`` against its ``position``-th probed partition (or ``None`` if
    that scan never ran). The merge concatenates the available scans in
    probe order and selects the topk with the global (distance, id)
    ordering — exactly what a single scan over the union of the probed
    partitions would return, and therefore byte-identical regardless of
    how the scans were scheduled (sequentially, across a worker pool, or
    across shards).

    With ``require_complete`` (the executor default) a missing scan is a
    scheduling bug and raises :class:`SimulationError`. The sharded
    scatter-gather path passes ``require_complete=False`` to degrade
    gracefully: a failed shard's scans are simply absent from the merge
    and the response is flagged partial instead.
    """
    out = []
    for row in range(plan.n_queries):
        scans = [scan for scan in partials[row] if scan is not None]
        if require_complete and len(scans) < len(partials[row]):
            raise SimulationError(
                f"batch plan left query {row} with unscanned probes"
            )
        if scans:
            ids = np.concatenate([scan.ids for scan in scans])
            dists = np.concatenate([scan.distances for scan in scans])
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        merged_ids, merged_dists = select_topk(dists, ids, plan.topk)
        out.append(
            SearchResult(
                ids=merged_ids,
                distances=merged_dists,
                n_scanned=sum(scan.n_scanned for scan in scans),
                n_pruned=sum(scan.n_pruned for scan in scans),
                probed=tuple(int(p) for p in plan.probed[row]),
            )
        )
    return out


@dataclass(frozen=True, eq=False)
class PackedPartials:
    """Scanned cells of a plan's ``(n_queries, nprobe)`` grid, packed.

    The one partial type: what every ``scan_plan`` and the overlay fold
    hand to :class:`StreamingMerger`, and what crosses the process
    boundary. Cell ``i`` of ``cells`` (a :class:`~repro.scan.ScanBlock`)
    is the scan of query ``rows[i]`` against its ``positions[i]``-th
    probed partition. Indexed like the list grid it replaces:
    ``partials[row][position]`` is that cell's
    :class:`~repro.scan.ScanResult`, ``None`` where nothing was scanned.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    positions: np.ndarray
    cells: ScanBlock

    @classmethod
    def of_jobs(
        cls, plan: BatchPlan, jobs: Sequence[PartitionJob], blocks: Sequence[ScanBlock]
    ) -> "PackedPartials":
        """``blocks`` hold the scans of ``jobs`` end to end, in job order
        (one block per job, or fewer, longer ones)."""
        none = [np.empty(0, dtype=np.intp)]
        return cls(
            (plan.n_queries, plan.nprobe),
            np.concatenate([job.query_rows for job in jobs] or none),
            np.concatenate([job.probe_positions for job in jobs] or none),
            ScanBlock.concatenate(blocks),
        )

    @classmethod
    def of_grid(
        cls, grid: "PackedPartials | Sequence[Sequence[ScanResult | None]]"
    ) -> "PackedPartials":
        """The one conversion from a list grid (packed ones pass through)."""
        if isinstance(grid, cls):
            return grid
        at = [
            (row, position)
            for row, scans in enumerate(grid)
            for position, scan in enumerate(scans)
            if scan is not None
        ]
        rows, positions = np.array(at, dtype=np.intp).reshape(len(at), 2).T
        return cls(
            (len(grid), len(grid[0]) if len(grid) else 0),
            rows,
            positions,
            ScanBlock.pack([grid[row][position] for row, position in at]),
        )

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, row: int) -> "list[ScanResult | None]":
        if not 0 <= row < len(self):
            raise IndexError(row)
        out: list[ScanResult | None] = [None] * self.shape[1]
        for cell in np.flatnonzero(self.rows == row).tolist():
            out[self.positions[cell]] = self.cells[cell]
        return out


class StreamingMerger:
    """Incremental counterpart of :func:`merge_partials`, on arrays.

    The barrier merge needs every partial grid before it can start; the
    executors instead fold each :class:`PackedPartials` into this merger
    *as it lands* (:meth:`fold`) — the one part of a thread or process
    batch, the overlay parts of a mutable engine, each shard's part
    while the other shards are still scanning. A fold is a scatter of
    the part's cells to their ``(row, position)`` place in
    ``(n_queries, nprobe, k)`` arrays, and :meth:`results` selects every
    query's top-k at once (:func:`~repro.scan.select_topk_rows`) from
    its row of them. The (distance, id) order is total — database ids
    are unique across partitions — so the ``topk`` smallest candidates
    are the same set whatever the fold order, and :meth:`results` is
    byte-identical to ``merge_partials`` over the same scans, including
    the dtypes of empty results and the error raised on incomplete
    coverage; distances pass through unrecomputed. How many candidates
    a query has comes from the cells' ``lengths``; the padding past
    them, like a position no cell landed on, only has to sort last.

    The merger also accounts its own work: :attr:`merge_time_s` is the
    total time spent folding and finalizing, which the gatherer compares
    against scatter wall time to report overlap savings.
    """

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        shape = (plan.n_queries, plan.nprobe)
        # Probe positions folded so far; disjoint shard parts each cover
        # their own cells exactly once.
        self._covered = np.zeros(shape, dtype=bool)
        # The scattered cells, laid out like a ScanBlock per query:
        # (n_queries, positions, width) candidates, as wide as the widest
        # cell so far, and (3, n_queries, positions) counts. The first
        # nprobe positions are the plan's, every covers=False fold
        # appends nprobe more.
        self._ids = np.empty((*shape, 0), dtype=np.int64)
        self._distances = np.empty((*shape, 0), dtype=np.float64)
        self._counts = np.zeros((3, *shape), dtype=np.int64)
        self.n_folds = 0
        self.merge_time_s = 0.0

    @property
    def complete(self) -> bool:
        """True once every (query, probe) cell of the plan was folded."""
        return bool(self._covered.all())

    def fold(
        self,
        partials: "PackedPartials | Sequence[Sequence[ScanResult | None]]",
        *,
        covers: bool = True,
    ) -> None:
        """Fold one part of the ``(n_queries, nprobe)`` grid into the merge.

        A hand-built list grid is packed first. Positions the part does
        not name and cells already folded by an earlier part are
        skipped, so folding the disjoint per-shard parts of one batch —
        in any completion order, some delivered twice — is equivalent
        to the single barrier merge over their union.

        ``covers=False`` folds *extra* candidates without claiming plan
        coverage: the delta-overlay path scans a partition's delta
        segment in addition to its base, whose scan owns the plan's
        (query, probe) cell. Every cell is folded, as further columns of
        its query's row, and its scanned/pruned counters accounted, but
        :attr:`complete` still reflects the base plan alone.
        """
        t0 = time.perf_counter()
        part = PackedPartials.of_grid(partials)
        rows, positions, cells = part.rows, part.positions, part.cells
        n_positions = self._ids.shape[1]
        if covers:
            fresh = ~self._covered[rows, positions]
            if not fresh.all():
                rows, positions, cells = rows[fresh], positions[fresh], cells.select(fresh)
            self._covered[rows, positions] = True
        else:
            positions = positions + n_positions
            n_positions += self.plan.nprobe
        width = cells.ids.shape[1]
        self._reserve(n_positions, max(width, self._ids.shape[2]))
        # The scatter: one fancy-index assignment per array.
        self._ids[rows, positions, :width] = cells.ids
        self._distances[rows, positions, :width] = cells.distances
        self._counts[:, rows, positions] = cells.counts
        self.n_folds += 1
        self.merge_time_s += time.perf_counter() - t0

    def _reserve(self, n_positions: int, width: int) -> None:
        """Room for ``n_positions`` cells of ``width`` per query."""
        n_queries, held_positions, held_width = self._ids.shape
        if (n_positions, width) == (held_positions, held_width):
            return
        ids = np.full((n_queries, n_positions, width), PAD_ID, dtype=np.int64)
        distances = np.full(ids.shape, PAD_DISTANCE, dtype=np.float64)
        counts = np.zeros((3, n_queries, n_positions), dtype=np.int64)
        ids[:, :held_positions, :held_width] = self._ids
        distances[:, :held_positions, :held_width] = self._distances
        counts[:, :, :held_positions] = self._counts
        self._ids, self._distances, self._counts = ids, distances, counts

    def results(self, *, require_complete: bool = True) -> list[SearchResult]:
        """Finalize the merge; same contract as :func:`merge_partials`.

        With ``require_complete`` a probe position no fold covered is a
        scheduling bug and raises :class:`SimulationError`; the sharded
        path passes ``require_complete=False`` when degraded shards left
        gaps, and the results cover every scan that did arrive.
        """
        t0 = time.perf_counter()
        if require_complete and not self.complete:
            row = int(np.flatnonzero(~self._covered.all(axis=1))[0])
            raise SimulationError(
                f"batch plan left query {row} with unscanned probes"
            )
        n_queries, n_positions, width = self._ids.shape
        flat = (n_queries, n_positions * width)
        ids, distances = select_topk_rows(
            self._distances.reshape(flat), self._ids.reshape(flat), self.plan.topk
        )
        totals = self._counts.sum(axis=2)
        np.minimum(totals[0], self.plan.topk, out=totals[0])
        out = [
            SearchResult(
                ids=ids[row, :kept],
                distances=distances[row, :kept],
                n_scanned=n_scanned,
                n_pruned=n_pruned,
                probed=tuple(probed),
            )
            for row, ((kept, n_scanned, n_pruned), probed) in enumerate(
                zip(totals.T.tolist(), self.plan.probed.tolist())
            )
        ]
        self.merge_time_s += time.perf_counter() - t0
        return out


# -- delta overlay (mutable engines) -------------------------------------------


def _with_tombstones(plan: BatchPlan, hits: "Mapping[int, np.ndarray]") -> BatchPlan:
    """The plan with each job of a partition in ``hits`` carrying its
    tombstoned ids (:attr:`PartitionJob.tombstones`); other jobs pass
    through as is."""
    if not hits:
        return plan
    return replace(
        plan,
        jobs=tuple(
            replace(job, tombstones=hits[job.partition_id])
            if job.partition_id in hits
            else job
            for job in plan.jobs
        ),
    )


#: Delta segments are small (``m + 16`` bytes a row) and change on every
#: write, so every path scans them (and never a base partition) with the
#: exact naive scanner: grouped layouts and min-tables would be rebuilt
#: on every mutation for no gain. Stateless, so one serves all callers.
_SEGMENT_SCANNER = NaiveScanner()


def _fold_overlay(
    merger: StreamingMerger, index, view: "DeltaView", obs: Observability
) -> None:
    """Scan the delta segments ``merger.plan`` probes and fold them in.

    The overlay half of the plan-to-results pipeline, run in the calling
    process by every executor (workers only ever see the immutable base
    artifact). The segments' scans fold with ``covers=False``: they add
    candidates without claiming coverage (the base scan, on whichever
    executor, owns the plan's cell).
    """
    plan = merger.plan
    jobs: list[PartitionJob] = []
    blocks: list[ScanBlock] = []
    for job in plan.jobs:
        segment = view.segments.get(job.partition_id)
        if segment is None:
            continue
        with obs.span("tables"):
            tables = index.tables_from_halves(
                plan.queries,
                plan.query_half(index),
                job.query_rows,
                job.partition_id,
            )
        with obs.span("scan"):
            block = _SEGMENT_SCANNER.scan_batch(tables, segment, plan.topk)
        obs.record_scan(
            _SEGMENT_SCANNER.name, int(block.n_scanned.sum()), int(block.n_pruned.sum())
        )
        jobs.append(job)
        blocks.append(block)
    if jobs:
        with obs.span("merge"):
            merger.fold(PackedPartials.of_jobs(plan, jobs, blocks), covers=False)


@dataclass
class BatchReport:
    """Execution statistics of one batched run.

    Attributes:
        n_queries: queries in the batch.
        nprobe: partitions probed per query.
        topk: neighbors requested per query.
        n_workers: worker threads used.
        n_jobs: partition jobs executed.
        wall_time_s: end-to-end engine time (plan + scan + merge).
        worker_stats: per-worker work accounting.
    """

    n_queries: int
    nprobe: int
    topk: int
    n_workers: int
    n_jobs: int
    wall_time_s: float
    worker_stats: list[WorkerStats] = field(default_factory=list)

    @property
    def totals(self) -> WorkerStats:
        """Aggregate of all workers' stats."""
        return aggregate_worker_stats(self.worker_stats)

    @property
    def queries_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_queries / self.wall_time_s

    def as_dict(self) -> dict:
        """JSON-safe dump (benchmark reports, observability exports)."""
        return {
            "n_queries": self.n_queries,
            "nprobe": self.nprobe,
            "topk": self.topk,
            "n_workers": self.n_workers,
            "n_jobs": self.n_jobs,
            "wall_time_s": self.wall_time_s,
            "queries_per_second": self.queries_per_second,
            "totals": self.totals.as_dict(),
            "worker_stats": [stats.as_dict() for stats in self.worker_stats],
        }


#: Shard completed all its jobs (also used for shards with no jobs).
STATE_OK = "ok"
#: Shard exceeded the gather deadline and was abandoned.
STATE_TIMEOUT = "timeout"
#: Shard kept raising after exhausting its retry budget.
STATE_FAILED = "failed"


@dataclass(frozen=True)
class ShardStatus:
    """Outcome of one shard's participation in one scatter-gather run.

    Attributes:
        shard_id: the shard this status describes.
        state: :data:`STATE_OK`, :data:`STATE_TIMEOUT` or
            :data:`STATE_FAILED`.
        attempts: scan attempts made (0 when the shard had no jobs;
            > 1 means transient failures were retried).
        latency_s: wall time from scatter start until the shard finished
            or was given up on.
        n_jobs: partition jobs assigned to the shard for this batch.
        error: message of the last exception for failed shards.
    """

    shard_id: int
    state: str
    attempts: int
    latency_s: float
    n_jobs: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.state == STATE_OK

    def as_dict(self) -> dict[str, object]:
        """JSON-safe dump (benchmark reports, observability exports)."""
        return asdict(self)


@dataclass
class ShardedResponse:
    """Gathered outcome of one query batch, what the pipeline returns.

    Attributes:
        results: one merged :class:`SearchResult` per query. With
            ``partial=True`` the results only cover scans from healthy
            shards (the ``probed`` tuple still lists every *intended*
            partition).
        partial: True when at least one shard timed out or failed.
        shard_statuses: per-shard outcome, indexed by shard id.
        wall_time_s: end-to-end time (plan to merge).
        worker_stats: per-worker-slot totals combined across shards.
        gather_overlap_s: merge time the streaming gather hid behind
            shards that were still in flight (work the barrier merge
            would have serialized after the slowest shard).
    """

    results: list[SearchResult]
    partial: bool
    shard_statuses: tuple[ShardStatus, ...]
    wall_time_s: float
    worker_stats: list[WorkerStats] = field(default_factory=list)
    gather_overlap_s: float = 0.0

    def status_for(self, shard_id: int) -> ShardStatus:
        """The :class:`ShardStatus` of ``shard_id``."""
        return self.shard_statuses[shard_id]

    @property
    def n_queries(self) -> int:
        return len(self.results)

    @property
    def queries_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_queries / self.wall_time_s

    def as_dict(self) -> dict[str, object]:
        """JSON-safe summary (without the per-query result arrays)."""
        return {
            "n_queries": self.n_queries,
            "partial": self.partial,
            "wall_time_s": self.wall_time_s,
            "queries_per_second": self.queries_per_second,
            "gather_overlap_s": self.gather_overlap_s,
            "shards": [status.as_dict() for status in self.shard_statuses],
            "worker_stats": [stats.as_dict() for stats in self.worker_stats],
        }


@dataclass(frozen=True)
class ScanPart:
    """One landed part of a plan's scan, as an executor hands it over.

    Attributes:
        status: which shard scanned the part and how that went.
        partials: the part's scanned cells of the ``(n_queries, nprobe)``
            grid; none at all when the part had no jobs, failed or
            timed out.
        worker_stats: per-worker work accounting of the part.
    """

    status: ShardStatus
    partials: PackedPartials | None = None
    worker_stats: list[WorkerStats] = field(default_factory=list)


_PipelineT = TypeVar("_PipelineT", bound="PlanPipeline")


class PlanPipeline:
    """The one pipeline from a query batch to its merged results.

    Route and plan, hand the jobs a tombstone hits their tombstones,
    start the scan (:meth:`_scan_parts`), fold the delta segments, fold
    each :class:`ScanPart` into a :class:`StreamingMerger` as it lands,
    ``results()``, report. Subclasses supply :meth:`_scan_parts` and
    :meth:`close`; they set ``index`` (the one real :class:`IVFADCIndex`
    the batch is planned and the overlay's tables are built against),
    ``planner`` and ``observability`` in their constructor.

    Every run is traced through :mod:`repro.obs`: the route, warm,
    table-build (the batch's query half, then one combine per job) and
    per-job scan, and merge stages each produce a span
    (and a ``repro_stage_latency_seconds`` observation), and the
    finished batch feeds the batch/worker metrics. With the default
    (disabled) observability instance all of this reduces to an
    attribute check per stage.
    """

    index: IVFADCIndex
    planner: BatchPlanner
    observability: Observability | None

    def _obs(self) -> Observability:
        """The explicit handle, else the process-wide instance as of now."""
        if self.observability is not None:
            return self.observability
        return get_observability()

    def _execute(
        self,
        queries: np.ndarray,
        topk: int,
        nprobe: int,
        delta_view: "DeltaView | None",
    ) -> tuple[BatchPlan, ShardedResponse]:
        """Plan ``queries``, scan the plan in parts, merge as they land.

        With ``delta_view`` (a mutable engine's uncompacted overlay)
        every job scans its *base* partition on the executor with the
        configured scanner; where tombstones hit ``t_p`` of its rows the
        scan runs ``t_p`` wider and drops them (:func:`_scan_block`; a
        dirty cell's ``n_scanned`` counts tombstoned rows too), so every
        cell reaching the merger is at most ``topk`` wide. The parent
        scans the delta segments. The merger's total (distance, id)
        order makes the result independent of fold order — and
        byte-identical to the delta-free path for queries whose probes
        miss every mutated partition. A part that failed or timed out
        lands without a grid: the response is flagged partial and
        covers every scan that did arrive.
        """
        obs = self._obs()
        start = time.perf_counter()
        with obs.span("route"):
            plan = self.planner.plan(queries, topk=topk, nprobe=nprobe)
        if delta_view is not None and delta_view.clean:
            delta_view = None
        if delta_view is not None:
            plan = _with_tombstones(plan, delta_view.hits)
        landing = self._scan_parts(plan, obs, start)
        merger = StreamingMerger(plan)
        if delta_view is not None:
            # Parent-side segment scans run while the parts are still
            # scanning: extra candidates, not coverage.
            _fold_overlay(merger, self.index, delta_view, obs)
        statuses: list[ShardStatus] = []
        stats_per_part: list[list[WorkerStats]] = []
        overlap_s = 0.0
        for part, others_in_flight in landing:
            statuses.append(part.status)
            if part.partials is None:
                continue
            folded_before = merger.merge_time_s
            with obs.span("merge"):
                merger.fold(part.partials)
            if others_in_flight:
                overlap_s += merger.merge_time_s - folded_before
            stats_per_part.append(part.worker_stats)
        partial = any(not status.ok for status in statuses)
        with obs.span("merge"):
            results = merger.results(require_complete=not partial)
        wall_time_s = time.perf_counter() - start
        worker_stats = combine_worker_stats(stats_per_part)
        obs.record_batch(plan.n_queries, wall_time_s, worker_stats)
        statuses.sort(key=lambda status: status.shard_id)
        return plan, ShardedResponse(
            results=results,
            partial=partial,
            shard_statuses=tuple(statuses),
            wall_time_s=wall_time_s,
            worker_stats=worker_stats,
            gather_overlap_s=overlap_s,
        )

    def _scan_parts(
        self, plan: BatchPlan, obs: Observability, start: float
    ) -> Iterable[tuple[ScanPart, bool]]:
        """Start scanning ``plan.jobs``; yield each part as it lands.

        The one step an executor defines. Each item pairs a
        :class:`ScanPart` with whether other parts were still in flight
        when it landed (its fold is then overlap, not wall time);
        ``start`` is the pipeline's clock, what a deadline runs from.
        Submitting happens in the call, landing in the iteration, so
        the overlay fold in between overlaps the scan.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release the executor's worker pools (idempotent)."""
        raise NotImplementedError

    def __enter__(self: _PipelineT) -> _PipelineT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PlanExecutor(PlanPipeline):
    """A pipeline whose scan lands in one part: :meth:`scan_plan`.

    The base of the thread and process executors, which supply the scan
    half only — how ``plan.jobs`` become the packed cells of the
    ``(n_queries, nprobe)`` grid — plus :meth:`close`, and set
    ``n_workers`` as well.
    """

    n_workers: int

    def run(
        self,
        queries: np.ndarray,
        topk: int = 10,
        nprobe: int = 1,
        *,
        delta_view: "DeltaView | None" = None,
    ) -> list[SearchResult]:
        """Plan and execute a batch; one :class:`SearchResult` per query."""
        return self._execute(queries, topk, nprobe, delta_view)[1].results

    def run_with_report(
        self,
        queries: np.ndarray,
        topk: int = 10,
        nprobe: int = 1,
        *,
        delta_view: "DeltaView | None" = None,
    ) -> tuple[list[SearchResult], BatchReport]:
        """Like :meth:`run`, also returning execution statistics."""
        plan, response = self._execute(queries, topk, nprobe, delta_view)
        report = BatchReport(
            n_queries=plan.n_queries,
            nprobe=plan.nprobe,
            topk=plan.topk,
            n_workers=self.n_workers,
            n_jobs=len(plan.jobs),
            wall_time_s=response.wall_time_s,
            worker_stats=response.worker_stats,
        )
        return response.results, report

    def _scan_parts(
        self, plan: BatchPlan, obs: Observability, start: float
    ) -> Iterable[tuple[ScanPart, bool]]:
        t0 = time.perf_counter()
        partials, worker_stats = self.scan_plan(plan, obs=obs)
        status = ShardStatus(
            0, STATE_OK, 1, time.perf_counter() - t0, n_jobs=len(plan.jobs)
        )
        return [(ScanPart(status, partials, worker_stats), False)]

    def scan_plan(
        self, plan: BatchPlan, *, obs: Observability | None = None
    ) -> tuple[PackedPartials, list[WorkerStats]]:
        """Execute ``plan.jobs`` and return the raw per-probe partials.

        The scan half of the pipeline, exposed so the sharded
        scatter-gather layer can execute a shard-local job subset
        against a *global* plan: the returned :class:`PackedPartials`
        always addresses the global ``(n_queries, nprobe)`` grid and
        holds a cell for every probe position a job of this plan
        covered, ready for :meth:`StreamingMerger.fold`.
        """
        raise NotImplementedError


def _warn_gil_bound(n_workers: int) -> None:
    """The advisory for thread ``n_workers > 1``, attributed to whoever
    called the constructor that asked (a one-shard thread
    :class:`~repro.Engine` asks on behalf of its executor)."""
    if n_workers > 1:
        # Thread workers contend on the GIL between NumPy kernels,
        # so more than one is typically slower than one
        # (docs/execution.md, "Which executor when").
        warnings.warn(
            f"BatchExecutor with n_workers={n_workers} uses GIL-bound "
            "threads and is typically slower than n_workers=1; for "
            "parallel speedup use the process backend "
            "(repro.parallel.ProcessBatchExecutor, or "
            'ANNSearcher.search(..., executor="process"))',
            RuntimeWarning,
            stacklevel=3,
        )


class BatchExecutor(PlanExecutor):
    """Partition-major batch executor with worker-pool parallelism.

    Executes a :class:`BatchPlan`: Step 2's query half is built once for
    the batch (:meth:`BatchPlan.query_half`), each :class:`PartitionJob`
    combines the tables of *all* of its queries out of it
    (:meth:`IVFADCIndex.tables_from_halves`), scans the partition
    with the scanner's most batch-friendly entry point, and the
    per-query partials are merged deterministically afterwards
    (:class:`PlanPipeline`) — so results are byte-identical to the
    sequential loop regardless of ``n_workers`` or job completion order.

    A job scans through the scanner's ``scan_batch`` (the pre-warmed
    prepared layout and the table-stack remap are then shared by the
    batch; a scanner that defines only ``scan`` inherits the per-query
    loop and still benefits from batched routing and tables).

    Workers are threads, and ``n_workers=1`` (inline, the default) is
    the measured choice: a job's NumPy calls are short and the Python
    between them holds the GIL, so a second thread read x0.3-0.45 on
    the fast scanners and unresolved on naive (``docs/execution.md``,
    "Which executor when"); ``n_workers > 1`` warns.

    The worker pool is **persistent**: it is spun up lazily on the first
    pooled batch and reused by every later one (the pinned-pool contract
    of the sharded scatter-gather path — no per-batch executor spin-up).
    :meth:`close` shuts it down; the executor stays usable and the next
    pooled batch simply spins up a fresh pool.

    Args:
        index: the routed index (positional-only).
        scanner: Step-3 scanner shared by all workers (positional-only).
        n_workers: worker threads (1 = run inline on the caller).
        observability: explicit observability handle; default is the
            process-wide :func:`repro.obs.get_observability` instance,
            resolved at each run.
        gil_warning: warn (:class:`RuntimeWarning`) when ``n_workers>1``
            asks for GIL-bound thread parallelism. The sharded thread
            fallback passes False: there the worker count is a per-shard
            engine knob chosen deliberately, not a misread of the
            process backend.

    The two pipeline objects are positional-only and every configuration
    argument is keyword-only, so call sites cannot transpose them
    silently.
    """

    def __init__(
        self,
        index: IVFADCIndex,
        scanner: PartitionScanner,
        /,
        *,
        n_workers: int = 1,
        observability: Observability | None = None,
        gil_warning: bool = True,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if gil_warning:
            _warn_gil_bound(n_workers)
        self.index = index
        self.scanner = scanner
        self.n_workers = n_workers
        self.observability = observability
        self.planner = BatchPlanner(index)
        # Guards the persistent pool handle against concurrent
        # scan_plan()/close() callers (lint rule R6).
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    def scan_plan(
        self, plan: BatchPlan, *, obs: Observability | None = None
    ) -> tuple[PackedPartials, list[WorkerStats]]:
        """Execute ``plan.jobs`` inline or on the thread pool."""
        if obs is None:
            obs = self._obs()
        # Warm shared scanner state from the coordinating thread so
        # workers start from a populated cache (PQFastScanner guards
        # its prepared cache and lazy assignment with _cache_lock, but
        # warming avoids building the same layout in parallel).
        with obs.span("warm"):
            self.scanner.warm(
                self.index.partitions[job.partition_id] for job in plan.jobs
            )

        n_slots = max(self.n_workers, 1)
        worker_stats = [WorkerStats(worker_id=i) for i in range(n_slots)]
        # Built here, on the coordinating thread; the pool only reads it.
        with obs.span("tables"):
            query_half = plan.query_half(self.index)

        def run_job(job: PartitionJob, worker_id: int) -> ScanBlock:
            t0 = time.perf_counter()
            partition = self.index.partitions[job.partition_id]
            with obs.span("tables"):
                tables = self.index.tables_from_halves(
                    plan.queries, query_half, job.query_rows, job.partition_id
                )
            with obs.span("scan"):
                block = _scan_block(
                    self.scanner, tables, partition, plan.topk, job.tombstones
                )
            _record_scans(
                obs,
                self.scanner.name,
                worker_stats[worker_id],
                block,
                time.perf_counter() - t0,
            )
            return block

        if self.n_workers == 1 or len(plan.jobs) <= 1:
            blocks = [run_job(job, 0) for job in plan.jobs]
        else:
            pool = self._ensure_pool(obs)
            futures = [
                pool.submit(run_job, job, i % n_slots)
                for i, job in enumerate(plan.jobs)
            ]
            blocks = [future.result(timeout=GATHER_TIMEOUT_S) for future in futures]

        return PackedPartials.of_jobs(plan, plan.jobs, blocks), worker_stats

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent).

        The executor stays usable: a later pooled batch spins up a fresh
        pool. Inline execution (``n_workers=1``) never holds a pool.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self, obs: Observability) -> ThreadPoolExecutor:
        """The pinned worker pool, spun up on the first pooled batch.

        Double-checked under the lock so racing batches share one pool;
        the loser of a creation race discards its spare. Spin-ups and
        warm reuses feed the ``repro_pool_*`` counters.
        """
        with self._lock:
            existing = self._pool
        if existing is not None:
            obs.record_pool_reuse("thread")
            return existing
        fresh = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-batch"
        )
        created = False
        with self._lock:
            current = self._pool
            if current is None:
                self._pool = fresh
                current = fresh
                created = True
        if created:
            obs.record_pool_spinup("thread")
        else:
            fresh.shutdown(wait=False)
            obs.record_pool_reuse("thread")
        return current


# -- the one-call search API ---------------------------------------------------


class ANNSearcher:
    """Full Algorithm-1 query pipeline over an IVFADC index.

    Args:
        index: a populated :class:`~repro.ivf.IVFADCIndex`.
        scanner: the Step-3 scanner (defaults to plain PQ Scan; pass a
            :class:`~repro.core.PQFastScanner` for the paper's fast
            path).
        vectors: optional ``(n, d)`` array of the original database
            vectors indexed by database id, enabling exact re-ranking of
            the ADC short-list ("re-rank with source coding", the
            paper's reference [27]). ADC compresses away rank-1
            precision; fetching the shortlist's true vectors and
            re-sorting by exact distance restores it.
        index_path: path of the saved (uncompressed) index artifact this
            searcher was loaded from. Only used by
            ``executor="process"``: worker processes attach to the
            artifact by path (mmap) instead of receiving pickled codes.
            Without it, each process executor saves, owns and deletes a
            temporary artifact of its own
            (:meth:`~repro.parallel.ProcessBatchExecutor.from_index`).

    Searchers using ``executor="process"`` hold worker pools; call
    :meth:`close` (or use the searcher as a context manager) to shut
    them down deterministically.
    """

    def __init__(
        self,
        index: IVFADCIndex,
        scanner: PartitionScanner | None = None,
        vectors: np.ndarray | None = None,
        *,
        index_path: str | Path | None = None,
    ):
        self.index = index
        self.scanner = scanner if scanner is not None else NaiveScanner()
        self.vectors = None if vectors is None else np.asarray(vectors, float)
        self.index_path = None if index_path is None else Path(index_path)
        self._closed = False
        # Pinned executors keyed (kind, n_workers), kind "batch" or
        # "process"; see _executor_for.
        self._executors: dict[tuple[str, int], PlanExecutor] = {}
        # Guards the executor cache against the concurrent
        # search()/close() callers a serving layer creates. Pools are
        # never spun up while it is held (lint rule R7): executors are
        # constructed outside the lock and published under it.
        self._lock = threading.Lock()
        # Serializes executor construction. Forking a process pool is
        # expensive, so racing first-searches must not each build one;
        # cached-hit searches and close() never touch this lock, so the
        # cache lock stays spin-up-free. Acquisition order is always
        # _create_lock -> _lock (never the reverse).
        self._create_lock = threading.Lock()

    #: Executor kinds accepted by :meth:`search` for multi-query input.
    EXECUTORS = ("batch", "sequential", "process")

    def search(
        self,
        queries: np.ndarray,
        topk: int = 10,
        nprobe: int = 1,
        rerank: int = 0,
        *,
        executor: str = "batch",
        n_workers: int = 1,
        delta: "DeltaView | None" = None,
    ) -> SearchResult | list[SearchResult]:
        """Search the ``nprobe`` most relevant partitions per query.

        The one entry point for both shapes of input:

        * a 1-D query returns a single :class:`SearchResult`;
        * a ``(b, d)`` batch returns one :class:`SearchResult` per row,
          executed by the partition-major batch engine
          (``executor="batch"``, the default, with ``n_workers``
          threads), by a pool of ``n_workers`` *processes* attached to
          the mmapped index artifact (``executor="process"`` — the only
          executor whose throughput grows with cores, since thread
          workers contend on the GIL), or by the per-query reference
          loop (``executor="sequential"`` — the baseline benchmarks and
          the equivalence tests compare against).

        Results are byte-identical across executors and worker counts.

        ``rerank > 0`` retrieves a shortlist of that many ADC candidates,
        recomputes their exact distances against the stored original
        vectors and returns the best ``topk`` of those — requires the
        searcher to have been built with ``vectors``.

        ``delta`` overlays a mutable engine's uncompacted writes
        (:class:`~repro.delta.DeltaView`): a base partition a tombstone
        hits is scanned as a clean one is, as many rows wider as it has
        tombstoned rows, minus them, and delta segments join the same
        top-k merge. Queries probing no mutated partition take the
        unmodified code paths and stay byte-identical to a delta-free
        search. Segment scans run in the calling process for every
        executor (workers only ever see the immutable base artifact).
        ``rerank`` with a non-clean delta raises
        :class:`ConfigurationError` — the stored vectors go stale under
        mutation.
        """
        self._require_open()
        queries = np.asarray(queries, dtype=np.float64)
        if delta is not None and delta.clean:
            delta = None
        if delta is not None and rerank:
            raise ConfigurationError(
                "rerank is not supported over uncompacted writes (the "
                "stored vectors go stale under mutation); call compact() "
                "before re-ranking"
            )
        if queries.ndim == 1:
            return self._search_one(queries, topk, nprobe, rerank, delta=delta)
        if queries.ndim != 2:
            raise ConfigurationError(
                f"queries must be 1-D or 2-D, got shape {queries.shape}"
            )
        if executor not in self.EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}, expected one of {self.EXECUTORS}"
            )
        if executor == "sequential":
            return [
                self._search_one(q, topk, nprobe, rerank, delta=delta)
                for q in queries
            ]
        if len(queries) == 0:
            return []
        if topk < 1:
            raise ConfigurationError("topk must be >= 1")
        if rerank:
            _check_rerank(self.vectors, topk, rerank)
        results = self._executor_for(executor, n_workers).run(
            queries, topk=rerank or topk, nprobe=nprobe, delta_view=delta
        )
        if not rerank:
            return results
        return [
            _rerank_exact(self.vectors, query, shortlist, topk)
            for query, shortlist in zip(queries, results)
        ]

    def _search_one(
        self,
        query: np.ndarray,
        topk: int = 10,
        nprobe: int = 1,
        rerank: int = 0,
        delta: "DeltaView | None" = None,
    ) -> SearchResult:
        """Single-query Algorithm-1 loop (route → tables → scan → merge)."""
        if topk < 1:
            raise ConfigurationError("topk must be >= 1")
        if rerank:
            _check_rerank(self.vectors, topk, rerank)
            shortlist = self._search_one(query, topk=rerank, nprobe=nprobe)
            return _rerank_exact(self.vectors, query, shortlist, topk)
        obs = get_observability()
        with obs.span("route"):
            probed = self.index.route(query, nprobe=nprobe)
        all_ids: list[np.ndarray] = []
        all_dists: list[np.ndarray] = []
        n_scanned = 0
        n_pruned = 0
        block = query[None, :]
        with obs.span("tables"):
            query_half = self.index.query_half(block)
        for pid in probed:
            with obs.span("tables"):
                tables = self.index.tables_from_halves(
                    block, query_half, None, pid
                )[0]
            # The base partition as _scan_block scans it: as many rows
            # wider as its tombstones, minus them; a segment is one more
            # exact scan, kept whole.
            dropped = delta.hits.get(pid, _NO_IDS) if delta is not None else _NO_IDS
            segment = delta.segments.get(pid) if delta is not None else None
            scans = [(self.scanner, self.index.partitions[pid], dropped)]
            if segment is not None:
                scans.append((_SEGMENT_SCANNER, segment, _NO_IDS))
            for scanner, partition, tombstones in scans:
                with obs.span("scan"):
                    result = scanner.scan(
                        tables, partition, topk=topk + len(tombstones)
                    )
                obs.record_scan(scanner.name, result.n_scanned, result.n_pruned)
                ids, dists = result.ids, result.distances
                if len(tombstones):
                    live = ~np.isin(ids, tombstones)
                    ids, dists = ids[live], dists[live]
                all_ids.append(ids)
                all_dists.append(dists)
                n_scanned += result.n_scanned
                n_pruned += result.n_pruned
        ids = np.concatenate(all_ids) if all_ids else np.empty(0, dtype=np.int64)
        dists = (
            np.concatenate(all_dists) if all_dists else np.empty(0, dtype=np.float64)
        )
        with obs.span("merge"):
            merged_ids, merged_dists = select_topk(dists, ids, topk)
        return SearchResult(
            ids=merged_ids,
            distances=merged_dists,
            n_scanned=n_scanned,
            n_pruned=n_pruned,
            probed=tuple(int(p) for p in probed),
        )

    def _require_open(self) -> None:
        """Raise when the searcher was closed (the lifecycle contract)."""
        with self._lock:
            closed = self._closed
        if closed:
            raise ConfigurationError(
                "ANNSearcher is closed; create a new searcher"
            )

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _executor_for(self, kind: str, n_workers: int) -> PlanExecutor:
        """The cached executor of one ``(kind, n_workers)``.

        Caching pins the executor's worker pool across searches: no
        per-batch spin-up, warm worker processes (their per-process
        scanner caches included), and the GIL :class:`RuntimeWarning`
        for thread ``n_workers>1`` fires once per searcher and worker
        count, on first use, not per batch.

        Safe for concurrent callers: cache reads/publishes happen under
        ``self._lock``; construction runs under ``self._create_lock``
        only, so the cache lock is never held across a pool spin-up (R7)
        and racing first-searches build exactly one executor per key
        instead of discarding expensive spares. A close() racing the
        publish wins: the fresh executor is discarded and the search
        raises.
        """
        key = (kind, n_workers)
        with self._lock:
            cached = self._executors.get(key)
        if cached is not None:
            return cached
        with self._create_lock:
            with self._lock:
                cached = self._executors.get(key)
            if cached is not None:
                return cached
            fresh = self._build_executor(kind, n_workers)
            with self._lock:
                rejected = self._closed
                if not rejected:
                    self._executors[key] = fresh
            if rejected:
                fresh.close()
                raise ConfigurationError(
                    "ANNSearcher is closed; create a new searcher"
                )
            return fresh

    def _build_executor(self, kind: str, n_workers: int) -> PlanExecutor:
        """A fresh thread or process executor over this searcher's index."""
        if kind == "batch":
            return BatchExecutor(self.index, self.scanner, n_workers=n_workers)
        from .parallel import ProcessBatchExecutor

        if self.index_path is None:
            return ProcessBatchExecutor.from_index(
                self.index, self.scanner, n_workers=n_workers
            )
        return ProcessBatchExecutor(
            self.index_path, self.scanner, n_workers=n_workers, index=self.index
        )

    def close(self) -> None:
        """Shut the searcher down for good (the lifecycle contract).

        Closes every executor: the process pools of
        ``executor="process"`` searches (each with the temporary
        artifact it saved, if any) and the persistent thread pools of
        multi-worker ``executor="batch"`` searches. Terminal: every later
        :meth:`search` raises :class:`ConfigurationError`. Idempotent
        and safe against concurrent close()/search() callers — a search
        racing the close either completes or raises, it never resurrects
        a pool.
        """
        with self._lock:
            self._closed = True
            executors = list(self._executors.values())
            self._executors.clear()
        for executor in executors:
            executor.close()

    def __enter__(self) -> "ANNSearcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- re-ranking ----------------------------------------------------------------


def _check_rerank(vectors: np.ndarray | None, topk: int, rerank: int) -> None:
    """Refuse a re-rank request that cannot be answered, before any scan."""
    if vectors is None:
        raise ConfigurationError(
            "rerank requires the original vectors: ANNSearcher(..., "
            "vectors=...) or EngineConfig(keep_vectors=True)"
        )
    if rerank < topk:
        raise ConfigurationError("rerank shortlist must be >= topk")


def _rerank_exact(
    vectors: np.ndarray | None,
    query: np.ndarray,
    shortlist: SearchResult,
    topk: int,
) -> SearchResult:
    """The best ``topk`` of an ADC ``shortlist`` by exact distance.

    The one re-ranking step :class:`ANNSearcher` and
    :class:`~repro.Engine` share: ``vectors`` is indexed by database id.
    """
    if vectors is None:  # pragma: no cover - _check_rerank ran first
        raise ConfigurationError("rerank requires the original vectors")
    exact = np.sum(
        (vectors[shortlist.ids] - np.asarray(query, float)) ** 2,
        axis=1,
    )
    ids, dists = select_topk(exact, shortlist.ids, topk)
    return SearchResult(
        ids=ids,
        distances=dists,
        n_scanned=shortlist.n_scanned,
        n_pruned=shortlist.n_pruned,
        probed=shortlist.probed,
    )
