"""The query pipeline's parts: plan, scan, merge.

The paper evaluates single-partition scans (its Step 3); a deployed
system wraps the full Algorithm 1 loop and usually probes several
coarse cells (``nprobe``) to trade response time for recall. Batches
run through :class:`~repro.Engine`; this module holds the parts of its
pipeline.

A batch is routed up front (:class:`BatchPlanner`), and the per-query
plan is inverted so that all queries probing a partition scan it
together (per-partition state — grouped layouts, remapped tables,
gathered codes — is touched once per batch instead of once per query).
:class:`BatchExecutor` scans a plan inline on the caller's thread; the
concurrent-query traffic of the paper's Section 5.8 (scans
bandwidth-bound within a few cores) comes from the process pools of
:mod:`repro.parallel`, which :class:`~repro.Engine` owns.

How a plan becomes results is written once, in
:class:`~repro.shard.ScatterGatherExecutor` (route, hand each job its
partition's tombstones, scan on each shard, fold the delta segments
(:func:`_fold_overlay`) and each shard's cells into a
:class:`StreamingMerger`, ``results()``); an unsharded index is its
one-shard split, and the inline and process executors only scan
(``scan_plan``). The merger's (distance, id) order is total, so results
are byte-identical whatever the executor, worker count or fold order,
and equal a brute-force scan of every live row the queries probe.
:func:`merge_partials` is the barrier form of the same merge, kept as
the reference the merger is tested against; :class:`ANNSearcher` is the
per-query loop.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from . import native
from .exceptions import ConfigurationError, DimensionMismatchError, SimulationError
from .ivf.inverted_index import IVFADCIndex, as_count
from .ivf.partition import Partition
from .obs import NULL_SPAN, Observability, WorkerStats, get_observability
from .scan.base import NO_IDS, PAD_DISTANCE, PAD_ID, PartitionScanner, ScanBlock
from .scan.base import ScanResult
from .scan.naive import NaiveScanner
from .scan.topk import select_topk, select_topk_rows

if TYPE_CHECKING:  # import cycle: repro.delta imports repro.search
    from .delta.store import DeltaView

__all__ = [
    "ANNSearcher",
    "BatchExecutor",
    "BatchPlan",
    "BatchPlanner",
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

def _checked_topk(topk: int) -> int:
    topk = as_count(topk, "topk")
    if topk < 1:
        raise ConfigurationError("topk must be >= 1")
    return topk


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
            hits, one per row (:attr:`~repro.delta.DeltaView.hits`),
            which the scanner skips (``scan_batch``'s ``tombstones``).
    """

    partition_id: int
    query_rows: np.ndarray
    probe_positions: np.ndarray
    cost: int
    tombstones: np.ndarray


class _QueryHalfOnce:
    """A batch's query half, built by the first of the thread shards'
    scans and the overlay fold to need it; the others wait for that one
    instead of building their own."""

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
    (:meth:`IVFADCIndex.route_batch` is a single centroid-distance
    computation), then the per-query probe lists are transposed into one
    :class:`PartitionJob` per distinct partition. The planner reads two
    things of the index, ``partitions`` and ``route_batch``: perfbench's
    replay plans over a stand-in that has only those.
    """

    def __init__(self, index: IVFADCIndex):
        self.index = index
        # (partitions list, its sizes): re-read when the index hands out
        # another list.
        self._sizes: tuple[list[Partition], np.ndarray] | None = None

    def _partition_sizes(self) -> np.ndarray:
        """Each partition's row count, at least 1 (a job's cost unit)."""
        partitions = self.index.partitions
        if self._sizes is None or self._sizes[0] is not partitions:
            sizes = np.fromiter(map(len, partitions), np.int64, len(partitions))
            self._sizes = (partitions, np.maximum(sizes, 1))
        return self._sizes[1]

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
        topk = _checked_topk(topk)
        probed = self.index.route_batch(queries, nprobe=nprobe)
        flat = probed.ravel()
        sizes = self._partition_sizes()
        # One pass of array calls, no per-job Python but the jobs
        # themselves: every probed partition's probe count and cost, the
        # jobs largest first (with fewer jobs than workers towards the
        # end of the batch, the stragglers should be the cheap ones, a
        # tie by partition id), then one stable argsort that lays the
        # probes out job by job, each job's queries ascending.
        counts = np.bincount(flat, minlength=len(sizes))
        pids = np.flatnonzero(counts)
        counts = counts[pids]
        costs = counts * sizes[pids]
        by_cost = np.lexsort((pids, -costs))
        pids, costs, counts = pids[by_cost], costs[by_cost], counts[by_cost]
        rank = np.empty(len(sizes), dtype=np.intp)
        rank[pids] = np.arange(len(pids))
        rows, positions = np.divmod(np.argsort(rank[flat], kind="stable"), nprobe)
        counts = counts.tolist()
        jobs = tuple(
            PartitionJob(
                partition_id=pid,
                query_rows=rows[stop - count : stop],
                probe_positions=positions[stop - count : stop],
                cost=cost,
                tombstones=NO_IDS,
            )
            for pid, cost, count, stop in zip(
                pids.tolist(), costs.tolist(), counts, itertools.accumulate(counts)
            )
        )
        return BatchPlan(
            queries=queries,
            topk=topk,
            nprobe=nprobe,
            probed=probed,
            jobs=jobs,
        )


# -- batch execution -----------------------------------------------------------


#: Most (query, partition) cells in a run of jobs, and most entries
#: (cells x the run's widest partition) in its candidate block; a job
#: larger than that is a run of one. They bound what is combined into
#: tables: the runs of every scanner but naive, and naive's on the numpy
#: paths (with the native kernels naive makes no table, and a job list
#: is one call, :func:`_scan_runs`). A run shares one table combine
#: and, for naive, one code gather and one top-k. Sized (while naive
#: still combined tables) for a process worker's bundle
#: (``probe-sharded``: 64 partitions of ~96 rows per shard, the widest
#: 225, nprobe 8, 128-query batches, ~512 cells per bundle; 2-core x86
#: host, best of 15): a bundle took 11.6 ms as a run
#: per job, 9.8 ms in ~29 runs of 16 cells, 9.1 in ~18 of 32, 9.0 in
#: ~9 of 64 and 8.9 in ~5 of 128 (its peak traced bytes up from 5.5 to
#: 8.5 MiB; ``peak_rss_mb`` read 244.9-245.9 MiB at 16 to 256 cells).
#: The entry bound never binds there (64 x 225 < 2^14); it
#: binds on ``serve-mixed`` (64 partitions of ~190 rows, the widest
#: 468, nprobe 4, served batches of 1-32), where a run's ``(cells, m,
#: k*)`` tables and entry arrays are freed blocks the allocator keeps:
#: ``peak_rss_mb`` (four runs each, a few runs of any setting read
#: ~218-222) sat at 198.0 MiB at 16 cells and 2^14 entries, 202.0 at 64
#: and 2^14, 204.0-205.3 at 64 and 2^15 and 204.0 at 64 and 2^16, and
#: 32-query batches ran 2.81 ms at 16 cells, 2.49 at 64.
_RUN_CELLS = 64
_RUN_ENTRIES = 1 << 15

#: One job of a run: the partition id its tables are combined for, the
#: query rows probing it and its tombstoned ids.
_Job = tuple[int, np.ndarray, np.ndarray]


def _runs(jobs: Sequence[_Job], partitions: Sequence[Partition]) -> list[slice]:
    """``jobs`` cut into runs, in order, within :data:`_RUN_CELLS` cells
    and :data:`_RUN_ENTRIES` entries each."""
    runs: list[slice] = []
    start = cells = widest = 0
    for i, ((_, rows, _), partition) in enumerate(zip(jobs, partitions)):
        cells, widest = cells + len(rows), max(widest, len(partition))
        if i > start and (cells > _RUN_CELLS or cells * widest > _RUN_ENTRIES):
            runs.append(slice(start, i))
            start, cells, widest = i, len(rows), len(partition)
    if jobs:
        runs.append(slice(start, len(jobs)))
    return runs


def _no_span(stage: str) -> AbstractContextManager[object]:
    """The span of a scan that reports to no one (a worker process)."""
    return NULL_SPAN


def _scan_runs(
    index: IVFADCIndex,
    scanner: PartitionScanner,
    queries: np.ndarray,
    query_half: np.ndarray,
    jobs: Sequence[_Job],
    partitions: Sequence[Partition],
    topk: int,
    obs: Observability | None = None,
) -> Iterator[tuple[int, ScanBlock]]:
    """Tables and scans of ``jobs`` against ``partitions``, run by run;
    yields each run's job count and cells, job by job.

    The one tables-and-scan loop of every executor, the process workers
    and the overlay fold. A run is one :meth:`IVFADCIndex.table_halves`
    call, a cell id per row. Naive's own run, where the native kernels
    run, is all of ``jobs`` at once and makes no table: one
    :meth:`~repro.scan.NaiveScanner.scan_halves`, which combines each
    entry where it reads it. Otherwise a run (:func:`_runs`) combines
    its tables (:meth:`~repro.ivf.inverted_index.TableHalves.combine`)
    for one :meth:`~repro.scan.PartitionScanner.scan_run` (naive's is one
    exhaustive pass: one code gather, tombstoned rows masked, one
    top-k; by default a scanner scans the run job by job, each job's
    ``scan_batch`` skipping its tombstoned rows). Cells are
    byte-identical every way.
    """
    span = obs.span if obs is not None else _no_span
    whole = (bool(jobs) and type(scanner).scan_run is NaiveScanner.scan_run
             and native.available())
    for run in [slice(0, len(jobs))] if whole else _runs(jobs, partitions):
        pids, rows, dropped = zip(*jobs[run])
        sizes = [len(job_rows) for job_rows in rows]
        with span("tables"):
            halves = index.table_halves(
                queries,
                query_half,
                np.concatenate(rows),
                np.repeat(np.asarray(pids, dtype=np.intp), sizes),
            )
        block: ScanBlock | None = None
        if whole:
            with span("scan"):
                block = scanner.scan_halves(halves, partitions[run], sizes, topk, dropped)
        if block is None:  # tables to combine, or a fused call that gave up
            with span("tables"):
                tables = halves.combine()
            with span("scan"):
                block = scanner.scan_run(tables, partitions[run], sizes, topk, dropped)
        yield len(sizes), block


def _record_scans(
    obs: Observability,
    scanner_name: str,
    stats: WorkerStats,
    cells: ScanBlock,
    busy_time_s: float,
    n_jobs: int = 1,
) -> None:
    """Account the scans of one run of ``n_jobs`` jobs (or of a worker's
    bundle).

    The one place scans are counted, in the parent: every executor's
    :class:`ScanBlock` lands here, so the scan counters and the
    pruning-rate gauge do not depend on which process scanned.
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
    return list(ScanBlock.pack(scanner.scan_batch(tables, partition, topk)))


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
    pipeline instead folds each :class:`PackedPartials` into this merger
    *as it lands* (:meth:`fold`) — the overlay parts of a mutable
    engine, each shard's part while the other shards are still
    scanning. A fold is a scatter of
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
        candidates = (
            self._distances.reshape(flat), self._ids.reshape(flat), self.plan.topk
        )
        selected = native.select_rows(*candidates)
        ids, distances = selected or select_topk_rows(*candidates)
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
    process whatever the shards' backend (workers only ever see the
    immutable base artifact). The segments' scans fold with
    ``covers=False``: they add candidates without claiming coverage (the
    base scan, on whichever shard, owns the plan's cell).
    """
    plan = merger.plan
    jobs = [job for job in plan.jobs if job.partition_id in view.segments]
    if not jobs:
        return
    blocks = []
    for _, block in _scan_runs(
        index,
        _SEGMENT_SCANNER,
        plan.queries,
        plan.query_half(index),
        [(job.partition_id, job.query_rows, NO_IDS) for job in jobs],
        [view.segments[job.partition_id] for job in jobs],
        plan.topk,
        obs,
    ):
        obs.record_scan(
            _SEGMENT_SCANNER.name, int(block.n_scanned.sum()), int(block.n_pruned.sum())
        )
        blocks.append(block)
    with obs.span("merge"):
        merger.fold(PackedPartials.of_jobs(plan, jobs, blocks), covers=False)


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


class BatchExecutor:
    """How one shard scans a plan inline, on the caller's thread.

    :meth:`scan_plan` executes a :class:`BatchPlan`: Step 2's query half
    is built once for the batch (:meth:`BatchPlan.query_half`), each run
    of jobs (:class:`PartitionJob`) combines the tables of *all* of its
    queries out of it (:meth:`IVFADCIndex.tables_from_halves`) and scans
    its partitions (:func:`_scan_runs`). The plan-to-results pipeline
    around it (route, overlay, merge) is
    :class:`~repro.shard.ScatterGatherExecutor`'s, whose
    ``backend="thread"`` shards are these.

    The executor holds no pool: a job's NumPy calls are short and the
    Python between them holds the GIL, so a second thread read
    x0.28-0.46 on fastpq and x0.38-0.43 on quickadc
    (``docs/execution.md``, "Which executor when"). Worker parallelism
    is the process backend's (:class:`~repro.parallel.ProcessBatchExecutor`,
    ``Engine(..., executor="process")``).

    Args:
        index: the routed index (positional-only).
        scanner: the Step-3 scanner (positional-only).
        n_workers: must be 1 (the signature the process executor
            shares); anything else raises :class:`ConfigurationError`.

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
    ):
        if n_workers != 1:
            raise ConfigurationError(
                f"BatchExecutor runs inline (n_workers=1), got n_workers="
                f"{n_workers}; for parallel workers use the process backend "
                "(repro.parallel.ProcessBatchExecutor, or "
                'Engine(..., executor="process"))'
            )
        self.index = index
        self.scanner = scanner
        self.n_workers = n_workers

    def scan_plan(self, plan: BatchPlan) -> tuple[PackedPartials, list[WorkerStats]]:
        """Execute ``plan.jobs`` inline, in plan order.

        ``plan`` may be a shard's subset of a *global* plan: the returned
        :class:`PackedPartials` always address the global ``(n_queries,
        nprobe)`` grid, a cell for every probe position a job covered,
        ready for :meth:`StreamingMerger.fold`.
        """
        obs = get_observability()
        # Every layout the plan needs is prepared before the first scan.
        with obs.span("warm"):
            self.scanner.warm(
                self.index.partitions[job.partition_id] for job in plan.jobs
            )
        stats = WorkerStats(worker_id=0)
        with obs.span("tables"):
            query_half = plan.query_half(self.index)
        blocks: list[ScanBlock] = []
        t0 = time.perf_counter()
        for n_jobs, block in _scan_runs(
            self.index,
            self.scanner,
            plan.queries,
            query_half,
            [(job.partition_id, job.query_rows, job.tombstones) for job in plan.jobs],
            [self.index.partitions[job.partition_id] for job in plan.jobs],
            plan.topk,
            obs,
        ):
            _record_scans(
                obs, self.scanner.name, stats, block, time.perf_counter() - t0, n_jobs
            )
            blocks.append(block)
            t0 = time.perf_counter()
        return PackedPartials.of_jobs(plan, plan.jobs, blocks), [stats]

    def close(self) -> None:
        """Nothing to release: the executor holds no pool."""

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the per-query loop --------------------------------------------------------


class ANNSearcher:
    """Algorithm 1 one query at a time: route, tables, scan, merge.

    Every batch runs through :class:`~repro.Engine`; this loop stays for
    callers that compare a batch against per-query scans. It builds no
    executor, pool or shard layout, and records no metric.

    Args:
        index: a populated :class:`~repro.ivf.IVFADCIndex`.
        scanner: the Step-3 scanner (defaults to plain PQ Scan).

    :meth:`close` (or leaving the searcher as a context manager) marks it
    closed, and every later :meth:`search` raises.
    """

    def __init__(
        self, index: IVFADCIndex, scanner: PartitionScanner | None = None
    ):
        self.index = index
        self.scanner = scanner if scanner is not None else NaiveScanner()
        self._closed = False

    def search(
        self,
        queries: np.ndarray,
        topk: int = 10,
        nprobe: int = 1,
        *,
        executor: str = "sequential",
    ) -> SearchResult | list[SearchResult]:
        """The top ``topk`` of the ``nprobe`` nearest partitions.

        A 1-D query returns one :class:`SearchResult`, a ``(b, d)`` batch
        one per row, each from its own loop. ``"sequential"`` is the one
        ``executor`` there is: any other value raises
        :class:`ConfigurationError` naming :class:`~repro.Engine`, which
        searches batches. ``topk``, ``executor`` and the query width are
        checked before any shape branch (an empty batch too).
        """
        if self._closed:
            raise ConfigurationError("ANNSearcher is closed; create a new searcher")
        queries = np.asarray(queries, dtype=np.float64)
        topk = _checked_topk(topk)
        if executor != "sequential":
            raise ConfigurationError(
                f"ANNSearcher runs the per-query loop only "
                f'(executor="sequential"), got executor={executor!r}; '
                "search batches through Engine(index, config).search"
            )
        if queries.ndim not in (1, 2):
            raise ConfigurationError(
                f"queries must be 1-D or 2-D, got shape {queries.shape}"
            )
        if queries.shape[-1] != self.index.pq.d:
            raise DimensionMismatchError(self.index.pq.d, queries.shape[-1], "query")
        if queries.ndim == 1:
            return self._search_one(queries, topk, nprobe)
        return [self._search_one(query, topk, nprobe) for query in queries]

    def _search_one(self, query: np.ndarray, topk: int, nprobe: int) -> SearchResult:
        probed = self.index.route(query, nprobe=nprobe)
        block = query[None, :]
        query_half = self.index.query_half(block)
        scans = [
            self.scanner.scan(
                self.index.tables_from_halves(block, query_half, None, pid)[0],
                self.index.partitions[pid],
                topk,
            )
            for pid in probed
        ]
        ids, dists = select_topk(
            np.concatenate([scan.distances for scan in scans]),
            np.concatenate([scan.ids for scan in scans]),
            topk,
        )
        return SearchResult(
            ids=ids,
            distances=dists,
            n_scanned=sum(scan.n_scanned for scan in scans),
            n_pruned=sum(scan.n_pruned for scan in scans),
            probed=tuple(int(p) for p in probed),
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the searcher closed (terminal, idempotent)."""
        self._closed = True

    def __enter__(self) -> "ANNSearcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
