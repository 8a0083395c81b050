"""Scatter-gather execution across the shards of a :class:`ShardedIndex`.

:class:`ScatterGatherExecutor` is the one pipeline from a query batch
to its merged results: every :class:`~repro.Engine` query and
:class:`~repro.search.ANNSearcher`'s batch path run through it, an
unsharded index as the one-shard split. A shard only scans, on an
inline :class:`~repro.search.BatchExecutor` or a
:class:`~repro.parallel.ProcessBatchExecutor` (their ``scan_plan``):

1. **Route**: the whole batch once on the shared coarse codebook, into
   the global partition-major plan (the same
   :class:`~repro.search.BatchPlanner` over the layout's
   :attr:`~repro.shard.ShardedIndex.global_view`); with a delta view,
   each job a tombstone hits carries its tombstoned ids.
2. **Scatter**: split the plan's partition jobs by owning shard —
   heaviest shard first, so the longest sub-plan starts earliest — and
   run each shard's job subset on that shard's own executor — a
   :class:`~repro.parallel.ProcessBatchExecutor` whose workers mmap the
   shard's saved artifact (``backend="process"``, the default) or an
   inline :class:`~repro.search.BatchExecutor` on a gather thread
   (``backend="thread"``). Either way each shard runs the
   partition-major engine internally, with its own scanner instance.
   **Every pool is pinned across ``run()`` calls**: shard pools spawn
   once in the constructor (process workers attach by mmap path
   exactly once) and the gather pool below is likewise built once —
   steady-state batches pay zero spin-up.
3. **Gather, streamed**: the delta segments (scanned here, in the
   parent, while the shards scan) and the shard partials, in
   completion order, are each folded into the running per-query
   :class:`~repro.search.StreamingMerger` the moment it lands, so merge
   work overlaps the shards still scanning instead of serializing after
   a barrier. The fold order cannot change the answer — the merger
   applies the same total (distance, id) order as the barrier merge —
   and the deadline/retry policy is unchanged: a shard that raises is
   retried with exponential backoff, a shard still running at
   ``deadline_s`` from scatter start is abandoned. A plan whose split
   has a single non-empty part and no deadline runs that part on the
   caller's thread: there is nothing to overlap and nothing to abandon,
   and the hop to the gather pool measured 0.78x ``qps`` on perfbench's
   ``serve-mixed`` (docs/execution.md, "Which executor when").

Graceful degradation is the contract: shard timeouts and exhausted
retries do **not** raise. The response carries ``partial=True`` plus a
per-shard :class:`ShardStatus`, and the merged results cover every scan
that did complete. When all shards are healthy the response is
byte-identical to the unsharded engine on the same data — the scans,
tables and merge are the very same code paths, only scheduled
differently.

Configuration errors (bad topk, unknown executor state) still raise:
they are caller bugs, not operational faults.
"""

from __future__ import annotations

import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..delta.store import DeltaView

from ..exceptions import ConfigurationError
from ..obs import Observability, WorkerStats, combine_worker_stats, get_observability
from ..parallel import ProcessBatchExecutor
from ..scan.base import PartitionScanner
from ..search import (
    GATHER_TIMEOUT_S,
    STATE_FAILED,
    STATE_OK,
    STATE_TIMEOUT,
    BatchExecutor,
    BatchPlan,
    BatchPlanner,
    PackedPartials,
    PartitionJob,
    ShardedResponse,
    ShardStatus,
    StreamingMerger,
    _fold_overlay,
    _with_tombstones,
)
from .sharded_index import ShardedIndex

__all__ = [
    "STATE_FAILED",
    "STATE_OK",
    "STATE_TIMEOUT",
    "ScatterGatherExecutor",
    "ShardRouter",
    "ShardStatus",
    "ShardedResponse",
]


class ShardRouter:
    """Builds the global plan and its per-shard sub-plans.

    The global plan is produced by the standard
    :class:`~repro.search.BatchPlanner` over the sharded index's
    :attr:`~repro.shard.ShardedIndex.global_view`, so probe lists (and
    therefore results) are bit-identical to the unsharded engine. Each
    sub-plan shares the global ``queries`` / ``probed`` arrays and keeps
    only the jobs whose partition the shard owns — query rows and probe
    positions stay in global coordinates, which is what lets the
    gathered partials drop straight into the global merge grid.
    """

    def __init__(self, sharded: ShardedIndex, /):
        self.sharded = sharded
        self.planner = BatchPlanner(sharded.global_view)
        self._owners: list[int] = sharded.owners.tolist()

    def plan(
        self, queries: np.ndarray, topk: int = 10, nprobe: int = 1
    ) -> tuple[BatchPlan, dict[int, BatchPlan]]:
        """Return ``(global_plan, {shard_id: sub_plan})``."""
        plan = self.planner.plan(queries, topk=topk, nprobe=nprobe)
        return plan, self.split(plan)

    def split(self, plan: BatchPlan) -> dict[int, BatchPlan]:
        """``{shard_id: sub_plan}``, one pass over ``plan.jobs``.

        Shards whose partitions are not probed by any query of the batch
        get no sub-plan (and no scatter task).
        """
        jobs_of: dict[int, list[PartitionJob]] = {}
        for job in plan.jobs:
            jobs_of.setdefault(self._owners[job.partition_id], []).append(job)
        return {
            shard_id: replace(plan, jobs=tuple(jobs_of[shard_id]))
            for shard_id in sorted(jobs_of)
        }


@dataclass(frozen=True)
class ScanPart:
    """One landed part of a plan's scan: one shard's.

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


class ScatterGatherExecutor:
    """The one pipeline from a query batch to its merged results.

    Route and plan, hand the jobs a tombstone hits their tombstones,
    scatter the plan across the shards (:meth:`_scan_parts`), fold the
    delta segments, fold each shard's :class:`ScanPart` into a
    :class:`~repro.search.StreamingMerger` as it lands, ``results()``,
    report — with graceful degradation.

    Every run is traced through :mod:`repro.obs`: the route, warm,
    table-build (the batch's query half, then one combine per run of
    jobs) and per-run scan, and merge stages each produce a span (and a
    ``repro_stage_latency_seconds`` observation), and the finished batch
    feeds the batch/worker metrics. With the default (disabled)
    observability instance all of this reduces to an attribute check
    per stage.

    Every pool this executor touches is **pinned**: the per-shard
    process pools (whose workers attach to the shard artifacts by mmap
    path) and the scatter thread pool all spawn once here and serve
    every ``run()`` until :meth:`close`. A shard task abandoned at the
    deadline keeps its scatter slot busy until it finishes in the
    background — the pool is sized one thread per shard so a straggler
    does not starve the other shards of the next batch.

    Args:
        sharded: the sharded layout (positional-only).
        scanners: one Step-3 scanner per shard (a sequence of length
            ``n_shards``), or a zero-argument factory called once per
            shard. Per-shard instances keep each shard's prepared
            layouts and ``prepared_hits`` / ``prepared_misses`` to its
            own partitions (:class:`~repro.scan.prepared.PreparedCache`,
            locked, so a shared instance would be safe, only mixed), and
            let one shard run a scanner of its own (fault injection).
        n_workers: worker processes *per shard* for
            ``backend="process"``; ``backend="thread"`` scans each shard
            inline and refuses anything but 1 (as
            :class:`~repro.search.BatchExecutor` does).
        backend: ``"process"`` (default) runs each shard on a
            :class:`~repro.parallel.ProcessBatchExecutor` whose worker
            processes mmap the shard's saved artifact — the only backend
            whose throughput grows with cores; ``"thread"`` runs it on an
            inline :class:`~repro.search.BatchExecutor` (no artifact
            or extra processes needed — custom scanner types, tests).
            Results are byte-identical either way.
        artifact_dir: for ``backend="process"``, the directory holding a
            :func:`~repro.persistence.save_sharded_index` layout for
            *this* sharded index (workers attach to its per-shard
            files) or, for a one-shard layout, the
            :func:`~repro.persistence.save_index` file of the index
            itself (its only shard owns every partition, so the two
            formats coincide). Default: the layout's own
            :attr:`~repro.shard.ShardedIndex.artifact_dir` when it was
            saved or loaded before; otherwise the layout is saved to a
            temporary directory owned by the executor (freed by
            :meth:`close`).
        mmap: for ``backend="process"``, how workers attach to the shard
            artifacts (True — the zero-copy default — or eager copies).
        mp_context: for ``backend="process"``, explicit
            :mod:`multiprocessing` context for the per-shard pools.
        deadline_s: per-shard deadline measured from scatter start;
            shards still running at the deadline are abandoned and the
            response is flagged partial. ``None`` waits indefinitely.
        max_retries: transient-failure retries per shard (a shard gets
            ``max_retries + 1`` attempts before it is marked failed).
        backoff_s: initial retry backoff, doubled per attempt.
        observability: explicit observability handle; default is the
            process-wide instance, resolved at each run.
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        scanners: Sequence[PartitionScanner] | Callable[[], PartitionScanner],
        /,
        *,
        n_workers: int = 1,
        backend: str = "process",
        artifact_dir: str | Path | None = None,
        mmap: bool = True,
        mp_context: BaseContext | None = None,
        deadline_s: float | None = None,
        max_retries: int = 1,
        backoff_s: float = 0.02,
        observability: Observability | None = None,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in ("thread", "process"):
            raise ConfigurationError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive (or None), got {deadline_s}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {backoff_s}")
        if callable(scanners):
            shard_scanners: list[PartitionScanner] = [
                scanners() for _ in sharded.shards
            ]
        else:
            shard_scanners = list(scanners)
            if len(shard_scanners) != sharded.n_shards:
                raise ConfigurationError(
                    f"need one scanner per shard: got {len(shard_scanners)} "
                    f"for {sharded.n_shards} shards"
                )
        self.sharded = sharded
        self.scanners = tuple(shard_scanners)
        self.n_workers = n_workers
        self.backend = backend
        self.mmap = mmap
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.observability = observability
        self.router = ShardRouter(sharded)
        self.planner = self.router.planner
        self.index = sharded.global_view
        # Guards the temporary-artifact handle against concurrent
        # close() calls.
        self._lock = threading.Lock()
        self._tempdir: tempfile.TemporaryDirectory | None = None
        self._executors: tuple[BatchExecutor | ProcessBatchExecutor, ...]
        if backend == "process":
            from ..persistence import _shard_filename, save_sharded_index

            # A shard that fails to spin up (a scanner a worker cannot
            # rebuild, a bad artifact) must not leak the pools already
            # started or the temporary layout: both go before the raise.
            started: list[ProcessBatchExecutor] = []
            try:
                if artifact_dir is None:
                    # Attach to the layout's own saved artifact when one
                    # exists (saved or loaded earlier) — no duplicate copy.
                    artifact_dir = sharded.artifact_dir
                if artifact_dir is None:
                    self._tempdir = tempfile.TemporaryDirectory(
                        prefix="repro-shards-"
                    )
                    artifact_dir = self._tempdir.name
                    remembered = sharded.artifact_dir
                    save_sharded_index(sharded, artifact_dir)
                    # The temporary layout is owned (and deleted) by this
                    # executor; the shared index must not advertise it to
                    # executors created later.
                    sharded.artifact_dir = remembered
                root = Path(artifact_dir)
                if root.is_file() and sharded.n_shards > 1:
                    raise ConfigurationError(
                        f"artifact_dir {root} is a single index file; a layout "
                        f"of {sharded.n_shards} shards needs a directory"
                    )
                for shard, scanner in zip(sharded.shards, self.scanners):
                    path = root
                    if not root.is_file():
                        path = root / _shard_filename(shard.shard_id)
                    started.append(ProcessBatchExecutor(
                        path,
                        scanner,
                        n_workers=n_workers,
                        mmap=mmap,
                        index=shard.index,
                        mp_context=mp_context,
                        observability=observability,
                    ))
            except BaseException:
                for executor in started:
                    executor.close()
                if self._tempdir is not None:
                    self._tempdir.cleanup()
                raise
            self._executors = tuple(started)
        else:
            self._executors = tuple(
                BatchExecutor(
                    shard.index,
                    scanner,
                    n_workers=n_workers,
                    observability=observability,
                )
                for shard, scanner in zip(sharded.shards, self.scanners)
            )
        # The pinned scatter pool: one thread per shard, spawned once and
        # reused by every run() (no per-batch pool spin-up).
        self._gather_pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=max(sharded.n_shards, 1),
            thread_name_prefix="repro-shard",
        )
        self._obs().record_pool_spinup("gather")

    def run(
        self,
        queries: np.ndarray,
        topk: int = 10,
        nprobe: int = 1,
        *,
        delta_view: "DeltaView | None" = None,
    ) -> ShardedResponse:
        """Scatter ``queries`` across shards; gather and merge, streamed.

        Shard sub-plans are submitted heaviest-first to the pinned
        scatter pool, partials land in completion order, and each is
        folded into the running merge while the remaining shards are
        still scanning — the response's ``gather_overlap_s`` reports how
        much merge time that hid.

        With ``delta_view`` (a mutable engine's uncompacted overlay),
        each shard scans every job it owns, dirty or not, over its base
        artifact with its own scanner: a job of a partition a tombstone
        hits only carries its tombstoned ids, whose rows its scan skips. The
        parent scans the delta segments alone, and every untouched
        partition takes the unchanged (byte-identical) path.
        """
        self._require_gather_pool()
        obs = self._obs()
        # One reuse, gather and overlap observation per served batch,
        # an empty one included, so obs totals keep matching run counts.
        obs.record_pool_reuse("gather")
        response = self._execute(queries, topk, nprobe, delta_view)
        for status in response.shard_statuses:
            if status.attempts:  # 0: the shard had no jobs in this batch
                obs.record_shard(
                    str(status.shard_id), status.latency_s, status.state
                )
        obs.record_gather(response.partial)
        obs.record_gather_overlap(response.gather_overlap_s)
        return response

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
    ) -> ShardedResponse:
        """Plan ``queries``, scan the plan in parts, merge as they land.

        With ``delta_view`` (a mutable engine's uncompacted overlay)
        every job scans its *base* partition on its shard with the
        configured scanner, which skips the rows its tombstones name
        (:func:`~repro.search._scan_runs`; a dirty cell's ``n_scanned``
        counts tombstoned rows too), so every cell reaching the merger
        is at most ``topk`` wide. The parent scans the delta segments.
        The merger's total (distance, id) order makes the result
        independent of fold order — and byte-identical to the
        delta-free path for queries whose probes miss every mutated
        partition. A part that failed or timed out lands without a
        grid: the response is flagged partial and covers every scan
        that did arrive.
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
        return ShardedResponse(
            results=results,
            partial=partial,
            shard_statuses=tuple(statuses),
            wall_time_s=wall_time_s,
            worker_stats=worker_stats,
            gather_overlap_s=overlap_s,
        )

    def _scan_parts(
        self, plan: BatchPlan, obs: Observability, start: float
    ) -> Iterator[tuple[ScanPart, bool]]:
        """Split ``plan`` by owning shard and start every sub-plan; yield
        each shard's :class:`ScanPart` as it lands.

        Each item pairs the part with whether other parts were still in
        flight when it landed (its fold is then overlap, not wall time);
        ``start`` is the pipeline's clock, what a deadline runs from.
        Submitting happens in the call, landing in the iteration, so the
        overlay fold in between overlaps the scan.
        """
        subplans = self.router.split(plan)
        futures: dict[Future[ScanPart], int] = {}
        if len(subplans) > 1 or self.deadline_s is not None:
            pool = self._require_gather_pool()
            # Scatter heaviest shard first: with the sub-plans sorted by
            # total job cost the slowest shard starts earliest, and every
            # lighter shard's merge folds while it is still scanning.
            order = sorted(
                subplans,
                key=lambda sid: (
                    -sum(job.cost for job in subplans[sid].jobs),
                    sid,
                ),
            )
            futures = {
                pool.submit(self._run_shard, sid, subplans[sid], obs): sid
                for sid in order
            }
        return self._land(subplans, futures, obs, start)

    def _land(
        self,
        subplans: dict[int, BatchPlan],
        futures: dict[Future[ScanPart], int],
        obs: Observability,
        start: float,
    ) -> Iterator[tuple[ScanPart, bool]]:
        """One part per shard: idle shards, then scans as they complete."""
        for shard in self.sharded.shards:
            if shard.shard_id not in subplans:
                yield ScanPart(ShardStatus(shard.shard_id, STATE_OK, 0, 0.0)), False
        if not futures:
            # A single part and no deadline: nothing to overlap, nothing
            # to abandon, so it runs here, on the caller's thread.
            for shard_id, subplan in subplans.items():
                yield self._run_shard(shard_id, subplan, obs), False
            return
        # Gather in completion order. A task still pending when the
        # deadline strikes is abandoned, NOT joined: it keeps running on
        # its pinned pool slot in the background (or dies with its
        # worker process) and its result is dropped.
        pending = set(futures)
        while pending:
            timeout: float | None = None
            if self.deadline_s is not None:
                timeout = max(
                    self.deadline_s - (time.perf_counter() - start), 0.0
                )
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                break  # deadline expired with shards still in flight
            for future in done:
                yield future.result(timeout=GATHER_TIMEOUT_S), bool(pending)
        for future in pending:
            future.cancel()
            shard_id = futures[future]
            yield ScanPart(
                ShardStatus(
                    shard_id,
                    STATE_TIMEOUT,
                    attempts=1,
                    latency_s=time.perf_counter() - start,
                    n_jobs=len(subplans[shard_id].jobs),
                    error=f"deadline of {self.deadline_s}s exceeded",
                )
            ), False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release every pinned pool (idempotent).

        Shuts down the per-shard process pools, abandons the scatter
        pool without joining stalled shard tasks, and deletes the
        temporary artifact directory if this executor created one. A
        closed executor rejects further :meth:`run` calls.
        """
        for executor in self._executors:
            executor.close()
        with self._lock:
            gather_pool, self._gather_pool = self._gather_pool, None
            tempdir, self._tempdir = self._tempdir, None
        if gather_pool is not None:
            gather_pool.shutdown(wait=False)
        if tempdir is not None:
            tempdir.cleanup()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed executor rejects runs."""
        with self._lock:
            return self._gather_pool is None

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _require_gather_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            pool = self._gather_pool
        if pool is None:
            raise ConfigurationError(
                "ScatterGatherExecutor is closed; create a new one"
            )
        return pool

    def _run_shard(
        self, shard_id: int, subplan: BatchPlan, obs: Observability
    ) -> ScanPart:
        """One scatter task: scan the shard's jobs, retrying transients.

        :class:`~repro.exceptions.ConfigurationError` propagates (caller
        bug); any other exception consumes one attempt and is retried
        after an exponentially growing backoff until the budget runs
        out, at which point the shard reports :data:`STATE_FAILED`.
        """
        t0 = time.perf_counter()
        attempts = 0

        def status(state: str, error: str | None = None) -> ShardStatus:
            latency_s = time.perf_counter() - t0
            return ShardStatus(
                shard_id, state, attempts, latency_s, len(subplan.jobs), error
            )

        while True:
            attempts += 1
            try:
                partials, worker_stats = self._executors[shard_id].scan_plan(
                    subplan, obs=obs
                )
                return ScanPart(status(STATE_OK), partials, worker_stats)
            except ConfigurationError:
                raise
            except Exception as exc:  # noqa: BLE001 - fault boundary
                if attempts > self.max_retries:
                    error = f"{type(exc).__name__}: {exc}"
                    return ScanPart(status(STATE_FAILED, error))
                obs.record_shard_retry(str(shard_id))
                time.sleep(self.backoff_s * (2 ** (attempts - 1)))
