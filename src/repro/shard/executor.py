"""Scatter-gather execution across the shards of a :class:`ShardedIndex`.

The query path of a sharded deployment:

1. **Route** the whole batch once on the shared coarse codebook and
   build the global partition-major plan (the same
   :class:`~repro.search.BatchPlanner` the single-index engine uses).
2. **Scatter**: split the plan's partition jobs by owning shard —
   heaviest shard first, so the longest sub-plan starts earliest — and
   run each shard's job subset on that shard's own executor — a
   :class:`~repro.parallel.ProcessBatchExecutor` whose workers mmap the
   shard's saved artifact (``backend="process"``, the default) or a
   :class:`~repro.search.BatchExecutor` (``backend="thread"``, the
   GIL-bound fallback). Either way each shard runs the partition-major
   engine internally, with its own worker pool and its own scanner
   instance. **Every pool is pinned across ``run()`` calls**: shard
   pools spawn once in the constructor (process workers attach by mmap
   path exactly once) and the gather pool below is likewise built once
   — steady-state batches pay zero spin-up.
3. **Gather and merge, streamed**: shard partials are consumed in
   completion order and each is folded into a running per-query
   :class:`~repro.search.StreamingMerger` the moment it lands, so merge
   work overlaps the shards still scanning instead of serializing after
   a barrier. The fold order cannot change the answer — the merger
   applies the same total (distance, id) order as the barrier merge —
   and the deadline/retry policy is unchanged: a shard that raises is
   retried with exponential backoff, a shard still running at
   ``deadline_s`` from scatter start is abandoned.

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
from dataclasses import dataclass, field
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, cast

import numpy as np

if TYPE_CHECKING:
    from ..delta.store import DeltaView

from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..obs import Observability, get_observability
from ..scan.base import PartitionScanner, ScanResult
from ..search import (
    GATHER_TIMEOUT_S,
    BatchExecutor,
    BatchPlan,
    BatchPlanner,
    PlanExecutor,
    SearchResult,
    StreamingMerger,
    _fold_overlay,
    _strip_masked_jobs,
)
from ..simd.counters import WorkerStats, combine_worker_stats
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
        return {
            "shard_id": self.shard_id,
            "state": self.state,
            "attempts": self.attempts,
            "latency_s": self.latency_s,
            "n_jobs": self.n_jobs,
            "error": self.error,
        }


@dataclass
class ShardedResponse:
    """Gathered outcome of one sharded query batch.

    Attributes:
        results: one merged :class:`SearchResult` per query. With
            ``partial=True`` the results only cover scans from healthy
            shards (the ``probed`` tuple still lists every *intended*
            partition).
        partial: True when at least one shard timed out or failed.
        shard_statuses: per-shard outcome, indexed by shard id.
        wall_time_s: end-to-end scatter-gather time (plan to merge).
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


class ShardRouter:
    """Builds the global plan and its per-shard sub-plans.

    The global plan is produced by the standard
    :class:`~repro.search.BatchPlanner` over the sharded index's routing
    view, so probe lists (and therefore results) are bit-identical to
    the unsharded engine. Each sub-plan shares the global ``queries`` /
    ``probed`` arrays and keeps only the jobs whose partition the shard
    owns — query rows and probe positions stay in global coordinates,
    which is what lets the gathered partials drop straight into the
    global merge grid.
    """

    def __init__(self, sharded: ShardedIndex, /):
        self.sharded = sharded
        # The planner only touches route_batch and partition sizes, both
        # of which ShardedIndex serves with global semantics.
        self._planner = BatchPlanner(cast(IVFADCIndex, sharded))

    def plan(
        self, queries: np.ndarray, topk: int = 10, nprobe: int = 1
    ) -> tuple[BatchPlan, dict[int, BatchPlan]]:
        """Return ``(global_plan, {shard_id: sub_plan})``.

        Shards whose partitions are not probed by any query of the batch
        get no sub-plan (and no scatter task).
        """
        plan = self._planner.plan(queries, topk=topk, nprobe=nprobe)
        subplans: dict[int, BatchPlan] = {}
        for shard in self.sharded.shards:
            jobs = tuple(
                job
                for job in plan.jobs
                if self.sharded.owner_of(job.partition_id) == shard.shard_id
            )
            if jobs:
                subplans[shard.shard_id] = BatchPlan(
                    queries=plan.queries,
                    topk=plan.topk,
                    nprobe=plan.nprobe,
                    probed=plan.probed,
                    jobs=jobs,
                )
        return plan, subplans


@dataclass(frozen=True)
class _ShardOutcome:
    """What one scatter task reports back to the gatherer."""

    state: str
    partials: list[list[ScanResult | None]] | None
    worker_stats: list[WorkerStats]
    attempts: int
    latency_s: float
    error: str | None = None


class ScatterGatherExecutor:
    """Fans query batches across shards; gathers with graceful degradation.

    Every pool this executor touches is **pinned**: the per-shard
    backend executors (process pools whose workers attach to the shard
    artifacts by mmap path, or thread-fallback batch executors) and the
    scatter thread pool all spawn once here and serve every ``run()``
    until :meth:`close`. A shard task abandoned at the deadline keeps
    its scatter slot busy until it finishes in the background — the pool
    is sized one thread per shard so a straggler does not starve the
    other shards of the next batch.

    Args:
        sharded: the sharded layout (positional-only).
        scanners: one Step-3 scanner per shard (a sequence of length
            ``n_shards``), or a zero-argument factory called once per
            shard. Per-shard instances matter: scanner caches
            (:meth:`~repro.core.PQFastScanner.prepared`) are not locked
            for cross-thread mutation, and shards scan concurrently.
        n_workers: workers *per shard* for the shard-internal
            partition-major engine (processes for ``backend="process"``,
            threads for ``backend="thread"``).
        backend: ``"process"`` (default) runs each shard on a
            :class:`~repro.parallel.ProcessBatchExecutor` whose worker
            processes mmap the shard's saved artifact — the only backend
            whose throughput grows with cores; ``"thread"`` runs it on a
            GIL-bound :class:`~repro.search.BatchExecutor` (no artifact
            or extra processes needed — custom scanner types, tests).
            Results are byte-identical either way.
        artifact_dir: for ``backend="process"``, the directory holding a
            :func:`~repro.persistence.save_sharded_index` layout for
            *this* sharded index (workers attach to its per-shard
            files). Default: the layout's own
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
        # Guards the temporary-artifact handle against concurrent
        # close() calls.
        self._lock = threading.Lock()
        self._tempdir: tempfile.TemporaryDirectory | None = None
        self._executors: tuple[PlanExecutor, ...]
        if backend == "process":
            from ..parallel import ProcessBatchExecutor
            from ..persistence import _shard_filename, save_sharded_index

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
            directory = Path(artifact_dir)
            self._executors = tuple(
                ProcessBatchExecutor(
                    directory / _shard_filename(shard.shard_id),
                    scanner,
                    n_workers=n_workers,
                    mmap=mmap,
                    index=shard.index,
                    mp_context=mp_context,
                    observability=observability,
                )
                for shard, scanner in zip(sharded.shards, self.scanners)
            )
        else:
            # gil_warning=False: per-shard thread counts are a deliberate
            # engine knob here, not a misread of the process backend —
            # the spurious RuntimeWarning would fire once per shard.
            self._executors = tuple(
                BatchExecutor(
                    shard.index,
                    scanner,
                    n_workers=n_workers,
                    observability=observability,
                    gil_warning=False,
                )
                for shard, scanner in zip(sharded.shards, self.scanners)
            )
        # The pinned scatter pool: one thread per shard, spawned once and
        # reused by every run() (no per-batch pool spin-up).
        self._gather_pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=max(sharded.n_shards, 1),
            thread_name_prefix="repro-shard",
        )
        init_obs = (
            observability if observability is not None else get_observability()
        )
        init_obs.record_pool_spinup("gather")

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
        scatter pool, partials are consumed in completion order, and
        each is folded into the running :class:`StreamingMerger` while
        the remaining shards are still scanning — the response's
        ``gather_overlap_s`` reports how much merge time that hid. The
        deadline, retry and partial-result semantics are identical to
        the barrier gather this replaces.

        With ``delta_view`` (a mutable engine's uncompacted overlay),
        jobs for tombstone-masked partitions are lifted out of the shard
        sub-plans and scanned parent-side against the view's filtered
        replacements, and delta segments are scanned parent-side as
        extra candidates — while the shards still scan every untouched
        partition through the unchanged (byte-identical) path.
        """
        obs = (
            self.observability
            if self.observability is not None
            else get_observability()
        )
        pool = self._require_gather_pool()
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        start = time.perf_counter()
        obs.record_pool_reuse("gather")
        if len(queries) == 0:
            # An empty batch is still a served batch: record the same
            # metric families as the non-empty path (reuse above, batch,
            # gather, overlap) so obs totals keep matching run counts.
            wall_time_s = time.perf_counter() - start
            obs.record_batch(0, wall_time_s, [])
            obs.record_gather(False)
            obs.record_gather_overlap(0.0)
            return ShardedResponse(
                results=[],
                partial=False,
                shard_statuses=tuple(
                    ShardStatus(s.shard_id, STATE_OK, 0, 0.0)
                    for s in self.sharded.shards
                ),
                wall_time_s=wall_time_s,
            )
        with obs.span("route"):
            plan, subplans = self.router.plan(queries, topk=topk, nprobe=nprobe)
        if delta_view is not None and delta_view.clean:
            delta_view = None
        if delta_view is not None and delta_view.masked:
            # Masked partitions cannot be scanned shard-side (workers see
            # the un-filtered base artifact); lift their jobs out. A
            # sub-plan emptied by the strip loses its scatter task and
            # its shard reports the ordinary no-jobs OK status.
            subplans = {
                shard_id: stripped
                for shard_id, subplan in subplans.items()
                if (stripped := _strip_masked_jobs(subplan, delta_view.masked)).jobs
            }

        merger = StreamingMerger(plan)
        overlap_s = 0.0
        statuses: dict[int, ShardStatus] = {
            shard.shard_id: ShardStatus(shard.shard_id, STATE_OK, 0, 0.0)
            for shard in self.sharded.shards
            if shard.shard_id not in subplans
        }
        stats_per_shard: list[list[WorkerStats]] = []

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
        futures: dict[Future[_ShardOutcome], int] = {
            pool.submit(self._run_shard, sid, subplans[sid], obs): sid
            for sid in order
        }

        if delta_view is not None:
            # Parent-side overlay scans run while the shards are still
            # scanning: filtered replacements cover the cells their
            # stripped jobs left open, segments add extra candidates.
            _fold_overlay(merger, self.sharded, delta_view, obs)

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
                shard_id = futures[future]
                n_jobs = len(subplans[shard_id].jobs)
                outcome = future.result(timeout=GATHER_TIMEOUT_S)
                statuses[shard_id] = ShardStatus(
                    shard_id,
                    outcome.state,
                    attempts=outcome.attempts,
                    latency_s=outcome.latency_s,
                    n_jobs=n_jobs,
                    error=outcome.error,
                )
                obs.record_shard(
                    str(shard_id), outcome.latency_s, outcome.state
                )
                if outcome.state == STATE_OK and outcome.partials is not None:
                    in_flight = bool(pending)
                    folded_before = merger.merge_time_s
                    with obs.span("merge"):
                        merger.fold(outcome.partials)
                    if in_flight:
                        overlap_s += merger.merge_time_s - folded_before
                    stats_per_shard.append(outcome.worker_stats)
        for future in pending:
            future.cancel()
            shard_id = futures[future]
            latency = time.perf_counter() - start
            statuses[shard_id] = ShardStatus(
                shard_id,
                STATE_TIMEOUT,
                attempts=1,
                latency_s=latency,
                n_jobs=len(subplans[shard_id].jobs),
                error=f"deadline of {self.deadline_s}s exceeded",
            )
            obs.record_shard(str(shard_id), latency, STATE_TIMEOUT)

        partial = any(not status.ok for status in statuses.values())
        with obs.span("merge"):
            results = merger.results(require_complete=not partial)
        wall_time_s = time.perf_counter() - start
        worker_stats = combine_worker_stats(stats_per_shard)
        obs.record_batch(plan.n_queries, wall_time_s, worker_stats)
        obs.record_gather(partial)
        obs.record_gather_overlap(overlap_s)
        return ShardedResponse(
            results=results,
            partial=partial,
            shard_statuses=tuple(
                statuses[shard_id] for shard_id in sorted(statuses)
            ),
            wall_time_s=wall_time_s,
            worker_stats=worker_stats,
            gather_overlap_s=overlap_s,
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release every pinned pool (idempotent).

        Shuts down the per-shard executors (process pools or thread
        pools), abandons the scatter pool without joining stalled shard
        tasks, and deletes the temporary artifact directory if this
        executor created one. A closed executor rejects further
        :meth:`run` calls.
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

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed executor rejects runs."""
        with self._lock:
            return self._gather_pool is None

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
    ) -> _ShardOutcome:
        """One scatter task: scan the shard's jobs, retrying transients.

        :class:`~repro.exceptions.ConfigurationError` propagates (caller
        bug); any other exception consumes one attempt and is retried
        after an exponentially growing backoff until the budget runs
        out, at which point the shard reports :data:`STATE_FAILED`.
        """
        t0 = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                shard_partials, worker_stats = self._executors[
                    shard_id
                ].scan_plan(subplan, obs=obs)
                return _ShardOutcome(
                    state=STATE_OK,
                    partials=shard_partials,
                    worker_stats=worker_stats,
                    attempts=attempts,
                    latency_s=time.perf_counter() - t0,
                )
            except ConfigurationError:
                raise
            except Exception as exc:  # noqa: BLE001 - fault boundary
                if attempts > self.max_retries:
                    return _ShardOutcome(
                        state=STATE_FAILED,
                        partials=None,
                        worker_stats=[],
                        attempts=attempts,
                        latency_s=time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                obs.record_shard_retry(str(shard_id))
                time.sleep(self.backoff_s * (2 ** (attempts - 1)))
