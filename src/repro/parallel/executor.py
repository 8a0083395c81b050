"""How one shard scans a plan on worker *processes*.

Why processes: thread workers beyond one contend on the interpreter
lock between NumPy kernels, so adding them does not add throughput
(``docs/execution.md``, "Which executor when"), and the in-process
:class:`~repro.search.BatchExecutor` runs inline.
:class:`ProcessBatchExecutor` is the other way a shard of
:class:`~repro.shard.ScatterGatherExecutor` (``backend="process"``, the
one plan-to-results pipeline) scans its jobs: its :meth:`scan_plan`
fans them across a persistent ``ProcessPoolExecutor``:

* **Zero-copy attach** — workers never receive index data. Each worker
  process opens the saved artifact itself with
  ``load_index(path, mmap=True)``; the partition codes are read-only
  pages of the OS page cache, physically shared by every process that
  maps the file.
* **Warm per-process caches** — the pool is persistent (one executor
  serves many batches) and each worker warms its scanner on
  initialization (grouped layouts, centroid assignment), so steady-state
  batches pay no per-batch setup.
* **Compact traffic** — a worker receives one bundle per batch (the
  query block once, plus a partition id and the probing rows per job)
  and returns one packed :class:`~repro.scan.ScanBlock` for all of its
  jobs, which the parent hands to the merger as it is; nothing is
  pickled, unpickled or rebuilt per (query, partition) cell and
  parent↔worker bytes are independent of partition sizes.
* **Byte-identical results** — workers run the executors' own
  tables-and-scan loop (:func:`~repro.search._scan_runs`, jobs in runs)
  and the parent folds
  their partials through the same :class:`~repro.search.StreamingMerger`,
  so output is byte-for-byte equal to the sequential loop and the inline
  executor, for every worker count and completion order.

Observability: the parent records the scan span and counters
(per-process work is accounted in one :class:`~repro.obs.WorkerStats`
slot per worker process). Stage spans *inside* a worker (tables, scan)
are not traced — they happen in another process against that process's
default (disabled) observability.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.context import BaseContext
from pathlib import Path

import numpy as np

from ..core.sanitize import sanitizer_enabled
from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..obs import Observability, WorkerStats, get_observability
from ..scan.base import PartitionScanner
from ..search import (
    GATHER_TIMEOUT_S,
    BatchPlan,
    PackedPartials,
    PartitionJob,
    _record_scans,
)
from .worker import WorkerBundle, _init_worker, _probe_worker, _run_bundle

__all__ = ["ProcessBatchExecutor"]


def _default_context() -> BaseContext:
    """Prefer ``fork`` (no interpreter re-import, instant spawn) when
    the platform offers it; fall back to the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _available_cpus() -> int:
    """CPUs this process may run on (affinity-aware; containers often
    restrict it below ``os.cpu_count()``)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


class ProcessBatchExecutor:
    """Partition-major plan scans on worker *processes*.

    The same :meth:`scan_plan` as :class:`~repro.search.BatchExecutor`,
    byte-identical partials; workers attach to a saved index artifact by
    path. :class:`~repro.shard.ScatterGatherExecutor` builds one per
    shard (``backend="process"``); ``Engine(..., executor="process")``
    and ``Engine.load(path, executor="process", n_workers=N)`` are the
    way to search with them.

    The pool is created eagerly — all workers are spawned and
    initialized (index mmapped, scanner built and warmed) in the
    constructor, so the first batch already runs against warm workers.
    Call :meth:`close` (or use as a context manager) when done.

    Args:
        index_path: saved :func:`~repro.persistence.save_index` artifact
            (uncompressed, positional-only) that workers mmap.
        scanner: the Step-3 scanner (positional-only). Not sent to
            workers — reduced to a :class:`~repro.parallel.ScannerSpec`
            they rebuild from; must be one of the built-in scanner
            types.
        n_workers: requested worker processes. The actual pool size
            (:attr:`pool_size`) is clamped to the CPUs this process may
            run on: unlike threads, extra worker *processes* beyond the
            core count cannot overlap anything — they only add context
            switches and cache thrash — so oversubscription is never
            honored.
        mmap: how workers (and the parent, when it loads the index
            itself) attach to the artifact. True is the zero-copy point
            of this class; False forces eager per-process copies
            (measurement baseline).
        index: the already-loaded index of ``index_path`` (kept as
            :attr:`index`); when omitted the parent loads it itself.
        mp_context: explicit :mod:`multiprocessing` context; default
            prefers ``fork``.
        observability: explicit observability handle; default is the
            process-wide instance, resolved at each scan.
    """

    def __init__(
        self,
        index_path: str | Path,
        scanner: PartitionScanner,
        /,
        *,
        n_workers: int = 1,
        mmap: bool = True,
        index: IVFADCIndex | None = None,
        mp_context: BaseContext | None = None,
        observability: Observability | None = None,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        from ..persistence import load_index
        from .spec import ScannerSpec

        self.index_path = Path(index_path)
        # Validate the scanner in the parent so unsupported types fail
        # here, not as a pickled traceback out of a worker.
        self.spec = ScannerSpec.for_scanner(scanner)
        self.scanner = scanner
        self.n_workers = n_workers
        self.pool_size = min(n_workers, _available_cpus())
        self.mmap = mmap
        self.observability = observability
        self.index = (
            index if index is not None else load_index(self.index_path, mmap=mmap)
        )
        self._pid_slots: dict[int, int] = {}
        # Guards the pool handle and the pid-to-slot map against
        # concurrent close()/scan_plan() calls.
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.pool_size,
            mp_context=mp_context if mp_context is not None else _default_context(),
            initializer=_init_worker,
            initargs=(str(self.index_path), self.spec, mmap),
        )
        # Force every worker to spawn and run its initializer now;
        # ProcessPoolExecutor otherwise spawns lazily per submit and the
        # first batch would pay the attach cost inside its timing.
        probes = [self._pool.submit(_probe_worker) for _ in range(self.pool_size)]
        for probe in probes:
            probe.result(timeout=GATHER_TIMEOUT_S)
        (observability or get_observability()).record_pool_spinup("process")

    def scan_plan(
        self, plan: BatchPlan, *, obs: Observability | None = None
    ) -> tuple[PackedPartials, list[WorkerStats]]:
        """Execute ``plan.jobs`` on the worker pool; raw per-probe partials."""
        if obs is None:
            obs = self.observability or get_observability()
        pool = self._require_pool()
        # The pool was spawned (and its workers attached/warmed) at
        # construction; every batch after that runs on the warm pool.
        obs.record_pool_reuse("process")
        worker_stats = [WorkerStats(worker_id=i) for i in range(self.pool_size)]
        bundles = self._bundle_jobs(plan)
        # Forward the parent's sanitizer gate with the batch: workers
        # re-apply it before scanning, so REPRO_SANITIZE set after the
        # pool spawned still reaches every worker process.
        sanitize = sanitizer_enabled()
        with obs.span("scan"):
            futures = [
                pool.submit(
                    _run_bundle,
                    WorkerBundle(
                        queries=plan.queries,
                        partition_ids=tuple(job.partition_id for job in jobs),
                        query_rows=np.concatenate(
                            [job.query_rows for job in jobs]
                        ),
                        job_sizes=tuple(len(job.query_rows) for job in jobs),
                        topk=plan.topk,
                        tombstones=tuple(job.tombstones for job in jobs),
                    ),
                    sanitize,
                )
                for jobs in bundles
            ]
            blocks = []
            for future, jobs in zip(futures, bundles):
                pid, cells, busy_s = future.result(timeout=GATHER_TIMEOUT_S)
                blocks.append(cells)
                _record_scans(
                    obs,
                    self.scanner.name,
                    worker_stats[self._slot_for(pid)],
                    cells,
                    sum(busy_s),
                    len(jobs),
                )
        in_order = [job for jobs in bundles for job in jobs]
        return PackedPartials.of_jobs(plan, in_order, blocks), worker_stats

    def _bundle_jobs(self, plan: BatchPlan) -> list[list[PartitionJob]]:
        """Pack the plan's jobs into at most :attr:`pool_size`
        cost-balanced bundles (one IPC round trip each).

        Jobs arrive largest-first from the planner; assigning each to
        the currently lightest bundle is LPT scheduling — near-optimal
        makespan — while keeping queue traffic per batch bounded by the
        worker count instead of the partition count.
        """
        n_bundles = min(self.pool_size, len(plan.jobs))
        loads = [0] * n_bundles
        members: list[list[PartitionJob]] = [[] for _ in range(n_bundles)]
        for job in plan.jobs:
            lightest = min(range(n_bundles), key=loads.__getitem__)
            members[lightest].append(job)
            loads[lightest] += job.cost
        return members

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        # Swap the shared reference under the lock, then block on the
        # shutdown outside it (R7: no blocking under a lock).
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessBatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the worker processes seen so far, in slot order.

        Stable across batches while the pool is pinned — the pool-pinning
        tests assert two runs report the same pids (no respawn).
        """
        with self._lock:
            return tuple(self._pid_slots)

    # -- internals ----------------------------------------------------------

    def _require_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            raise ConfigurationError(
                "ProcessBatchExecutor is closed; create a new one"
            )
        return self._pool

    def _slot_for(self, pid: int) -> int:
        """Stable worker-stat slot for a worker process id.

        Slots are assigned in order of first sight. The modulo guards
        the (pool-restarted-a-worker) case where more distinct pids than
        slots appear over the executor's lifetime.
        """
        with self._lock:
            slot = self._pid_slots.get(pid)
            if slot is None:
                slot = len(self._pid_slots) % self.pool_size
                self._pid_slots[pid] = slot
        return slot
