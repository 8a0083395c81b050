"""How one shard scans a plan on worker *processes*.

Why processes: thread workers beyond one contend on the interpreter
lock between NumPy kernels, so adding them does not add throughput
(``docs/execution.md``, "Which executor when"), and the in-process
:class:`~repro.search.BatchExecutor` runs inline.
:class:`ProcessBatchExecutor` is the other way a shard of
:class:`~repro.shard.ScatterGatherExecutor` (``backend="process"``, the
one plan-to-results pipeline) scans its jobs: it starts its worker
processes itself and keeps one duplex pipe to each.

* **Pinned worker pipes** — a bundle goes from the caller's thread down
  a worker's pipe and its reply comes back up the same pipe: no gather
  thread, pool manager thread or queue feeder thread hands it on. The
  scatter-gather executor sends every shard's bundles this way and
  waits on all of their pipes at once (:class:`PlanScan`); this
  executor's own :meth:`scan_plan` is the same for one shard.
* **Zero-copy attach** — workers never receive index data. Each worker
  process opens the saved artifact its caller names, always with
  ``load_index(path, mmap=True)``; the partition codes are
  read-only pages of the OS page cache, physically shared by every
  process that maps the file. The parent passes the index it already
  holds for that file (``index=``) and never loads it again.
* **Warm per-process caches** — workers are persistent (one executor
  serves many batches) and each warms its scanner when it starts
  (grouped layouts, centroid assignment), so steady-state batches pay
  no per-batch setup.
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
* **Faults** — every request carries a sequence number, so a reply to a
  batch abandoned at its deadline is dropped when it lands late. A
  worker that dies (end of file on its pipe) is started again in its
  slot, and the bundle it held is resent under the caller's retry
  policy. One batch at a time holds an executor's workers
  (:meth:`ProcessBatchExecutor.acquire`), so concurrent callers never
  read each other's replies.

Observability: the parent records the scan span and counters
(per-process work is accounted in one :class:`~repro.obs.WorkerStats`
slot per worker process). Stage spans *inside* a worker (tables, scan)
are not traced — they happen in another process, against that
process's own default, which the parent never reads.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from multiprocessing import util
from multiprocessing.connection import Connection, wait
from multiprocessing.context import BaseContext
from pathlib import Path

import numpy as np

from ..core.sanitize import sanitizer_enabled
from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..obs import WorkerStats, get_observability
from ..scan.base import PartitionScanner, ScanBlock
from ..search import (
    GATHER_TIMEOUT_S,
    BatchPlan,
    PackedPartials,
    PartitionJob,
    _record_scans,
)
from .spec import ScannerSpec
from .worker import READY_SEQ, WorkerBundle, _serve

__all__ = ["PlanScan", "ProcessBatchExecutor", "WorkerDied"]

#: How long :meth:`ProcessBatchExecutor.close` lets a worker exit on
#: its own (end of file on its pipe) before terminating it.
_STOP_TIMEOUT_S = 2.0


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


class WorkerDied(RuntimeError):
    """A worker process exited while it held a bundle (or before one
    reached it); its slot has been started again."""


class _Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(
        self, context: BaseContext, slot: int, index_path: Path, spec: ScannerSpec
    ) -> None:
        parent_end, child_end = context.Pipe()
        self.slot = slot
        self.conn: Connection = parent_end
        self.process = context.Process(
            target=_serve,
            args=(child_end, str(index_path), spec),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        # Workers forked later must not hold this end open: a worker
        # sees its parent go as end of file only when no process does.
        util.register_after_fork(parent_end, Connection.close)
        self.process.start()
        child_end.close()

    def await_ready(self, timeout: float) -> None:
        """Block until the worker has attached; re-raise what stopped it."""
        if not self.conn.poll(timeout):
            raise TimeoutError(
                f"worker {self.slot} did not attach within {timeout}s"
            )
        try:
            _, ok, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDied(
                f"worker {self.slot} exited before it attached "
                f"(exit code {self.process.exitcode})"
            ) from exc
        if not ok:
            raise payload

    def stop(self) -> None:
        """Close the pipe (the worker's end-of-file signal to exit), give
        the worker a moment, then terminate it."""
        self.conn.close()
        self.process.join(_STOP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_STOP_TIMEOUT_S)
        if self.process.is_alive():  # pragma: no cover - ignored SIGTERM
            self.process.kill()
            self.process.join()


class ProcessBatchExecutor:
    """Partition-major plan scans on worker *processes*.

    The same :meth:`scan_plan` as :class:`~repro.search.BatchExecutor`,
    byte-identical partials; workers attach to a saved index artifact by
    path. :class:`~repro.shard.ScatterGatherExecutor` builds one per
    shard (``backend="process"``); ``Engine.build(..., executor="process")``
    and ``Engine.load(path, executor="process", n_workers=N)`` are the
    way to search with them.

    The workers start eagerly under ``fork`` where the platform has
    it — all are started and initialized (index mmapped, scanner built
    and warmed) in the constructor, which waits for each one's ready
    handshake, so the first batch already runs against warm workers.
    Call :meth:`close` (or use as a context manager) when done.

    Args:
        index_path: saved :func:`~repro.persistence.save_index` artifact
            (positional-only) that workers mmap.
        scanner: the Step-3 scanner (positional-only). Not sent to
            workers — reduced to a :class:`~repro.parallel.ScannerSpec`
            they rebuild from; must be one of the built-in scanner
            types.
        n_workers: requested worker processes. The actual count
            (:attr:`pool_size`) is clamped to the CPUs this process may
            run on: unlike threads, extra worker *processes* beyond the
            core count cannot overlap anything — they only add context
            switches and cache thrash — so oversubscription is never
            honored.
        index: the parent's already-loaded index of ``index_path`` (kept
            as :attr:`index`).
    """

    def __init__(
        self,
        index_path: str | Path,
        scanner: PartitionScanner,
        /,
        *,
        index: IVFADCIndex,
        n_workers: int = 1,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.index_path = Path(index_path)
        # Validate the scanner in the parent so unsupported types fail
        # here, not as a pickled traceback out of a worker.
        self.spec = ScannerSpec.for_scanner(scanner)
        self.scanner = scanner
        self.n_workers = n_workers
        self.pool_size = min(n_workers, _available_cpus())
        self.index = index
        self._context = _default_context()
        self._seq = itertools.count(READY_SEQ + 1)
        # Guards the worker list, the closed flag and which batch holds
        # the workers; its waits hand them from one batch to the next.
        self._lock = threading.Condition()
        self._closed = False
        self._held = False
        self._workers: list[_Worker] = []
        try:
            # Start every worker before waiting on any: they attach
            # side by side.
            for slot in range(self.pool_size):
                self._workers.append(self._start(slot))
            for worker in self._workers:
                worker.await_ready(GATHER_TIMEOUT_S)
        except BaseException:
            for worker in self._workers:
                worker.stop()
            raise
        get_observability().record_pool_spinup("process")

    def scan_plan(self, plan: BatchPlan) -> tuple[PackedPartials, list[WorkerStats]]:
        """Execute ``plan.jobs`` on the workers; raw per-probe partials.

        A worker's exception is raised here; a worker that died is
        started again first (and the raise is :class:`WorkerDied`).
        """
        if not self.acquire(GATHER_TIMEOUT_S):
            raise TimeoutError(
                f"workers still held by another batch after {GATHER_TIMEOUT_S}s"
            )
        try:
            scan = PlanScan(self, plan)
            with get_observability().span("scan"):
                fault = scan.send()
                while fault is None and not scan.done:
                    ready = wait(list(scan.waiting), GATHER_TIMEOUT_S)
                    if not ready:
                        raise TimeoutError(
                            f"no worker replied within {GATHER_TIMEOUT_S}s"
                        )
                    for conn in ready:
                        fault = fault or scan.receive(conn)
            if fault is not None:
                raise fault
            return scan.partials()
        finally:
            self.release()

    def _bundle_jobs(self, plan: BatchPlan) -> list[list[PartitionJob]]:
        """Pack the plan's jobs into at most :attr:`pool_size`
        cost-balanced bundles (one pipe round trip each).

        Jobs arrive largest-first from the planner; assigning each to
        the currently lightest bundle is LPT scheduling — near-optimal
        makespan — while keeping pipe traffic per batch bounded by the
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

    # -- one batch at a time ----------------------------------------------------

    def acquire(self, timeout: float) -> bool:
        """Hold every worker for one batch; ``False`` if another batch
        still held them after ``timeout`` seconds.

        Raises :class:`~repro.exceptions.ConfigurationError` once closed.
        Callers that hold several executors take them in one fixed
        order (shard id), so two batches never wait on each other.
        """
        with self._lock:
            free = self._lock.wait_for(
                lambda: self._closed or not self._held, timeout
            )
            self._require_open()
            if free:
                self._held = True
        return free

    def release(self) -> None:
        """Hand the workers to the next batch (or to :meth:`close`)."""
        with self._lock:
            self._held = False
            self._lock.notify_all()

    def _restart(self, worker: _Worker) -> _Worker:
        """Start ``worker``'s slot again, for the batch that holds it.

        The new process attaches while the caller goes on: its ready
        handshake lands on the pipe ahead of its first reply and is
        dropped by its ``seq``.
        """
        worker.stop()
        with self._lock:
            self._require_open()
            self._workers[worker.slot] = self._start(worker.slot)
            return self._workers[worker.slot]

    def _next_seq(self) -> int:
        """A fresh request number (never :data:`READY_SEQ`)."""
        return next(self._seq)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the workers (idempotent).

        A batch in flight keeps them until it ends (at most
        ``GATHER_TIMEOUT_S``); later batches are refused.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.wait_for(lambda: not self._held, GATHER_TIMEOUT_S)
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "ProcessBatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def workers(self) -> tuple[_Worker, ...]:
        """The workers, in slot order (empty once closed)."""
        with self._lock:
            return tuple(self._workers)

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the worker processes, in slot order.

        Stable across batches while no worker dies — the pinning tests
        assert two runs report the same pids (no respawn).
        """
        return tuple(worker.process.pid or 0 for worker in self.workers)

    # -- internals ----------------------------------------------------------

    def _start(self, slot: int) -> _Worker:
        return _Worker(self._context, slot, self.index_path, self.spec)

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "ProcessBatchExecutor is closed; create a new one"
            )


class PlanScan:
    """One plan's bundles on a held :class:`ProcessBatchExecutor`: what
    was sent to which worker, and what came back.

    The caller drives it: :meth:`send`, then :meth:`receive` each of
    :attr:`waiting`'s connections that
    ``multiprocessing.connection.wait`` reports ready, until
    :attr:`done`; a fault (a worker's exception, or
    :class:`WorkerDied`) ends the attempt, and :meth:`send` again
    resends every bundle still missing under fresh request numbers.
    """

    def __init__(self, executor: ProcessBatchExecutor, plan: BatchPlan) -> None:
        self.executor = executor
        self.plan = plan
        self.bundles = executor._bundle_jobs(plan)
        self.payloads = [
            WorkerBundle(
                queries=plan.queries,
                partition_ids=tuple(job.partition_id for job in jobs),
                query_rows=np.concatenate([job.query_rows for job in jobs]),
                job_sizes=tuple(len(job.query_rows) for job in jobs),
                topk=plan.topk,
                tombstones=tuple(job.tombstones for job in jobs),
            )
            for jobs in self.bundles
        ]
        self.workers = list(executor.workers[: len(self.bundles)])
        self.seqs = [READY_SEQ] * len(self.bundles)
        self.blocks: list[ScanBlock | None] = [None] * len(self.bundles)
        self.worker_stats = [
            WorkerStats(worker_id=i) for i in range(executor.pool_size)
        ]
        # Forward the parent's sanitizer gate with the batch: workers
        # re-apply it before scanning, so REPRO_SANITIZE set after they
        # started still reaches every worker process.
        self.sanitize = sanitizer_enabled()
        self.waiting: dict[Connection, int] = {}
        get_observability().record_pool_reuse("process")

    @property
    def done(self) -> bool:
        return all(block is not None for block in self.blocks)

    def send(self) -> BaseException | None:
        """Send every bundle that has not landed; the first fault, if a
        worker could not take one."""
        self.waiting = {}
        for i, block in enumerate(self.blocks):
            if block is not None:
                continue
            self.seqs[i] = self.executor._next_seq()
            worker = self.workers[i]
            try:
                worker.conn.send((self.seqs[i], self.payloads[i], self.sanitize))
            except OSError as exc:
                return self._fault(self._died(i, exc))
            self.waiting[worker.conn] = i
        return None

    def receive(self, conn: Connection) -> BaseException | None:
        """Read one message off a ready connection of :attr:`waiting`:
        ``None`` if it landed a bundle or was a stale reply, the fault
        otherwise."""
        i = self.waiting.get(conn)
        if i is None:
            return None  # the attempt it belonged to already failed
        try:
            seq, ok, payload = conn.recv()
        except (EOFError, OSError) as exc:
            return self._fault(self._died(i, exc))
        if seq != self.seqs[i]:
            return None  # a late reply, or a restarted worker's handshake
        if not ok:
            return self._fault(payload)
        _, cells, busy_s = payload
        self.blocks[i] = cells
        del self.waiting[conn]
        _record_scans(
            get_observability(),
            self.executor.scanner.name,
            self.worker_stats[self.workers[i].slot],
            cells,
            sum(busy_s),
            len(self.bundles[i]),
        )
        return None

    def partials(self) -> tuple[PackedPartials, list[WorkerStats]]:
        """The landed plan, packed as every ``scan_plan`` returns it."""
        in_order = [job for jobs in self.bundles for job in jobs]
        blocks = [block for block in self.blocks if block is not None]
        return PackedPartials.of_jobs(self.plan, in_order, blocks), self.worker_stats

    def _fault(self, exc: BaseException) -> BaseException:
        """End the attempt: nothing more is read until :meth:`send`."""
        self.waiting = {}
        return exc

    def _died(self, i: int, exc: BaseException) -> WorkerDied:
        dead = self.workers[i]
        self.workers[i] = self.executor._restart(dead)
        return WorkerDied(
            f"worker {dead.slot} (pid {dead.process.pid}) exited "
            f"with code {dead.process.exitcode}: {type(exc).__name__}"
        )

