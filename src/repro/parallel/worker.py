"""Worker-process side of the process executor.

Each worker process runs :func:`_serve` on its end of one duplex pipe
to the parent. It initializes exactly once (:func:`_init_worker`): it
attaches to the index artifact **by path** with
``load_index(..., mmap=True)`` — the partition codes stay in the OS page
cache, shared read-only with the parent and every sibling worker, so no
code bytes are ever pickled — and rebuilds its scanner from the
picklable :class:`~repro.parallel.ScannerSpec`. Fast scanners are warmed
immediately (grouped layouts built, assignment learned), then the
worker sends a ready handshake and loops: receive
``(seq, WorkerBundle, sanitize)``, reply ``(seq, ok, reply-or-exception)``,
one bundle at a time, until the parent closes its end.

Traffic is deliberately compact and per bundle, not per cell: a
:class:`WorkerBundle` carries the batch's query block once plus, per
job, a partition id, the rows that probe it and the ids of its
tombstoned rows; what comes back is one :class:`~repro.scan.ScanBlock`
for the whole bundle (three arrays, ``topk`` wide), the worker's pid
and the busy time of each run of jobs it scanned. Parent ↔ worker
traffic is therefore independent of partition sizes.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ..core.sanitize import ENV_VAR as _SANITIZE_ENV_VAR
from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..persistence import load_index
from ..scan.base import PartitionScanner, ScanBlock
from ..search import _scan_runs
from .spec import ScannerSpec

__all__ = ["WorkerBundle"]


@dataclass(frozen=True)
class WorkerBundle:
    """The partition-scan jobs one worker runs for one batch.

    Attributes:
        queries: the batch's whole ``(n_queries, d)`` block, shipped once
            however many of the bundle's jobs a query takes part in.
        partition_ids: partition of each job (resolved against the
            worker's own mmapped index).
        query_rows: rows of ``queries`` probing each job's partition,
            the jobs' runs end to end; ``job_sizes`` are their lengths.
        topk: neighbors requested per query.
        tombstones: each job's :attr:`~repro.search.PartitionJob.tombstones`.
    """

    queries: np.ndarray
    partition_ids: tuple[int, ...]
    query_rows: np.ndarray
    job_sizes: tuple[int, ...]
    topk: int
    tombstones: tuple[np.ndarray, ...]


#: The ``seq`` of a worker's ready handshake; bundles count from 1.
READY_SEQ = 0

# Per-process state, populated by _init_worker. A module dict, so that
# _run_bundle reaches it by name (and tests can stand it in).
_STATE: dict[str, object] = {}


def _init_worker(index_path: str, spec: ScannerSpec) -> None:
    """Attach this process to the index artifact and build its scanner."""
    index = load_index(index_path, mmap=True)
    scanner = spec.build(index.pq)
    scanner.warm(index.partitions)
    _STATE["index"] = index
    _STATE["scanner"] = scanner


def _serve(conn: Connection, index_path: str, spec: ScannerSpec) -> None:
    """A worker process's whole life: attach, say ready, then one reply
    per bundle received, until the parent's end of the pipe closes.

    The handshake is ``(READY_SEQ, True, pid)``, or ``(READY_SEQ, False,
    exception)`` when attaching failed (the process then exits). A
    bundle's reply is ``(seq, True, (pid, cells, busy_s))`` or ``(seq,
    False, exception)``: a scan that raises costs the parent one retry,
    not the worker.
    """
    # Ctrl-C reaches the whole process group: the parent decides when
    # its workers stop (by closing its end of the pipe).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _init_worker(index_path, spec)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        _reply(conn, READY_SEQ, False, exc)
        return
    _reply(conn, READY_SEQ, True, os.getpid())
    try:
        while True:
            seq, bundle, sanitize = conn.recv()
            try:
                reply = (seq, True, _run_bundle(bundle, sanitize))
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                reply = (seq, False, exc)
            _reply(conn, *reply)
    except (EOFError, OSError):
        return  # the parent closed its end (or is gone)


def _reply(conn: Connection, seq: int, ok: bool, payload: object) -> None:
    """Send one reply. An exception that cannot be pickled goes back as
    a ``RuntimeError`` naming it."""
    try:
        message = ForkingPickler.dumps((seq, ok, payload))
    except Exception:  # noqa: BLE001 - an unpicklable exception
        message = ForkingPickler.dumps(
            (seq, False, RuntimeError(f"{type(payload).__name__}: {payload}"))
        )
    conn.send_bytes(message)


def _run_bundle(
    bundle: WorkerBundle, sanitize: bool = False
) -> tuple[int, ScanBlock, list[float]]:
    """Run a bundle of partition jobs in one round trip.

    The parent packs a whole batch's jobs into at most ``n_workers``
    bundles (balanced by job cost), one per worker, so pipe traffic is a
    per-batch constant instead of scaling with the partition count.
    Returns ``(pid, cells, busy_s)``: the worker's process id, the
    jobs' scans end to end in one block, and the wall time spent on each run of jobs
    (:func:`~repro.search._scan_runs`, the executors' own loop).

    ``sanitize`` mirrors the parent's ``REPRO_SANITIZE`` gate at call
    time: worker processes may have been started before the gate was
    set (or with a different environment entirely), and the runtime
    sanitizer re-reads the gate per scan — so the parent's current
    setting is forwarded with every bundle rather than being frozen at
    worker start.
    """
    if sanitize:
        os.environ[_SANITIZE_ENV_VAR] = "1"
    else:
        os.environ.pop(_SANITIZE_ENV_VAR, None)
    index = _STATE["index"]
    scanner = _STATE["scanner"]
    if not isinstance(index, IVFADCIndex) or not isinstance(
        scanner, PartitionScanner
    ):
        raise ConfigurationError(
            "worker process used before _init_worker attached its state"
        )
    # The query half once per bundle, for the rows its jobs read; the
    # first run's busy time carries it (worker_busy_share means busy).
    t0 = time.perf_counter()
    used, rows = np.unique(bundle.query_rows, return_inverse=True)
    queries = bundle.queries[used]
    query_half = index.query_half(queries)
    ends = np.cumsum(bundle.job_sizes).tolist()
    jobs = [
        (partition_id, rows[end - size : end], tombstones)
        for partition_id, size, end, tombstones in zip(
            bundle.partition_ids, bundle.job_sizes, ends, bundle.tombstones
        )
    ]
    blocks, busy_s = [], []
    for _, block in _scan_runs(
        index,
        scanner,
        queries,
        query_half,
        jobs,
        [index.partitions[partition_id] for partition_id in bundle.partition_ids],
        bundle.topk,
    ):
        blocks.append(block)
        busy_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
    return os.getpid(), ScanBlock.concatenate(blocks), busy_s
