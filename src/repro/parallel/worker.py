"""Worker-process side of the process-pool executor.

Each worker is initialized exactly once per process
(:func:`_init_worker`): it attaches to the index artifact **by path**
with ``load_index(..., mmap=True)`` — the partition codes stay in the OS
page cache, shared read-only with the parent and every sibling worker,
so no code bytes are ever pickled — and rebuilds its scanner from the
picklable :class:`~repro.parallel.ScannerSpec`. Fast scanners are warmed
immediately (grouped layouts built, assignment learned), so the
per-process caches are hot before the first task arrives and stay warm
for the lifetime of the pool.

Traffic is deliberately compact and per bundle, not per cell: a
:class:`WorkerBundle` carries the batch's query block once plus, per
job, a partition id, the rows that probe it and the ids of its
tombstoned rows; what comes back is one :class:`~repro.scan.ScanBlock`
for the whole bundle (three arrays, ``topk`` wide), the worker's pid
and each job's busy time. Parent ↔ worker traffic is therefore
independent of partition sizes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..core.sanitize import ENV_VAR as _SANITIZE_ENV_VAR
from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..persistence import load_index
from ..scan.base import PartitionScanner, ScanBlock
from ..search import _scan_block
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


# Per-process state, populated by _init_worker. A plain module dict:
# ProcessPoolExecutor initializers cannot return values, and the state
# must be reachable from the task functions by name.
_STATE: dict[str, object] = {}


def _init_worker(index_path: str, spec: ScannerSpec, mmap: bool) -> None:
    """Attach this process to the index artifact and build its scanner."""
    index = load_index(index_path, mmap=mmap)
    scanner = spec.build(index.pq)
    scanner.warm(index.partitions)
    _STATE["index"] = index
    _STATE["scanner"] = scanner


def _probe_worker() -> int:
    """No-op task used to force worker spawn + initialization eagerly."""
    return os.getpid()


def _run_bundle(
    bundle: WorkerBundle, sanitize: bool = False
) -> tuple[int, ScanBlock, list[float]]:
    """Run a bundle of partition jobs in one round trip.

    The parent packs a whole batch's jobs into at most ``n_workers``
    bundles (balanced by job cost), so queue traffic — task pickles,
    semaphore wakeups across idle workers, result pipe writes — is a
    per-batch constant instead of scaling with the partition count.
    Returns ``(pid, cells, busy_s)``: the worker's process id (the parent
    maps pids to worker-stat slots), the jobs' scans end to end in one
    block, and the wall time spent on each job.

    ``sanitize`` mirrors the parent's ``REPRO_SANITIZE`` gate at call
    time: worker processes may have been spawned before the gate was
    set (or with a different environment entirely), and the runtime
    sanitizer re-reads the gate per scan — so the parent's current
    setting is forwarded with every bundle rather than being frozen at
    pool creation.
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
    blocks, busy_s = [], []
    # The query half once per bundle, for the rows its jobs read; the
    # first job's busy time carries it (worker_busy_share means busy).
    t0 = time.perf_counter()
    used, rows = np.unique(bundle.query_rows, return_inverse=True)
    queries = bundle.queries[used]
    query_half = index.query_half(queries)
    stop = 0
    for partition_id, size, tombstones in zip(
        bundle.partition_ids, bundle.job_sizes, bundle.tombstones
    ):
        start, stop = stop, stop + size
        tables = index.tables_from_halves(
            queries, query_half, rows[start:stop], partition_id
        )
        blocks.append(
            _scan_block(
                scanner, tables, index.partitions[partition_id], bundle.topk, tombstones
            )
        )
        busy_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
    return os.getpid(), ScanBlock.concatenate(blocks), busy_s
