"""repro.parallel — zero-copy process-pool execution for query batches.

The in-process :class:`~repro.search.BatchExecutor` runs inline: thread
workers contend on the GIL between NumPy kernels, and a second thread
read x0.28-0.46 on fastpq and x0.38-0.43 on quickadc, so it keeps no
thread pool. This package is where batches fan out: worker
**processes**, without moving any index data:

* :class:`ProcessBatchExecutor` — how one shard of
  :class:`~repro.shard.ScatterGatherExecutor` scans a plan on a
  persistent ``ProcessPoolExecutor`` (its ``scan_plan``): same
  partition-major jobs, byte-identical cells.
* :class:`ScannerSpec` — the picklable scanner description each worker
  rebuilds its scanner from.
* :mod:`~repro.parallel.worker` — the worker-process side: attach to
  the mmapped artifact by path, warm per-process caches, return compact
  packed results.

The enabling layer is :func:`repro.persistence.load_index` with
``mmap=True``: index artifacts are saved with *stored* (uncompressed)
members, so every worker maps the same physical pages of the partition
codes read-only from the OS page cache — attach cost is page-table
setup, not a copy, and memory use stays flat in the worker count.

Reach it from the high-level API as ``executor="process"``
(:class:`repro.EngineConfig`, which ``"auto"`` picks for ``n_shards > 1``
or ``n_workers > 1``), or as ``backend="process"``
(:class:`repro.shard.ScatterGatherExecutor`). :class:`~repro.Engine` is
the one owner of these pools.
"""

from .executor import ProcessBatchExecutor
from .spec import ScannerSpec

__all__ = ["ProcessBatchExecutor", "ScannerSpec"]
