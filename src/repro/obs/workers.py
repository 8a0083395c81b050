"""Per-worker work accounting of the executors (Section 5.8).

The executors hand every scanned run to
:func:`repro.search._record_scans`, which adds it to the scanning
worker's :class:`WorkerStats`; a batch's per-worker totals land on its
:class:`~repro.search.ShardedResponse` and in the
``repro_worker_*`` metric families (:meth:`Observability.record_batch
<repro.obs.Observability.record_batch>`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

__all__ = ["WorkerStats", "aggregate_worker_stats", "combine_worker_stats"]


@dataclass
class WorkerStats:
    """Work accumulated by one executor worker over a query batch.

    The batch execution engine (see :mod:`repro.search`) fans
    partition-scan jobs over worker processes (:mod:`repro.parallel`);
    each worker owns one ``WorkerStats`` instance (no shared mutable
    state between workers) and the coordinator aggregates them. The
    per-worker split is what the Section 5.8 bandwidth analysis needs:
    vectors scanned per worker per second is the per-core scan speed
    whose aggregate hits the memory wall.

    Attributes:
        worker_id: 0-based worker index (-1 for aggregated totals).
        n_jobs: partition-scan jobs executed.
        n_scans: (query, partition) scans performed.
        n_vectors_scanned: vectors considered across all scans.
        n_vectors_pruned: vectors discarded by lower bounds.
        busy_time_s: wall time spent inside jobs by this worker.
    """

    worker_id: int
    n_jobs: int = 0
    n_scans: int = 0
    n_vectors_scanned: int = 0
    n_vectors_pruned: int = 0
    busy_time_s: float = 0.0

    def record_job(
        self,
        *,
        n_scans: int,
        n_vectors_scanned: int,
        n_vectors_pruned: int,
        busy_time_s: float,
        n_jobs: int = 1,
    ) -> None:
        """Account one finished partition-scan job (or the totals of
        ``n_jobs`` of them, as a process worker reports a bundle)."""
        self.n_jobs += n_jobs
        self.n_scans += n_scans
        self.n_vectors_scanned += n_vectors_scanned
        self.n_vectors_pruned += n_vectors_pruned
        self.busy_time_s += busy_time_s

    @property
    def scan_speed_vps(self) -> float:
        """Vectors scanned per busy second (0 when idle)."""
        if self.busy_time_s <= 0:
            return 0.0
        return self.n_vectors_scanned / self.busy_time_s

    @property
    def pruned_fraction(self) -> float:
        """Fraction of this worker's scanned vectors that were pruned."""
        if self.n_vectors_scanned <= 0:
            return 0.0
        return self.n_vectors_pruned / self.n_vectors_scanned

    def as_dict(self) -> dict[str, float | int]:
        """JSON-safe dump (benchmark reports, observability exports)."""
        return {
            "worker_id": self.worker_id,
            "n_jobs": self.n_jobs,
            "n_scans": self.n_scans,
            "n_vectors_scanned": self.n_vectors_scanned,
            "n_vectors_pruned": self.n_vectors_pruned,
            "busy_time_s": self.busy_time_s,
            "scan_speed_vps": self.scan_speed_vps,
            "pruned_fraction": self.pruned_fraction,
        }


def aggregate_worker_stats(stats: Iterable[WorkerStats]) -> WorkerStats:
    """Sum per-worker stats into one total (``worker_id = -1``)."""
    total = WorkerStats(worker_id=-1)
    for s in stats:
        total.n_jobs += s.n_jobs
        total.n_scans += s.n_scans
        total.n_vectors_scanned += s.n_vectors_scanned
        total.n_vectors_pruned += s.n_vectors_pruned
        total.busy_time_s += s.busy_time_s
    return total


def combine_worker_stats(
    groups: Iterable[Iterable[WorkerStats]],
) -> list[WorkerStats]:
    """Merge several per-worker stat lists by ``worker_id``.

    The sharded scatter-gather engine runs one worker pool *per shard*;
    worker slot ``i`` of every shard maps to the same logical worker id.
    Merging by id keeps the per-slot totals comparable with the
    unsharded engine's report (same ids, summed work), which is what the
    sharded benchmark prints side by side.
    """
    merged: dict[int, WorkerStats] = {}
    for group in groups:
        for s in group:
            slot = merged.setdefault(s.worker_id, WorkerStats(s.worker_id))
            slot.n_jobs += s.n_jobs
            slot.n_scans += s.n_scans
            slot.n_vectors_scanned += s.n_vectors_scanned
            slot.n_vectors_pruned += s.n_vectors_pruned
            slot.busy_time_s += s.busy_time_s
    return [merged[worker_id] for worker_id in sorted(merged)]
