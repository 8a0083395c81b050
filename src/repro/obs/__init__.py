"""repro.obs — end-to-end observability for the query pipeline.

The paper's headline numbers — >95% of vectors pruned by 8-bit lower
bounds (Section 5.3), 4–6× scan speedup, exactness versus PQ Scan — are
only verifiable in a *serving* deployment if the pipeline reports them.
This package makes that telemetry first-class:

* :mod:`repro.obs.tracer` — a span tracer timing every pipeline stage
  (route → warm → tables → scan → merge);
* :mod:`repro.obs.metrics` — counters/gauges/histograms aggregating
  pruning rates, prepared-cache hit ratios, per-worker scan speed and
  per-stage latency;
* :mod:`repro.obs.export` — JSON and Prometheus text snapshots;
* :mod:`repro.obs.workers` — the executors' per-worker work accounting
  (:class:`WorkerStats`);
* :mod:`repro.obs.snapshot` — a CLI producing a snapshot from one
  instrumented batch on a synthetic workload, plus the CI check mode.

The :class:`Observability` facade bundles a tracer and a registry. The
process default (:func:`get_observability`, disabled unless
``REPRO_OBS=1``) is the one sink every metric and span of the library
goes to; :func:`observability_session` or :func:`set_observability`
swaps it, and a disabled one keeps the instrumentation one attribute
check::

    from repro.obs import observability_session

    with observability_session() as obs:          # enabled, fresh registry
        engine.search(queries, k=100, nprobe=4)
        print(obs.export_prometheus())

Every exported family is declared once, as a row of
:data:`repro.obs.families.FAMILIES`; ``docs/observability.md`` lists
them with what each one means.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager

from .export import parse_prometheus, to_json, to_prometheus, write_snapshots
from .families import FAMILIES
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from .tracer import (
    NULL_SPAN,
    STAGE_LATENCY_METRIC,
    SpanRecord,
    Tracer,
)
from .workers import WorkerStats, aggregate_worker_stats, combine_worker_stats

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "ENV_VAR",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "STAGE_LATENCY_METRIC",
    "SpanRecord",
    "Tracer",
    "WorkerStats",
    "aggregate_worker_stats",
    "combine_worker_stats",
    "get_observability",
    "observability_session",
    "parse_prometheus",
    "set_observability",
    "to_json",
    "to_prometheus",
    "write_snapshots",
]

#: Setting this environment variable to 1/true/on/yes enables the
#: process-default instance at import time.
ENV_VAR = "REPRO_OBS"


class Observability:
    """Facade bundling a :class:`Tracer` and a :class:`MetricsRegistry`.

    All instrumentation points in the library go through one of the
    record methods below (or :meth:`span`); each starts with an
    ``enabled`` check, so a disabled instance costs one attribute read
    per call site. What the enabled path costs is measured in
    ``docs/observability.md``, "The enabled path, measured".

    Every row of :data:`~repro.obs.families.FAMILIES` is registered at
    construction, so exports have a stable shape before traffic
    arrives. A record method only writes: the lifetime ratios are
    computed when read.

    Args:
        enabled: collect data when True; no-op when False.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(registry=self.metrics)
        # Family name -> its instrument: what the record methods write.
        self._m = {name: self.metrics.register(row) for name, row in FAMILIES.items()}
        # Gauges one record method sets together are set under this lock,
        # so two concurrent recorders cannot interleave their values.
        self._gauge_lock = threading.Lock()

    # -- instrumentation points ---------------------------------------------

    def span(self, stage: str) -> AbstractContextManager[object]:
        """Timed context manager for one pipeline stage (no-op when off)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(stage)

    def record_scan(self, scanner: str, n_scanned: int, n_pruned: int) -> None:
        """Account the scans of one run of jobs (or one per-query scan)
        under the scanner's kind; ``repro_pruning_rate`` is derived from
        the two."""
        if not self.enabled:
            return
        # Scanned before pruned: a concurrent read of the rate stays <= 1.
        self._m["repro_vectors_scanned_total"].inc(float(n_scanned), scanner=scanner)
        self._m["repro_vectors_pruned_total"].inc(float(n_pruned), scanner=scanner)

    def record_cache_access(self, hit: bool) -> None:
        """Account one prepared-cache lookup."""
        if not self.enabled:
            return
        if hit:
            self._m["repro_prepared_cache_hits_total"].inc(1.0)
        else:
            self._m["repro_prepared_cache_misses_total"].inc(1.0)

    def record_batch(
        self,
        n_queries: int,
        wall_time_s: float,
        worker_stats: Iterable[WorkerStats] = (),
    ) -> None:
        """Account one executed batch: totals plus per-worker gauges."""
        if not self.enabled:
            return
        m = self._m
        m["repro_queries_total"].inc(float(n_queries))
        m["repro_batches_total"].inc(1.0)
        m["repro_batch_wall_seconds"].observe(wall_time_s)
        with self._gauge_lock:
            for stats in worker_stats:
                worker = str(stats.worker_id)
                m["repro_worker_scan_speed_vps"].set(stats.scan_speed_vps, worker=worker)
                m["repro_worker_busy_seconds"].set(stats.busy_time_s, worker=worker)

    def record_shard(self, shard: str, latency_s: float, state: str) -> None:
        """Account one shard's outcome in a scatter-gather batch."""
        if not self.enabled:
            return
        self._m["repro_shard_latency_seconds"].observe(latency_s, shard=shard)
        if state == "timeout":
            self._m["repro_shard_timeouts_total"].inc(1.0, shard=shard)
        elif state == "failed":
            self._m["repro_shard_failures_total"].inc(1.0, shard=shard)

    def record_shard_retry(self, shard: str) -> None:
        """Account one transient shard failure that is being retried."""
        if not self.enabled:
            return
        self._m["repro_shard_retries_total"].inc(1.0, shard=shard)

    def record_gather(self, partial: bool) -> None:
        """Account one finished gather; ``repro_partial_result_rate`` is
        derived from the two counters (gathers first, as for scans)."""
        if not self.enabled:
            return
        self._m["repro_gathers_total"].inc(1.0)
        if partial:
            self._m["repro_partial_results_total"].inc(1.0)

    def record_gather_overlap(self, overlap_s: float) -> None:
        """Account merge time one gather hid behind in-flight shards."""
        if not self.enabled:
            return
        self._m["repro_gather_overlap_seconds"].observe(overlap_s)

    def record_pool_spinup(self, backend: str) -> None:
        """Account one worker-pool creation (``backend`` labels which)."""
        if not self.enabled:
            return
        self._m["repro_pool_spinups_total"].inc(1.0, backend=backend)

    def record_pool_reuse(self, backend: str) -> None:
        """Account one batch served by an already-warm pinned pool."""
        if not self.enabled:
            return
        self._m["repro_pool_reuses_total"].inc(1.0, backend=backend)

    def record_request(
        self,
        status: str,
        queue_wait_s: float | None = None,
        latency_s: float | None = None,
    ) -> None:
        """Account one serving-layer request (:mod:`repro.serve`).

        Shed requests carry no timings (they never enter a batch), so
        the histograms only observe requests that actually executed.
        """
        if not self.enabled:
            return
        self._m["repro_serve_requests_total"].inc(1.0, status=status)
        if queue_wait_s is not None:
            self._m["repro_serve_queue_wait_seconds"].observe(queue_wait_s)
        if latency_s is not None:
            self._m["repro_serve_latency_seconds"].observe(latency_s)

    def record_flush(self, batch_size: int, reason: str) -> None:
        """Account one flushed micro-batch and its coalesced size."""
        if not self.enabled:
            return
        self._m["repro_serve_flushes_total"].inc(1.0, reason=reason)
        self._m["repro_serve_batch_size"].observe(float(batch_size))

    def record_mutation(
        self, op: str, n_rows: int, delta_rows: int, tombstones: int
    ) -> None:
        """Account one write-API call and refresh the overlay gauges."""
        if not self.enabled:
            return
        self._m["repro_mutations_total"].inc(1.0, op=op)
        self._m["repro_mutation_rows_total"].inc(float(n_rows), op=op)
        with self._gauge_lock:
            self._m["repro_delta_rows"].set(float(delta_rows))
            self._m["repro_tombstones"].set(float(tombstones))

    def record_compaction(
        self,
        wall_time_s: float,
        generation: int,
        delta_rows: int = 0,
        tombstones: int = 0,
    ) -> None:
        """Account one completed compaction and the generation it published.

        ``delta_rows``/``tombstones`` are the overlay sizes *after* the
        commit — writes that raced the compaction survive the drain.
        """
        if not self.enabled:
            return
        self._m["repro_compactions_total"].inc(1.0)
        self._m["repro_compaction_seconds"].observe(wall_time_s)
        with self._gauge_lock:
            self._m["repro_generation"].set(float(generation))
            self._m["repro_delta_rows"].set(float(delta_rows))
            self._m["repro_tombstones"].set(float(tombstones))

    # -- export conveniences ------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """JSON-safe dict of every metric family and series."""
        return self.metrics.snapshot()

    def export_json(self, indent: int | None = 2) -> str:
        return to_json(self.metrics, indent=indent)

    def export_prometheus(self) -> str:
        return to_prometheus(self.metrics)


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


_default_lock = threading.Lock()
_default = Observability(enabled=_env_enabled())


def get_observability() -> Observability:
    """The process default: the one sink every instrumentation point
    writes to, looked up when it records."""
    return _default


def set_observability(instance: Observability) -> Observability:
    """Install ``instance`` as the process default; returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = instance
    return previous


@contextmanager
def observability_session() -> Iterator[Observability]:
    """Temporarily install a fresh, enabled default :class:`Observability`.

    The previous default is restored on exit, making this safe to nest
    and to use in tests and benchmarks::

        with observability_session() as obs:
            engine.search(queries)
        text = obs.export_prometheus()   # readable after exit too
    """
    obs = Observability(enabled=True)
    previous = set_observability(obs)
    try:
        yield obs
    finally:
        set_observability(previous)
