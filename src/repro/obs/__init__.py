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
* :mod:`repro.obs.snapshot` — a CLI producing a snapshot from one
  instrumented batch on a synthetic workload, plus the CI check mode.

The :class:`Observability` facade bundles a tracer and a registry and
is what the engine and the scanners talk to. A process-wide default
instance (disabled unless ``REPRO_OBS=1``) keeps the instrumentation
one attribute check when off::

    from repro.obs import observability_session

    with observability_session() as obs:          # enabled, fresh registry
        searcher.search(queries, topk=100, nprobe=4)
        print(obs.export_prometheus())

Key exported series (all prefixed ``repro_``):

==============================================  =========  ==================
metric                                          kind       labels
==============================================  =========  ==================
``repro_stage_latency_seconds``                 histogram  ``stage``
``repro_vectors_scanned_total``                 counter    ``scanner``
``repro_vectors_pruned_total``                  counter    ``scanner``
``repro_pruning_rate``                          gauge      ``scanner``
``repro_prepared_cache_{hits,misses}_total``    counter    —
``repro_prepared_cache_hit_ratio``              gauge      —
``repro_prepared_cache_evictions_total``        counter    —
``repro_queries_total`` / ``repro_batches_total``  counter —
``repro_batch_wall_seconds``                    histogram  —
``repro_worker_scan_speed_vps``                 gauge      ``worker``
``repro_worker_busy_seconds``                   gauge      ``worker``
``repro_shard_latency_seconds``                 histogram  ``shard``
``repro_shard_timeouts_total``                  counter    ``shard``
``repro_shard_failures_total``                  counter    ``shard``
``repro_shard_retries_total``                   counter    ``shard``
``repro_gathers_total`` / ``repro_partial_results_total``  counter —
``repro_partial_result_rate``                   gauge      —
``repro_gather_overlap_seconds``                histogram  —
``repro_pool_spinups_total``                    counter    ``backend``
``repro_pool_reuses_total``                     counter    ``backend``
``repro_serve_requests_total``                  counter    ``status``
``repro_serve_flushes_total``                   counter    ``reason``
``repro_serve_queue_wait_seconds``              histogram  —
``repro_serve_latency_seconds``                 histogram  —
``repro_serve_batch_size``                      histogram  —
``repro_mutations_total``                       counter    ``op``
``repro_mutation_rows_total``                   counter    ``op``
``repro_delta_rows``                            gauge      —
``repro_tombstones``                            gauge      —
``repro_compactions_total``                     counter    —
``repro_compaction_seconds``                    histogram  —
``repro_generation``                            gauge      —
==============================================  =========  ==================
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid importing the simulator package at runtime
    from ..simd.counters import WorkerStats

from .export import parse_prometheus, to_json, to_prometheus, write_snapshots
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
    per call site — the "near-zero overhead when off" contract that the
    throughput benchmark's <2% regression gate enforces.

    Args:
        enabled: collect data when True; no-op when False.
        registry: share an existing registry (default: a fresh one).
        max_spans: span-ring capacity handed to the tracer.
    """

    def __init__(
        self,
        enabled: bool = False,
        registry: MetricsRegistry | None = None,
        max_spans: int = 4096,
    ) -> None:
        self.enabled = bool(enabled)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(registry=self.metrics, max_spans=max_spans)
        # Individual Metric operations are atomic (each metric carries
        # its own lock), but the derived gauges below are computed from
        # inc-then-read-then-set sequences; this lock makes each such
        # sequence atomic so concurrent recorders cannot publish a
        # stale ratio over a fresher one.
        self._derived_lock = threading.Lock()
        m = self.metrics
        self._scanned = m.counter(
            "repro_vectors_scanned_total",
            help="Vectors considered by partition scans.",
            labelnames=("scanner",),
        )
        self._pruned = m.counter(
            "repro_vectors_pruned_total",
            help="Vectors discarded by quantized lower bounds.",
            labelnames=("scanner",),
        )
        self._pruning_rate = m.gauge(
            "repro_pruning_rate",
            help=(
                "Lifetime pruned/scanned ratio per scanner (the paper's "
                ">95% pruning-power claim, Section 5.3, as a live gauge)."
            ),
            labelnames=("scanner",),
        )
        self._cache_hits = m.counter(
            "repro_prepared_cache_hits_total",
            help="Prepared-layout cache hits (PQ Fast Scan).",
        )
        self._cache_misses = m.counter(
            "repro_prepared_cache_misses_total",
            help="Prepared-layout cache misses (grouped layout built).",
        )
        self._cache_ratio = m.gauge(
            "repro_prepared_cache_hit_ratio",
            help="Lifetime prepared-cache hit ratio.",
        )
        self._cache_evictions = m.counter(
            "repro_prepared_cache_evictions_total",
            help="Prepared layouts evicted by the cache's LRU cap.",
        )
        self._queries = m.counter(
            "repro_queries_total", help="Queries served by the batch engine."
        )
        self._batches = m.counter(
            "repro_batches_total", help="Batches executed by the engine."
        )
        self._batch_wall = m.histogram(
            "repro_batch_wall_seconds",
            help="End-to-end wall time of one batch (plan+scan+merge).",
        )
        self._worker_speed = m.gauge(
            "repro_worker_scan_speed_vps",
            help="Vectors scanned per busy second, per worker, last batch.",
            labelnames=("worker",),
        )
        self._worker_busy = m.gauge(
            "repro_worker_busy_seconds",
            help="Busy time per worker over the last batch.",
            labelnames=("worker",),
        )
        self._shard_latency = m.histogram(
            "repro_shard_latency_seconds",
            help="Per-shard wall time within one scatter-gather batch.",
            labelnames=("shard",),
        )
        self._shard_timeouts = m.counter(
            "repro_shard_timeouts_total",
            help="Shards abandoned at the gather deadline.",
            labelnames=("shard",),
        )
        self._shard_failures = m.counter(
            "repro_shard_failures_total",
            help="Shards that exhausted their retry budget.",
            labelnames=("shard",),
        )
        self._shard_retries = m.counter(
            "repro_shard_retries_total",
            help="Transient shard failures that were retried.",
            labelnames=("shard",),
        )
        self._gathers = m.counter(
            "repro_gathers_total",
            help="Scatter-gather batches completed (partial or not).",
        )
        self._partials = m.counter(
            "repro_partial_results_total",
            help="Scatter-gather batches that returned partial results.",
        )
        self._partial_rate = m.gauge(
            "repro_partial_result_rate",
            help="Lifetime partial/total gather ratio (degradation rate).",
        )
        self._gather_overlap = m.histogram(
            "repro_gather_overlap_seconds",
            help=(
                "Merge work folded while other shards were still in "
                "flight — wall time the streaming gather hid behind the "
                "scatter instead of serializing after it."
            ),
        )
        self._pool_spinups = m.counter(
            "repro_pool_spinups_total",
            help="Worker pools created (thread, process, gather).",
            labelnames=("backend",),
        )
        self._pool_reuses = m.counter(
            "repro_pool_reuses_total",
            help="Batches served by an already-warm pinned pool.",
            labelnames=("backend",),
        )
        self._serve_requests = m.counter(
            "repro_serve_requests_total",
            help="Serving-layer requests by outcome (ok/overload/error).",
            labelnames=("status",),
        )
        self._serve_flushes = m.counter(
            "repro_serve_flushes_total",
            help="Micro-batches flushed by trigger (size/deadline/drain).",
            labelnames=("reason",),
        )
        self._serve_queue_wait = m.histogram(
            "repro_serve_queue_wait_seconds",
            help="Time a served request waited in the coalescing queue.",
        )
        self._serve_latency = m.histogram(
            "repro_serve_latency_seconds",
            help="End-to-end served-request latency (enqueue to answer).",
        )
        self._serve_batch_size = m.histogram(
            "repro_serve_batch_size",
            help="Requests coalesced into one flushed micro-batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        self._mutations = m.counter(
            "repro_mutations_total",
            help="Write-API calls by operation (add/delete).",
            labelnames=("op",),
        )
        self._mutation_rows = m.counter(
            "repro_mutation_rows_total",
            help="Rows touched by write-API calls, by operation.",
            labelnames=("op",),
        )
        self._delta_rows = m.gauge(
            "repro_delta_rows",
            help="Rows currently living in uncompacted delta segments.",
        )
        self._tombstones = m.gauge(
            "repro_tombstones",
            help="Live tombstones masking base rows until compaction.",
        )
        self._compactions = m.counter(
            "repro_compactions_total",
            help="Completed (non-no-op) compactions.",
        )
        self._compaction_wall = m.histogram(
            "repro_compaction_seconds",
            help="End-to-end wall time of one compaction.",
            buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0),
        )
        self._generation = m.gauge(
            "repro_generation",
            help="Base generation currently published by the engine.",
        )

    # -- instrumentation points ---------------------------------------------

    def span(self, stage: str) -> AbstractContextManager[object]:
        """Timed context manager for one pipeline stage (no-op when off)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(stage)

    def record_scan(self, scanner: str, n_scanned: int, n_pruned: int) -> None:
        """Account the scans of one job (or one per-query scan) under the
        scanner's kind and refresh the pruning-rate gauge."""
        if not self.enabled:
            return
        with self._derived_lock:
            self._scanned.inc(float(n_scanned), scanner=scanner)
            self._pruned.inc(float(n_pruned), scanner=scanner)
            scanned = self._scanned.value(scanner=scanner)
            if scanned > 0:
                self._pruning_rate.set(
                    self._pruned.value(scanner=scanner) / scanned,
                    scanner=scanner,
                )

    def record_cache_access(self, hit: bool) -> None:
        """Account one prepared-cache lookup and refresh the hit ratio."""
        if not self.enabled:
            return
        with self._derived_lock:
            if hit:
                self._cache_hits.inc(1.0)
            else:
                self._cache_misses.inc(1.0)
            hits = self._cache_hits.value()
            total = hits + self._cache_misses.value()
            if total > 0:
                self._cache_ratio.set(hits / total)

    def record_cache_eviction(self) -> None:
        """Account one LRU eviction from a prepared-layout cache."""
        if not self.enabled:
            return
        self._cache_evictions.inc(1.0)

    def record_batch(
        self,
        n_queries: int,
        wall_time_s: float,
        worker_stats: Iterable["WorkerStats"] = (),
    ) -> None:
        """Account one executed batch: totals plus per-worker gauges."""
        if not self.enabled:
            return
        self._queries.inc(float(n_queries))
        self._batches.inc(1.0)
        self._batch_wall.observe(wall_time_s)
        with self._derived_lock:
            for stats in worker_stats:
                worker = str(stats.worker_id)
                self._worker_speed.set(stats.scan_speed_vps, worker=worker)
                self._worker_busy.set(stats.busy_time_s, worker=worker)

    def record_shard(self, shard: str, latency_s: float, state: str) -> None:
        """Account one shard's outcome in a scatter-gather batch."""
        if not self.enabled:
            return
        self._shard_latency.observe(latency_s, shard=shard)
        if state == "timeout":
            self._shard_timeouts.inc(1.0, shard=shard)
        elif state == "failed":
            self._shard_failures.inc(1.0, shard=shard)

    def record_shard_retry(self, shard: str) -> None:
        """Account one transient shard failure that is being retried."""
        if not self.enabled:
            return
        self._shard_retries.inc(1.0, shard=shard)

    def record_gather(self, partial: bool) -> None:
        """Account one finished gather and refresh the degradation rate."""
        if not self.enabled:
            return
        with self._derived_lock:
            self._gathers.inc(1.0)
            if partial:
                self._partials.inc(1.0)
            total = self._gathers.value()
            if total > 0:
                self._partial_rate.set(self._partials.value() / total)

    def record_gather_overlap(self, overlap_s: float) -> None:
        """Account merge time one gather hid behind in-flight shards."""
        if not self.enabled:
            return
        self._gather_overlap.observe(overlap_s)

    def record_pool_spinup(self, backend: str) -> None:
        """Account one worker-pool creation (``backend`` labels which)."""
        if not self.enabled:
            return
        self._pool_spinups.inc(1.0, backend=backend)

    def record_pool_reuse(self, backend: str) -> None:
        """Account one batch served by an already-warm pinned pool."""
        if not self.enabled:
            return
        self._pool_reuses.inc(1.0, backend=backend)

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
        self._serve_requests.inc(1.0, status=status)
        if queue_wait_s is not None:
            self._serve_queue_wait.observe(queue_wait_s)
        if latency_s is not None:
            self._serve_latency.observe(latency_s)

    def record_flush(self, batch_size: int, reason: str) -> None:
        """Account one flushed micro-batch and its coalesced size."""
        if not self.enabled:
            return
        self._serve_flushes.inc(1.0, reason=reason)
        self._serve_batch_size.observe(float(batch_size))

    def record_mutation(
        self, op: str, n_rows: int, delta_rows: int, tombstones: int
    ) -> None:
        """Account one write-API call and refresh the overlay gauges."""
        if not self.enabled:
            return
        self._mutations.inc(1.0, op=op)
        self._mutation_rows.inc(float(n_rows), op=op)
        with self._derived_lock:
            self._delta_rows.set(float(delta_rows))
            self._tombstones.set(float(tombstones))

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
        self._compactions.inc(1.0)
        self._compaction_wall.observe(wall_time_s)
        with self._derived_lock:
            self._generation.set(float(generation))
            self._delta_rows.set(float(delta_rows))
            self._tombstones.set(float(tombstones))

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
    """The process-default instance every instrumentation point uses."""
    return _default


def set_observability(obs: Observability) -> Observability:
    """Install ``obs`` as the process default; returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = obs
    return previous


@contextmanager
def observability_session(
    enabled: bool = True,
    registry: MetricsRegistry | None = None,
    max_spans: int = 4096,
) -> Iterator[Observability]:
    """Temporarily install a fresh default :class:`Observability`.

    The previous default is restored on exit, making this safe to nest
    and to use in tests and benchmarks::

        with observability_session() as obs:
            searcher.search(queries)
        text = obs.export_prometheus()   # readable after exit too
    """
    obs = Observability(enabled=enabled, registry=registry, max_spans=max_spans)
    previous = set_observability(obs)
    try:
        yield obs
    finally:
        set_observability(previous)
