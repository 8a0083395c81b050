"""The metric families ``repro.obs`` exports, each declared once.

One :class:`~repro.obs.metrics.Family` row per family: name, kind, label
names, help text and (for a histogram) buckets. :class:`repro.obs.Observability`
registers every row, and its ``record_*`` methods write the instruments
that registration built; the :class:`~repro.obs.tracer.Tracer` registers
the stage-latency row it feeds. The three lifetime ratios are rows too:
each names its counters, numerator first, and is computed when read.
``docs/observability.md`` says what each family means, and
``tests/test_docs.py`` checks its table against this one.
"""

from __future__ import annotations

from .metrics import Family

#: Histogram family receiving every finished span's duration.
STAGE_LATENCY_METRIC = "repro_stage_latency_seconds"

#: Every exported family by name, in the order the docs list them.
FAMILIES: dict[str, Family] = {family.name: family for family in (
    Family(STAGE_LATENCY_METRIC, "histogram", ("stage",),
           "Wall time of each query-pipeline stage."),
    Family("repro_vectors_scanned_total", "counter", ("scanner",),
           "Vectors considered by partition scans."),
    Family("repro_vectors_pruned_total", "counter", ("scanner",),
           "Vectors discarded by quantized lower bounds."),
    Family("repro_pruning_rate", "gauge", ("scanner",),
           "Lifetime pruned/scanned ratio per scanner (the paper's >95% "
           "pruning-power claim, Section 5.3, as a live gauge).",
           ratio=("repro_vectors_pruned_total", "repro_vectors_scanned_total")),
    Family("repro_prepared_cache_hits_total", "counter", (),
           "Prepared-layout cache hits (PQ Fast Scan)."),
    Family("repro_prepared_cache_misses_total", "counter", (),
           "Prepared-layout cache misses (grouped layout built)."),
    Family("repro_prepared_cache_hit_ratio", "gauge", (),
           "Lifetime prepared-cache hit ratio.",
           ratio=("repro_prepared_cache_hits_total", "repro_prepared_cache_hits_total",
                  "repro_prepared_cache_misses_total")),
    Family("repro_queries_total", "counter", (),
           "Queries served by the batch engine."),
    Family("repro_batches_total", "counter", (),
           "Batches executed by the engine."),
    Family("repro_batch_wall_seconds", "histogram", (),
           "End-to-end wall time of one batch (plan+scan+merge)."),
    Family("repro_worker_scan_speed_vps", "gauge", ("worker",),
           "Vectors scanned per busy second, per worker, last batch."),
    Family("repro_worker_busy_seconds", "gauge", ("worker",),
           "Busy time per worker over the last batch."),
    Family("repro_shard_latency_seconds", "histogram", ("shard",),
           "Per-shard wall time within one scatter-gather batch."),
    Family("repro_shard_failures_total", "counter", ("shard",),
           "Shards that exhausted their retry budget."),
    Family("repro_shard_timeouts_total", "counter", ("shard",),
           "Shards abandoned at the gather deadline."),
    Family("repro_shard_retries_total", "counter", ("shard",),
           "Transient shard failures that were retried."),
    Family("repro_gathers_total", "counter", (),
           "Scatter-gather batches completed (partial or not)."),
    Family("repro_partial_results_total", "counter", (),
           "Scatter-gather batches that returned partial results."),
    Family("repro_partial_result_rate", "gauge", (),
           "Lifetime partial/total gather ratio (degradation rate).",
           ratio=("repro_partial_results_total", "repro_gathers_total")),
    Family("repro_gather_overlap_seconds", "histogram", (),
           "Merge work folded while other shards were still in flight — "
           "wall time the streaming gather hid behind the scatter instead "
           "of serializing after it."),
    Family("repro_pool_spinups_total", "counter", ("backend",),
           "Worker pools created (process, gather)."),
    Family("repro_pool_reuses_total", "counter", ("backend",),
           "Batches served by an already-warm pinned pool."),
    Family("repro_serve_requests_total", "counter", ("status",),
           "Serving-layer requests by outcome (ok/overload/error)."),
    Family("repro_serve_flushes_total", "counter", ("reason",),
           "Micro-batches flushed by trigger (size/idle/drain)."),
    Family("repro_serve_queue_wait_seconds", "histogram", (),
           "Time a served request waited in the coalescing queue."),
    Family("repro_serve_latency_seconds", "histogram", (),
           "End-to-end served-request latency (enqueue to answer)."),
    Family("repro_serve_batch_size", "histogram", (),
           "Requests coalesced into one flushed micro-batch.",
           buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)),
    Family("repro_mutations_total", "counter", ("op",),
           "Write-API calls by operation (add/delete)."),
    Family("repro_mutation_rows_total", "counter", ("op",),
           "Rows touched by write-API calls, by operation."),
    Family("repro_delta_rows", "gauge", (),
           "Rows currently living in uncompacted delta segments."),
    Family("repro_tombstones", "gauge", (),
           "Live tombstones masking base rows until compaction."),
    Family("repro_compactions_total", "counter", (),
           "Completed (non-no-op) compactions."),
    Family("repro_compaction_seconds", "histogram", (),
           "End-to-end wall time of one compaction.",
           buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)),
    Family("repro_generation", "gauge", (),
           "Base generation currently published by the engine."),
)}
