"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import ast
import asyncio
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import Engine, NaiveScanner
from repro.engine import SCANNER_KINDS
from repro.exceptions import ConfigurationError, DatasetError
from repro.obs import (
    Observability,
    MetricsRegistry,
    NULL_SPAN,
    STAGE_LATENCY_METRIC,
    Tracer,
    WorkerStats,
    get_observability,
    observability_session,
    parse_prometheus,
    set_observability,
    to_json,
    to_prometheus,
    write_snapshots,
)
from repro.obs.families import FAMILIES
from repro.obs.metrics import Family
from repro.obs.snapshot import check_snapshot, run_snapshot
from repro.parallel import ScannerSpec
from repro.serve import MicroBatchServer, ServeConfig
from repro.shard import ScatterGatherExecutor, ShardedIndex

pytestmark = pytest.mark.usefixtures("no_process_left")


def _one_shard(index, scanner, **options) -> ScatterGatherExecutor:
    """The one-shard split of ``index``, as an unsharded engine runs it."""
    return ScatterGatherExecutor(
        ShardedIndex.from_index(index, n_shards=1), [scanner], **options
    )


class TestMetricsPrimitives:
    def test_counter_accumulates_per_label(self):
        reg = MetricsRegistry()
        c = reg.register(Family("repro_test_total", "counter", ("scanner",)))
        c.inc(3, scanner="naive")
        c.inc(2, scanner="naive")
        c.inc(1, scanner="fastpq")
        assert c.value(scanner="naive") == 5
        assert c.value(scanner="fastpq") == 1
        assert c.value(scanner="never") == 0

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().register(Family("repro_test_total", "counter"))
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_label_mismatch_rejected(self):
        c = MetricsRegistry().register(Family("repro_test_total", "counter", ("a",)))
        with pytest.raises(ConfigurationError):
            c.inc(1, b="x")
        with pytest.raises(ConfigurationError):
            c.inc(1)

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().register(Family("bad name", "counter"))
        with pytest.raises(ConfigurationError):
            MetricsRegistry().register(Family("ok_name", "counter", ("bad-label",)))

    def test_gauge_last_value_wins(self):
        g = MetricsRegistry().register(Family("repro_test_gauge", "gauge"))
        g.set(1.5)
        g.set(0.25)
        assert g.value() == 0.25

    def test_histogram_cumulative_buckets(self):
        h = MetricsRegistry().register(
            Family("repro_test_seconds", "histogram", buckets=(0.01, 0.1, 1.0))
        )
        for value in (0.005, 0.05, 0.5, 5.0):
            h.observe(value)
        counts, total, count = h.snapshot_child()
        assert counts == [1, 2, 3, 4]  # cumulative, +Inf last
        assert count == 4
        assert total == pytest.approx(5.555)

    def test_histogram_bucket_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.register(Family("repro_h1_seconds", "histogram", buckets=()))
        with pytest.raises(ConfigurationError):
            reg.register(Family("repro_h2_seconds", "histogram", buckets=(1.0, 0.5)))
        with pytest.raises(ConfigurationError):
            reg.register(Family("repro_h3_seconds", "histogram", buckets=(1.0, float("inf"))))

    def test_registry_get_or_create_and_kind_conflicts(self):
        reg = MetricsRegistry()
        c1 = reg.register(Family("repro_x_total", "counter", ("a",)))
        assert reg.register(Family("repro_x_total", "counter", ("a",))) is c1
        with pytest.raises(ConfigurationError):
            reg.register(Family("repro_x_total", "gauge", ("a",)))
        with pytest.raises(ConfigurationError):
            reg.register(Family("repro_x_total", "counter", ("b",)))

    def test_counters_are_thread_safe(self):
        c = MetricsRegistry().register(Family("repro_thread_total", "counter"))

        def bump():
            for _ in range(1000):
                c.inc(1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestTracer:
    def test_spans_recorded_with_stage_and_duration(self):
        tracer = Tracer()
        with tracer.span("scan"):
            pass
        with tracer.span("merge"):
            pass
        records = tracer.spans()
        assert [r.stage for r in records] == ["scan", "merge"]
        assert all(r.duration_s >= 0 for r in records)

    def test_ring_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 4
        assert tracer.spans()[0].stage == "s6"

    def test_stage_summary_aggregates(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("scan"):
                pass
        summary = tracer.stage_summary()
        assert summary["scan"]["count"] == 3
        assert summary["scan"]["total_s"] >= summary["scan"]["max_s"]

    def test_tracer_feeds_latency_histogram(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        with tracer.span("route"):
            pass
        hist = reg.get(STAGE_LATENCY_METRIC)
        _, _, count = hist.snapshot_child(stage="route")
        assert count == 1

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("scan"):
            pass
        tracer.clear()
        assert tracer.spans() == []


class TestObservabilityFacade:
    def test_disabled_is_noop(self):
        obs = Observability(enabled=False)
        assert obs.span("scan") is NULL_SPAN
        obs.record_scan("naive", 100, 0)
        obs.record_cache_access(True)
        obs.record_batch(4, 0.1, [WorkerStats(worker_id=0)])
        snapshot = obs.snapshot()
        assert snapshot["counters"]["repro_vectors_scanned_total"] == []

    def test_pruning_rate_gauge_tracks_counters(self):
        obs = Observability(enabled=True)
        obs.record_scan("fastpq", 1000, 950)
        obs.record_scan("fastpq", 1000, 970)
        gauge = obs.metrics.get("repro_pruning_rate")
        assert gauge.value(scanner="fastpq") == pytest.approx(0.96)

    def test_cache_ratio_gauge(self):
        obs = Observability(enabled=True)
        obs.record_cache_access(False)
        obs.record_cache_access(True)
        obs.record_cache_access(True)
        ratio = obs.metrics.get("repro_prepared_cache_hit_ratio")
        assert ratio.value() == pytest.approx(2 / 3)

    def test_record_batch_worker_gauges(self):
        obs = Observability(enabled=True)
        stats = WorkerStats(worker_id=1)
        stats.record_job(
            n_scans=2, n_vectors_scanned=500, n_vectors_pruned=100,
            busy_time_s=0.25,
        )
        obs.record_batch(8, 0.5, [stats])
        speed = obs.metrics.get("repro_worker_scan_speed_vps")
        assert speed.value(worker="1") == pytest.approx(2000.0)
        assert obs.metrics.get("repro_queries_total").value() == 8

    def test_session_installs_and_restores_default(self):
        before = get_observability()
        with observability_session() as obs:
            assert get_observability() is obs
            assert obs.enabled
        assert get_observability() is before

    def test_set_observability_returns_previous(self):
        fresh = Observability(enabled=False)
        previous = set_observability(fresh)
        try:
            assert get_observability() is fresh
        finally:
            set_observability(previous)


class TestExporters:
    def _populated(self) -> Observability:
        obs = Observability(enabled=True)
        obs.record_scan("fastpq", 1000, 970)
        obs.record_cache_access(False)
        obs.record_cache_access(True)
        with obs.span("scan"):
            pass
        obs.record_batch(4, 0.01, [WorkerStats(worker_id=0)])
        return obs

    def test_prometheus_roundtrip(self):
        obs = self._populated()
        samples = parse_prometheus(to_prometheus(obs.metrics))
        assert samples['repro_pruning_rate{scanner="fastpq"}'] == pytest.approx(
            0.97
        )
        assert samples["repro_prepared_cache_hits_total"] == 1
        assert samples['repro_stage_latency_seconds_count{stage="scan"}'] == 1
        assert samples["repro_queries_total"] == 4

    def test_prometheus_has_help_and_type_headers(self):
        text = to_prometheus(self._populated().metrics)
        assert "# TYPE repro_pruning_rate gauge" in text
        assert "# TYPE repro_vectors_scanned_total counter" in text
        assert "# TYPE repro_stage_latency_seconds histogram" in text

    def test_json_snapshot_structure(self):
        import json

        data = json.loads(to_json(self._populated().metrics))
        assert set(data) == {"counters", "gauges", "histograms"}
        scanned = data["counters"]["repro_vectors_scanned_total"]
        assert scanned == [{"labels": {"scanner": "fastpq"}, "value": 1000.0}]
        hist = data["histograms"]["repro_stage_latency_seconds"][0]
        assert hist["buckets"]["+Inf"] == hist["count"] == 1

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(DatasetError):
            parse_prometheus("repro_x{unterminated 1")
        with pytest.raises(DatasetError):
            parse_prometheus("repro_x not-a-number")

    def test_write_snapshots_and_check(self, tmp_path):
        obs = self._populated()
        json_path = tmp_path / "obs.json"
        prom_path = tmp_path / "obs.prom"
        write_snapshots(obs.metrics, json_path=json_path, prom_path=prom_path)
        assert json_path.exists() and prom_path.exists()
        assert check_snapshot(prom_path, ["repro_pruning_rate"]) == []
        missing = check_snapshot(prom_path, ["repro_nonexistent_metric"])
        assert missing == ["repro_nonexistent_metric"]


class TestPipelineIntegration:
    """Observability threaded through the real batch engine."""

    def test_batch_stages_all_traced(self, index, dataset, engine_over):
        engine = engine_over(index, "fastpq")
        with observability_session() as obs:
            engine.search(dataset.queries, k=10, nprobe=2)
        stages = set(obs.tracer.stage_summary())
        assert {"route", "warm", "tables", "scan", "merge"} <= stages

    def test_single_query_path_traced(self, index, dataset, engine_over):
        engine = engine_over(index)
        with observability_session() as obs:
            engine.search(dataset.queries[0], k=10, nprobe=2)
        stages = set(obs.tracer.stage_summary())
        assert {"route", "tables", "scan", "merge"} <= stages

    def _assert_scan_counters(self, obs, name, results):
        n_scanned = sum(r.n_scanned for r in results)
        n_pruned = sum(r.n_pruned for r in results)
        assert n_scanned > 0
        scanned = obs.metrics.get("repro_vectors_scanned_total")
        pruned = obs.metrics.get("repro_vectors_pruned_total")
        assert scanned.value(scanner=name) == n_scanned
        assert pruned.value(scanner=name) == n_pruned
        gauge = obs.metrics.get("repro_pruning_rate").value(scanner=name)
        assert gauge == pytest.approx(n_pruned / n_scanned)

    @pytest.mark.parametrize("executor", ["sequential", "batch", "process"])
    @pytest.mark.parametrize("kind", SCANNER_KINDS)
    def test_scan_counters_recorded_per_scanner(
        self, index, index4bit, dataset, kind, executor, engine_over
    ):
        """Counted where every executor's block lands in the parent, so
        the counters equal the results whoever scanned: a process shard,
        a thread engine's batch, or its queries one at a time."""
        if kind == "quickadc":
            index = index4bit
        if executor == "process":
            scanner = ScannerSpec(kind, keep=0.01).build(index.pq)
            with _one_shard(index, scanner, backend="process") as workers:
                with observability_session() as obs:
                    results = workers.run(dataset.queries, topk=10, nprobe=2).results
        else:
            engine = engine_over(index, kind)
            with observability_session() as obs:
                if executor == "batch":
                    results = engine.search(dataset.queries, k=10, nprobe=2)
                else:
                    results = [
                        engine.search(query, k=10, nprobe=2)
                        for query in dataset.queries
                    ]
        self._assert_scan_counters(obs, kind, results)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_one_engine_records_everything_into_the_session(
        self, dataset, executor
    ):
        """The process default is the one sink: an engine's scans,
        prepared-cache lookups, pool spin-ups, writes, compaction and
        served requests all land in the active session, and nothing in
        the instance that was the default before it."""
        queries = dataset.queries
        with observability_session() as before:
            with observability_session() as obs, Engine.build(
                dataset.base[:4000], n_partitions=4, nprobe=2, max_iter=2,
                coarse_max_iter=2, scanner="fastpq", executor=executor,
                mutable=True,
            ) as engine:
                results = engine.search(queries, k=10)
                self._assert_scan_counters(obs, "fastpq", results)
                engine.add(queries[:2], np.array([10**6, 10**6 + 1]))
                engine.delete(np.array([7]))
                engine.compact()
                server = MicroBatchServer.for_engine(engine, k=5)

                async def serve():
                    async with server:
                        return await server.search(queries[0])

                assert asyncio.run(serve()).ok
        metric = obs.metrics.get
        hits = metric("repro_prepared_cache_hits_total").value()
        misses = metric("repro_prepared_cache_misses_total").value()
        if executor == "thread":
            assert hits > 0 and misses > 0
        else:
            # The workers' scanners prepare in their own processes,
            # which record nothing.
            assert hits == misses == 0
            assert metric("repro_pool_spinups_total").value(backend="process") == 2
        # One executor per epoch: built, then rebuilt by compact(). Only
        # thread shards have a gather pool; process shards are waited on
        # from the caller's thread.
        gather_pools = 2 if executor == "thread" else 0
        assert metric("repro_pool_spinups_total").value(backend="gather") == gather_pools
        assert metric("repro_mutations_total").value(op="add") == 1
        assert metric("repro_mutations_total").value(op="delete") == 1
        assert metric("repro_compactions_total").value() == 1
        assert metric("repro_serve_requests_total").value(status="ok") == 1
        assert {
            name for name in FAMILIES if before.metrics.get(name).samples()
        } == set()

    def test_prepared_cache_metrics(self, index, dataset, engine_over):
        engine = engine_over(index, "fastpq")
        with observability_session() as obs:
            engine.search(dataset.queries, k=5, nprobe=2)
        hits = obs.metrics.get("repro_prepared_cache_hits_total").value()
        misses = obs.metrics.get("repro_prepared_cache_misses_total").value()
        assert misses == index.n_partitions  # one build per probed partition
        assert hits > 0
        ratio = obs.metrics.get("repro_prepared_cache_hit_ratio").value()
        assert ratio == pytest.approx(hits / (hits + misses))

    def test_results_identical_with_and_without_observability(
        self, index, dataset, engine_over
    ):
        engine = engine_over(index, "fastpq")
        baseline = engine.search(dataset.queries, k=10, nprobe=2)
        with observability_session():
            instrumented = engine.search(dataset.queries, k=10, nprobe=2)
        for a, b in zip(baseline, instrumented):
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.distances.tobytes() == b.distances.tobytes()
            assert a.probed == b.probed

    def test_worker_metrics_from_batch_report(self, index, pq, dataset):
        with _one_shard(
            index, NaiveScanner(), backend="process", n_workers=2
        ) as workers:
            with observability_session() as obs:
                workers.run(dataset.queries, topk=10, nprobe=2)
        samples = obs.metrics.get("repro_worker_scan_speed_vps").samples()
        # one gauge per worker slot
        assert len(samples) == workers._executors[0].pool_size
        assert obs.metrics.get("repro_batches_total").value() == 1
        assert obs.metrics.get("repro_queries_total").value() == len(
            dataset.queries
        )

    def test_prometheus_export_of_live_run_parses(self, index, dataset, engine_over):
        engine = engine_over(index, "fastpq")
        with observability_session() as obs:
            engine.search(dataset.queries, k=10, nprobe=2)
        samples = parse_prometheus(obs.export_prometheus())
        assert any(k.startswith("repro_pruning_rate{") for k in samples)
        assert any(
            k.startswith("repro_stage_latency_seconds_bucket{") for k in samples
        )


class TestBenchEmission:
    def test_snapshot_run_contains_observability(self):
        obs, summary = run_snapshot(
            scale=20000, n_queries=8, topk=10, nprobe=2, scanner_name="naive"
        )
        samples = parse_prometheus(obs.export_prometheus())
        assert any(k.startswith("repro_pruning_rate") for k in samples)
        assert samples["repro_queries_total"] == 8
        counters = obs.metrics.snapshot()["counters"]
        assert counters["repro_vectors_scanned_total"]
        assert summary["n_queries"] == 8
        assert summary["stage_latency"]["scan"]["count"] > 0


# -- the family table --------------------------------------------------------

#: Samples the facade exported for :func:`_record_sequence` before the
#: families became one table; the table must export the same numbers.
PINNED_SAMPLES = Path(__file__).parent / "data" / "obs_record_sequence.txt"


def _record_sequence(obs):
    """Every record method in a fixed order, eight threads recording scans
    at once first; returns the pruning rates a reader saw meanwhile."""
    done = threading.Event()
    seen = []

    def read_rates():
        rate = obs.metrics.get("repro_pruning_rate")
        while not done.is_set():
            seen.extend(value for _, value in rate.samples())

    def scans(thread):
        # Each call prunes all it scans, so the rate is 1 throughout: a
        # read that took the scanned count before the pruned one would
        # see more pruned than scanned.
        for _ in range(300):
            obs.record_scan("fastpq", 1000 + thread, 1000 + thread)

    reader = threading.Thread(target=read_rates)
    reader.start()
    writers = [threading.Thread(target=scans, args=(t,)) for t in range(8)]
    for t in writers:
        t.start()
    for t in writers:
        t.join(timeout=30)
    done.set()
    reader.join(timeout=30)
    assert not any(t.is_alive() for t in (reader, *writers))
    obs.record_scan("fastpq", 64_000, 3)
    obs.record_scan("naive", 4096, 0)
    obs.record_scan("qonly", 0, 0)
    for hit in (False, True, True, False, True, True, True):
        obs.record_cache_access(hit)
    stats = WorkerStats(worker_id=0)
    stats.record_job(
        n_scans=3, n_vectors_scanned=3000, n_vectors_pruned=2900,
        busy_time_s=0.004,
    )
    obs.record_batch(32, 0.0125, [stats, WorkerStats(worker_id=1)])
    obs.record_batch(8, 0.5)
    obs.record_shard("0", 0.002, "ok")
    obs.record_shard("1", 0.75, "timeout")
    obs.record_shard("1", 0.01, "failed")
    obs.record_shard_retry("1")
    for partial in (False, False, True):
        obs.record_gather(partial)
    obs.record_gather_overlap(0.0003)
    obs.record_pool_spinup("gather")
    obs.record_pool_reuse("gather")
    obs.record_pool_reuse("gather")
    obs.record_request("ok", 0.001, 0.004)
    obs.record_request("overload")
    obs.record_flush(4, "size")
    obs.record_flush(1, "idle")
    obs.record_mutation("add", 3, 3, 0)
    obs.record_mutation("delete", 2, 3, 2)
    obs.record_compaction(0.3, 1, 0, 0)
    return seen


class TestSameExportedNumbers:
    def test_record_sequence_exports_the_pinned_samples(self):
        obs = Observability(enabled=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so races show
        try:
            seen = _record_sequence(obs)
        finally:
            sys.setswitchinterval(interval)
        assert seen and max(seen) <= 1.0
        lines = obs.export_prometheus().splitlines()
        samples = [line for line in lines if not line.startswith("#")]
        assert samples == PINNED_SAMPLES.read_text().splitlines()

    def test_a_write_between_the_two_reads_keeps_the_rate_at_most_1(self):
        obs = Observability(enabled=True)
        obs.record_scan("fastpq", 100, 100)
        scanned = obs.metrics.get("repro_vectors_scanned_total")
        read = scanned._items

        def read_then_write():
            items = read()
            obs.record_scan("fastpq", 100, 100)  # lands between the reads
            return items

        scanned._items = read_then_write
        assert obs.metrics.get("repro_pruning_rate").value(scanner="fastpq") == 1.0


#: Families only a fault writes, each with the fault test asserting it.
FAULT_ONLY = {
    "repro_shard_timeouts_total": (
        "test_shard.py", "test_stalled_shard_yields_partial_within_deadline"
    ),
    "repro_shard_failures_total": (
        "test_shard.py", "test_degraded_run_records_partial_and_failure"
    ),
    "repro_shard_retries_total": (
        "test_shard.py", "test_degraded_run_records_partial_and_failure"
    ),
    "repro_partial_results_total": (
        "test_shard.py", "test_degraded_run_records_partial_and_failure"
    ),
}


class TestEveryFamilyIsWritten:
    def test_a_served_mutable_sharded_engine_writes_every_family(self, dataset):
        config = ServeConfig(max_batch=4, max_delay_s=0.002)
        queries = dataset.queries
        with observability_session() as obs, Engine.build(
            dataset.base[:4000], n_partitions=4, nprobe=2, max_iter=2,
            coarse_max_iter=2, scanner="fastpq", n_shards=2,
            executor="thread", mutable=True,
        ) as engine:
            server = MicroBatchServer.for_engine(engine, k=5, config=config)

            async def serve():
                async with server:
                    return await asyncio.gather(
                        *(server.search(q) for q in queries),
                        server.add(queries[0], 1_000_000),
                        server.delete(7),
                        *(server.search(q) for q in queries),
                    )

            assert all(r.ok for r in asyncio.run(serve()))
            engine.compact()
        silent = [
            name for name in FAMILIES
            if name not in FAULT_ONLY and not obs.metrics.get(name).samples()
        ]
        assert silent == []

    @pytest.mark.parametrize("family", sorted(FAULT_ONLY))
    def test_a_fault_only_family_is_asserted_by_its_fault_test(self, family):
        filename, test = FAULT_ONLY[family]
        source = (Path(__file__).parent / filename).read_text()
        (node,) = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == test
        ]
        assert f'"{family}"' in ast.get_source_segment(source, node)
