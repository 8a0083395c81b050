"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import ANNSearcher, Engine, NaiveScanner, PQFastScanner
from repro.engine import SCANNER_KINDS
from repro.exceptions import ConfigurationError, DatasetError
from repro.obs import (
    Observability,
    MetricsRegistry,
    NULL_SPAN,
    STAGE_LATENCY_METRIC,
    Tracer,
    get_observability,
    observability_session,
    parse_prometheus,
    set_observability,
    to_json,
    to_prometheus,
    write_snapshots,
)
from repro.obs.snapshot import check_snapshot, run_snapshot
from repro.parallel import ScannerSpec
from repro.simd.counters import WorkerStats


class TestMetricsPrimitives:
    def test_counter_accumulates_per_label(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", labelnames=("scanner",))
        c.inc(3, scanner="naive")
        c.inc(2, scanner="naive")
        c.inc(1, scanner="fastpq")
        assert c.value(scanner="naive") == 5
        assert c.value(scanner="fastpq") == 1
        assert c.value(scanner="never") == 0

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_label_mismatch_rejected(self):
        c = MetricsRegistry().counter("repro_test_total", labelnames=("a",))
        with pytest.raises(ConfigurationError):
            c.inc(1, b="x")
        with pytest.raises(ConfigurationError):
            c.inc(1)

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("bad name")
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("ok_name", labelnames=("bad-label",))

    def test_gauge_last_value_wins(self):
        g = MetricsRegistry().gauge("repro_test_gauge")
        g.set(1.5)
        g.set(0.25)
        assert g.value() == 0.25

    def test_histogram_cumulative_buckets(self):
        h = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(0.01, 0.1, 1.0)
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
            reg.histogram("repro_h1_seconds", buckets=())
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h2_seconds", buckets=(1.0, 0.5))
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h3_seconds", buckets=(1.0, float("inf")))

    def test_registry_get_or_create_and_kind_conflicts(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_x_total", labelnames=("a",))
        assert reg.counter("repro_x_total", labelnames=("a",)) is c1
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_x_total")
        with pytest.raises(ConfigurationError):
            reg.counter("repro_x_total", labelnames=("b",))

    def test_counters_are_thread_safe(self):
        c = MetricsRegistry().counter("repro_thread_total")

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


#: Tier-1 turns the GIL advisory into an error; the tests below ask for
#: thread ``n_workers>1`` on purpose.
gil_bound_on_purpose = pytest.mark.filterwarnings(
    "ignore:BatchExecutor with n_workers:RuntimeWarning"
)


class TestPipelineIntegration:
    """Observability threaded through the real batch engine."""

    def _searcher(self, index, pq, scanner_cls):
        if scanner_cls is NaiveScanner:
            return ANNSearcher(index, NaiveScanner())
        return ANNSearcher(index, PQFastScanner(pq, keep=0.01, seed=0))

    @gil_bound_on_purpose
    def test_batch_stages_all_traced(self, index, pq, dataset):
        searcher = self._searcher(index, pq, PQFastScanner)
        with observability_session() as obs:
            searcher.search(
                dataset.queries, topk=10, nprobe=2, n_workers=2
            )
        stages = set(obs.tracer.stage_summary())
        assert {"route", "warm", "tables", "scan", "merge"} <= stages

    def test_single_query_path_traced(self, index, pq, dataset):
        searcher = self._searcher(index, pq, NaiveScanner)
        with observability_session() as obs:
            searcher.search(dataset.queries[0], topk=10, nprobe=2)
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
        self, index, index4bit, dataset, kind, executor
    ):
        """Counted where every executor's block lands in the parent, so
        the counters equal the results whoever scanned."""
        if kind == "quickadc":
            index = index4bit
        scanner = ScannerSpec(kind, keep=0.01).build(index.pq)
        with ANNSearcher(index, scanner) as searcher, observability_session() as obs:
            results = searcher.search(
                dataset.queries, topk=10, nprobe=2, executor=executor
            )
        self._assert_scan_counters(obs, kind, results)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scan_counters_reach_an_explicit_handle(self, dataset, executor):
        """A handle that is not the process default gets the scans too."""
        handle = Observability(enabled=True)
        with Engine.build(
            dataset.base[:4000], n_partitions=4, nprobe=2, max_iter=2,
            coarse_max_iter=2, scanner="fastpq", executor=executor,
            observability=handle,
        ) as engine:
            results = engine.search(dataset.queries, k=10)
        assert not get_observability().enabled
        self._assert_scan_counters(handle, "fastpq", results)

    def test_prepared_cache_metrics(self, index, pq, dataset):
        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        searcher = ANNSearcher(index, scanner)
        with observability_session() as obs:
            searcher.search(dataset.queries, topk=5, nprobe=2)
        hits = obs.metrics.get("repro_prepared_cache_hits_total").value()
        misses = obs.metrics.get("repro_prepared_cache_misses_total").value()
        assert misses == index.n_partitions  # one build per probed partition
        assert hits > 0
        ratio = obs.metrics.get("repro_prepared_cache_hit_ratio").value()
        assert ratio == pytest.approx(hits / (hits + misses))

    @gil_bound_on_purpose
    def test_results_identical_with_and_without_observability(
        self, index, pq, dataset
    ):
        searcher = self._searcher(index, pq, PQFastScanner)
        baseline = searcher.search(
            dataset.queries, topk=10, nprobe=2, n_workers=2
        )
        with observability_session():
            instrumented = searcher.search(
                dataset.queries, topk=10, nprobe=2, n_workers=2
            )
        for a, b in zip(baseline, instrumented):
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.distances.tobytes() == b.distances.tobytes()
            assert a.probed == b.probed

    @gil_bound_on_purpose
    def test_worker_metrics_from_batch_report(self, index, pq, dataset):
        searcher = self._searcher(index, pq, NaiveScanner)
        with observability_session() as obs:
            searcher.search(
                dataset.queries, topk=10, nprobe=2, n_workers=2
            )
        samples = obs.metrics.get("repro_worker_scan_speed_vps").samples()
        assert len(samples) == 2  # one gauge per worker slot
        assert obs.metrics.get("repro_batches_total").value() == 1
        assert obs.metrics.get("repro_queries_total").value() == len(
            dataset.queries
        )

    def test_explicit_observability_on_executor(self, index, pq, dataset):
        from repro import BatchExecutor

        default_before = get_observability().metrics.get(
            "repro_queries_total"
        ).value()
        obs = Observability(enabled=True)
        executor = BatchExecutor(
            index, NaiveScanner(), n_workers=1, observability=obs
        )
        executor.run(dataset.queries[:2], topk=5, nprobe=1)
        assert obs.metrics.get("repro_queries_total").value() == 2
        # the process default stayed untouched
        assert (
            get_observability().metrics.get("repro_queries_total").value()
            == default_before
        )

    def test_prometheus_export_of_live_run_parses(self, index, pq, dataset):
        searcher = self._searcher(index, pq, PQFastScanner)
        with observability_session() as obs:
            searcher.search(dataset.queries, topk=10, nprobe=2)
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
