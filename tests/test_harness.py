"""Edge-case tests for the benchmark harness plumbing."""

import numpy as np
import pytest

from repro import NaiveScanner, PQFastScanner, QuantizationOnlyScanner
from repro.bench import HarnessContext, build_workload, run_queries, summarize
from repro.bench.harness import QueryStats


@pytest.fixture(scope="module")
def tiny_ctx(tmp_path_factory):
    cache = tmp_path_factory.mktemp("harness-cache")
    workload = build_workload(
        "sift100m", scale=5000, n_queries=6, seed=5, cache_dir=cache
    )
    return HarnessContext(workload)


class TestRunQueries:
    def test_naive_scanner_has_no_model(self, tiny_ctx):
        stats = run_queries(
            tiny_ctx, NaiveScanner(), query_indexes=[0, 1], topk=5,
        )
        for s in stats:
            assert s.modeled_time_ms is None
            assert s.pruned_fraction == 0.0
            assert s.exact_match  # vacuously: no reference configured

    def test_quantization_only_verified_against_libpq(self, tiny_ctx):
        scanner = QuantizationOnlyScanner(tiny_ctx.workload.pq, keep=0.02)
        stats = run_queries(
            tiny_ctx, scanner, query_indexes=[0], topk=5,
            verify_against=NaiveScanner(),
        )
        assert stats[0].exact_match

    def test_partition_override(self, tiny_ctx):
        scanner = PQFastScanner(
            tiny_ctx.workload.pq, keep=0.02, group_components=1, seed=0
        )
        stats = run_queries(
            tiny_ctx, scanner, query_indexes=[0, 1], topk=5,
            partition_override=0,
        )
        assert all(s.partition_id == 0 for s in stats)

    def test_scanner_is_warmed_before_the_clock_starts(self, tiny_ctx):
        """``wall_time_s`` times a scan, not the one-off layout build."""
        events = []

        class Recording(NaiveScanner):
            def warm(self, partitions):
                events.append("warm")
                return 0

            def scan(self, tables, partition, topk=1):
                events.append("scan")
                return super().scan(tables, partition, topk)

        stats = run_queries(tiny_ctx, Recording(), query_indexes=[0, 1], topk=5)
        assert events == ["warm", "scan", "warm", "scan"]
        assert summarize(stats)["wall_median_ms"] == pytest.approx(
            np.median([s.wall_time_s for s in stats]) * 1e3
        )

    def test_cost_model_cached_per_arch(self, tiny_ctx):
        scanner = PQFastScanner(
            tiny_ctx.workload.pq, keep=0.02, group_components=1, seed=0
        )
        a = tiny_ctx.cost_model("haswell", scanner)
        b = tiny_ctx.cost_model("haswell", scanner)
        assert a is b
        c = tiny_ctx.cost_model("nehalem", scanner)
        assert c is not a
        assert c.clock_ghz != a.clock_ghz


class TestSummarize:
    def _stat(self, pruned, speed=None):
        return QueryStats(
            query_index=0, partition_id=0, partition_size=100,
            pruned_fraction=pruned, n_exact=1, n_keep=1, wall_time_s=0.1,
            modeled_time_ms=None if speed is None else 1.0,
            modeled_speed_vps=speed, exact_match=True,
        )

    def test_empty_batch(self):
        summary = summarize([])
        assert summary["n_queries"] == 0
        assert summary["all_exact"] is True
        assert "wall_median_ms" not in summary

    def test_quartiles_present_with_speeds(self):
        stats = [self._stat(0.5, speed=1e9), self._stat(0.9, speed=3e9)]
        summary = summarize(stats)
        assert summary["pruned_mean"] == pytest.approx(0.7)
        assert summary["speed_q1_mvps"] <= summary["speed_median_mvps"]
        assert summary["speed_median_mvps"] <= summary["speed_q3_mvps"]

    def test_no_speed_fields_without_model(self):
        summary = summarize([self._stat(0.5)])
        assert "speed_median_mvps" not in summary


class TestWorkloadExtras:
    def test_partitions_by_size_descending(self, tiny_ctx):
        order = tiny_ctx.workload.partitions_by_size()
        sizes = tiny_ctx.workload.index.partition_sizes()
        assert list(sizes[order]) == sorted(sizes, reverse=True)

    def test_queries_for_partition_consistent(self, tiny_ctx):
        w = tiny_ctx.workload
        for pid in range(w.index.n_partitions):
            for qi in w.queries_for_partition(pid):
                assert w.query_partitions[qi] == pid

    def test_sift1b_partition_sizing(self, tmp_path):
        w = build_workload(
            "sift1b", scale=20000, n_queries=4, seed=6, cache_dir=tmp_path
        )
        # 1e9/20000 = 50K base; partition count clamps to the minimum 4.
        assert len(w.index.partition_sizes()) == 4
        assert len(w.index) == 50_000
