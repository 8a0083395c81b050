"""Sharded scatter-gather engine: identity, degradation, persistence."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import PQFastScanner
from repro.exceptions import ConfigurationError, DatasetError
from repro.ivf import IVFADCIndex
from repro.obs import observability_session
from repro.persistence import load_sharded_index, save_sharded_index
from repro.scan import NaiveScanner
from repro.scan.base import NO_IDS, ScanResult
from repro.search import BatchPlanner, PartitionScanner
from repro.shard import (
    STATE_FAILED,
    STATE_OK,
    STATE_TIMEOUT,
    IndexShard,
    ScatterGatherExecutor,
    ShardedIndex,
)

from .oracle import oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")


@pytest.fixture(scope="module")
def index8(dataset, pq):
    """An 8-partition index (enough cells for interesting shard layouts)."""
    return IVFADCIndex(pq, n_partitions=8, seed=3).add(dataset.base)


@pytest.fixture(scope="module")
def batch_queries(dataset):
    return dataset.queries[:20]


def _scanner_factories(pq):
    return {
        "naive": lambda: NaiveScanner(),
        "fastpq": lambda: PQFastScanner(pq, keep=0.01, seed=0),
    }


def _plan(sharded, queries, **kwargs):
    """The global plan and its per-shard sub-plans, split as the
    executor splits them."""
    plan = BatchPlanner(sharded.global_view).plan(queries, **kwargs)
    with ScatterGatherExecutor(sharded, NaiveScanner, backend="thread") as executor:
        return plan, executor._split(plan)


def _assert_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.ids.tobytes() == rb.ids.tobytes()
        assert ra.distances.tobytes() == rb.distances.tobytes()
        assert ra.probed == rb.probed
        assert ra.n_scanned == rb.n_scanned
        assert ra.n_pruned == rb.n_pruned


def _assert_unsharded(index, queries, topk, nprobe, results):
    """``results`` hold the oracle's ids and distances, and the scan
    statistics of one thread shard over all of ``index``."""
    assert same_as_oracle(results, oracle_search(index, queries, topk, nprobe))
    with ScatterGatherExecutor(
        ShardedIndex.from_index(index, n_shards=1), NaiveScanner, backend="thread"
    ) as executor:
        _assert_identical(
            executor.run(queries, topk=topk, nprobe=nprobe).results, results
        )


# -- ShardedIndex layout --------------------------------------------------------


class TestShardedIndex:
    def test_from_index_modulo_layout(self, index8):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        assert sharded.n_shards == 3
        assert sharded.n_partitions == 8
        for pid in range(8):
            assert sharded.owners[pid] == pid % 3

    def test_partitions_are_shared_not_copied(self, index8):
        sharded = ShardedIndex.from_index(index8, n_shards=4)
        for pid, partition in enumerate(sharded.global_view.partitions):
            assert partition is index8.partitions[pid]

    def test_total_vectors_preserved(self, index8):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        assert len(sharded) == len(index8)
        assert sum(len(s) for s in sharded.shards) == len(index8)
        assert np.array_equal(
            sharded.global_view.partition_sizes(), index8.partition_sizes()
        )

    def test_routing_matches_unsharded(self, index8, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        assert np.array_equal(
            sharded.global_view.route_batch(batch_queries, nprobe=4),
            index8.route_batch(batch_queries, nprobe=4),
        )

    def test_tables_match_unsharded(self, index8, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        for pid in range(8):
            np.testing.assert_array_equal(
                sharded.shards[sharded.owners[pid]].index.distance_tables_for_batch(
                    batch_queries, pid
                ),
                index8.distance_tables_for_batch(batch_queries, pid),
            )

    def test_n_shards_bounds(self, index8):
        with pytest.raises(ConfigurationError):
            ShardedIndex.from_index(index8, n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedIndex.from_index(index8, n_shards=9)

    def test_unknown_layout_rejected(self, index8):
        with pytest.raises(ConfigurationError):
            ShardedIndex.from_index(index8, n_shards=2, layout="hashed")

    def test_double_ownership_rejected(self, index8):
        shards = list(ShardedIndex.from_index(index8, n_shards=2).shards)
        bad = IndexShard(
            shard_id=1,
            index=shards[1].index,
            partition_ids=shards[1].partition_ids + (0,),
        )
        with pytest.raises(ConfigurationError, match="owned by both"):
            ShardedIndex([shards[0], bad])

    def test_unowned_partition_rejected(self, index8):
        shards = list(ShardedIndex.from_index(index8, n_shards=2).shards)
        bad = IndexShard(
            shard_id=1,
            index=shards[1].index,
            partition_ids=shards[1].partition_ids[:-1],
        )
        with pytest.raises(ConfigurationError, match="no shard"):
            ShardedIndex([shards[0], bad])


# -- router ---------------------------------------------------------------------


class TestShardRouter:
    def test_subplans_partition_the_global_jobs(self, index8, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        plan, subplans = _plan(sharded, batch_queries, topk=10, nprobe=4)
        scattered = [job for sub in subplans.values() for job in sub.jobs]
        assert sorted(j.partition_id for j in scattered) == sorted(
            j.partition_id for j in plan.jobs
        )
        for shard_id, sub in subplans.items():
            assert sub.queries is plan.queries
            assert sub.probed is plan.probed
            for job in sub.jobs:
                assert sharded.owners[job.partition_id] == shard_id

    def test_planning_never_rebuilds_the_partition_list(
        self, index8, batch_queries, monkeypatch
    ):
        # The plan is sized against the layout's one global view; the
        # `partitions` property used to rebuild its list once per job.
        # The layout has no such property; the spy installs one no run reads.
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        reads = []
        monkeypatch.setattr(
            ShardedIndex,
            "partitions",
            property(lambda self: reads.append(1) or self.global_view.partitions),
            raising=False,
        )
        with executor:
            plan = executor.planner.plan(batch_queries, nprobe=4)
            subplans = executor._split(plan)
            assert len(plan.jobs) > 1 and len(subplans) == 2
            response = executor.run(batch_queries, topk=10, nprobe=4)
        assert not response.partial
        assert reads == []


# -- healthy-path byte-identity -------------------------------------------------


class TestScatterGatherIdentity:
    @pytest.mark.parametrize("kind", ["naive", "fastpq"])
    @pytest.mark.parametrize("nprobe", [1, 3, 8])
    def test_identical_to_unsharded(self, index8, pq, batch_queries, kind, nprobe):
        factory = _scanner_factories(pq)[kind]
        expected = oracle_search(index8, batch_queries, 10, nprobe)
        baseline = None
        for n_shards in (1, 3, 8):
            sharded = ShardedIndex.from_index(index8, n_shards=n_shards)
            # backend="thread" exercises the same streaming gather/merge
            # path as the process default without 27 process-pool spawns.
            executor = ScatterGatherExecutor(sharded, factory, backend="thread")
            response = executor.run(batch_queries, topk=10, nprobe=nprobe)
            assert not response.partial
            assert all(s.state == STATE_OK for s in response.shard_statuses)
            assert same_as_oracle(response.results, expected)
            # Scan statistics too: every split scans what one shard does.
            baseline = baseline or response.results
            _assert_identical(baseline, response.results)

    def test_single_query_batch(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        response = executor.run(batch_queries[0], topk=5, nprobe=2)
        assert len(response.results) == 1
        assert same_as_oracle(
            response.results, oracle_search(index8, batch_queries[0], 5, 2)
        )

    def test_empty_batch(self, index8, pq):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        response = executor.run(np.empty((0, 128)), topk=5)
        assert response.results == [] and not response.partial

    def test_unprobed_shards_report_ok_with_zero_jobs(self, index8, pq):
        # nprobe=1 with a handful of queries leaves some shards idle.
        sharded = ShardedIndex.from_index(index8, n_shards=8)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        query = np.asarray(index8.coarse.codebook[0], dtype=np.float64)
        response = executor.run(query[None, :], topk=5, nprobe=1)
        assert not response.partial
        idle = [s for s in response.shard_statuses if s.n_jobs == 0]
        assert idle and all(s.state == STATE_OK for s in idle)

    def test_worker_stats_combined(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        response = executor.run(batch_queries, topk=10, nprobe=8)
        total_jobs = sum(s.n_jobs for s in response.shard_statuses)
        assert sum(w.n_jobs for w in response.worker_stats) == total_jobs
        assert response.queries_per_second > 0
        payload = response.as_dict()
        assert payload["n_queries"] == len(batch_queries)
        assert len(payload["shards"]) == 3


# -- graceful degradation -------------------------------------------------------


class _StallingScanner(PartitionScanner):
    """Blocks inside scan_batch() until released — a stalled/hung shard."""

    name = "stalling"

    def __init__(self, release: threading.Event):
        self.release = release

    def scan_batch(self, tables, partition, topk=1, tombstones=NO_IDS):
        self.release.wait()
        return NaiveScanner().scan_batch(tables, partition, topk, tombstones)


class _FlakyScanner(PartitionScanner):
    """Raises on the first ``fail_times`` scans, then recovers."""

    name = "flaky"

    def __init__(self, fail_times: int):
        self.fail_times = fail_times
        self.calls = 0
        self._inner = NaiveScanner()

    def scan_batch(self, tables, partition, topk=1, tombstones=NO_IDS):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("transient shard fault")
        return self._inner.scan_batch(tables, partition, topk, tombstones)


class TestGracefulDegradation:
    def test_stalled_shard_yields_partial_within_deadline(
        self, index8, pq, batch_queries
    ):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        release = threading.Event()
        scanners = [NaiveScanner(), _StallingScanner(release)]
        executor = ScatterGatherExecutor(
            sharded, scanners, deadline_s=0.5, backend="thread"
        )
        with observability_session() as obs:
            try:
                start = time.perf_counter()
                response = executor.run(batch_queries, topk=10, nprobe=8)
                elapsed = time.perf_counter() - start
            finally:
                release.set()
        assert elapsed < 5.0  # returned promptly, did not join the stall
        assert response.partial
        assert response.status_for(0).state == STATE_OK
        assert response.status_for(1).state == STATE_TIMEOUT
        assert "deadline" in response.status_for(1).error
        timeouts = obs.metrics.get("repro_shard_timeouts_total")
        assert timeouts.samples() == [({"shard": "1"}, 1.0)]
        # Healthy-shard scans still produced results for every query.
        assert len(response.results) == len(batch_queries)
        for result in response.results:
            assert len(result.ids) > 0

    def test_stalled_single_shard_is_abandoned_through_the_pool(
        self, index8, batch_queries
    ):
        # One shard and a deadline: the only part still goes to the
        # gather pool, because the caller's thread could not abandon it.
        sharded = ShardedIndex.from_index(index8, n_shards=1)
        release = threading.Event()
        with ScatterGatherExecutor(
            sharded, [_StallingScanner(release)], deadline_s=0.3,
            backend="thread",
        ) as executor:
            try:
                start = time.perf_counter()
                response = executor.run(batch_queries, topk=10, nprobe=8)
                elapsed = time.perf_counter() - start
            finally:
                release.set()
            assert elapsed < 5.0
            assert response.partial
            assert [s.state for s in response.shard_statuses] == [STATE_TIMEOUT]
            assert all(len(r.ids) == 0 for r in response.results)
            assert all(len(r.probed) == 8 for r in response.results)
            time.sleep(0.05)  # let the straggler drain
            healthy = executor.run(batch_queries, topk=10, nprobe=8)
        assert not healthy.partial
        _assert_unsharded(index8, batch_queries, 10, 8, healthy.results)

    def test_partial_results_match_healthy_subset(self, index8, pq, batch_queries):
        # The partial answer must equal a merge over only the healthy
        # shard's partitions — degraded, but deterministic.
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        release = threading.Event()
        executor = ScatterGatherExecutor(
            sharded,
            [NaiveScanner(), _StallingScanner(release)],
            deadline_s=0.5,
            backend="thread",
        )
        try:
            response = executor.run(batch_queries, topk=10, nprobe=8)
        finally:
            release.set()
        healthy = {pid for pid in range(8) if sharded.owners[pid] == 0}
        scanner = NaiveScanner()
        for query, result in zip(batch_queries, response.results):
            # Probed records intent (all partitions), results only hold
            # candidates from the healthy shard's partitions.
            assert set(result.probed) == set(range(8))
            candidates: list[np.ndarray] = []
            for pid in sorted(healthy):
                tables = index8.distance_tables_for(query, pid)
                candidates.append(
                    scanner.scan(tables, index8.partitions[pid], topk=10).ids
                )
            healthy_ids = set(np.concatenate(candidates).tolist())
            assert set(result.ids.tolist()) <= healthy_ids

    def test_failed_shard_exhausts_retries(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        executor = ScatterGatherExecutor(
            sharded,
            [NaiveScanner(), _FlakyScanner(fail_times=100)],
            max_retries=1,
            backoff_s=0.0,
            backend="thread",
        )
        response = executor.run(batch_queries, topk=10, nprobe=8)
        assert response.partial
        status = response.status_for(1)
        assert status.state == STATE_FAILED
        assert status.attempts == 2  # initial + 1 retry
        assert "transient shard fault" in status.error

    def test_transient_failure_recovers_via_retry(self, index8, pq, batch_queries):
        # n_shards=1: the single part (no deadline) is scanned, and
        # retried, on the caller's thread.
        for n_shards in (2, 1):
            sharded = ShardedIndex.from_index(index8, n_shards=n_shards)
            scan_threads: set[str] = set()

            class Flaky(_FlakyScanner):
                def scan_batch(self, tables, partition, topk=1, tombstones=NO_IDS):
                    scan_threads.add(threading.current_thread().name)
                    return super().scan_batch(tables, partition, topk, tombstones)

            executor = ScatterGatherExecutor(
                sharded,
                [NaiveScanner()] * (n_shards - 1) + [Flaky(fail_times=1)],
                max_retries=2,
                backoff_s=0.0,
                backend="thread",
            )
            with executor:
                response = executor.run(batch_queries, topk=10, nprobe=8)
            assert not response.partial
            assert response.status_for(n_shards - 1).state == STATE_OK
            assert response.status_for(n_shards - 1).attempts == 2
            _assert_unsharded(index8, batch_queries, 10, 8, response.results)
            on_caller = scan_threads == {threading.current_thread().name}
            assert on_caller == (n_shards == 1)

    def test_configuration_error_is_not_swallowed(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        with pytest.raises(ConfigurationError):
            executor.run(batch_queries, topk=10, nprobe=99)

    def test_scanner_count_must_match_shards(self, index8, pq):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        with pytest.raises(ConfigurationError, match="one scanner per shard"):
            ScatterGatherExecutor(sharded, [NaiveScanner()])

    def test_invalid_knobs_rejected(self, index8, pq):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        factory = lambda: NaiveScanner()  # noqa: E731
        with pytest.raises(ConfigurationError):
            ScatterGatherExecutor(sharded, factory, n_workers=0)
        with pytest.raises(ConfigurationError):
            ScatterGatherExecutor(sharded, factory, deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            ScatterGatherExecutor(sharded, factory, max_retries=-1)
        with pytest.raises(ConfigurationError):
            ScatterGatherExecutor(sharded, factory, backoff_s=-0.1)
        with pytest.raises(ConfigurationError, match="backend"):
            ScatterGatherExecutor(sharded, factory, backend="fiber")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_workers": 1.5}, "n_workers must be an integer"),
            ({"max_retries": 0.5}, "max_retries must be an integer"),
            ({"deadline_s": float("nan")}, "deadline_s must be a finite"),
            ({"deadline_s": float("inf")}, "deadline_s must be a finite"),
            ({"backoff_s": float("nan")}, "backoff_s must be a finite"),
            ({"backoff_s": float("inf")}, "backoff_s must be a finite"),
        ],
    )
    def test_counts_and_timings_refused_at_construction(self, index8, kwargs, match):
        """``backoff_s=nan`` used to surface as ``time.sleep``'s bare
        ``ValueError`` on the first retry, inside a run."""
        sharded = ShardedIndex.from_index(index8, n_shards=1)
        with pytest.raises(ConfigurationError, match=match):
            ScatterGatherExecutor(sharded, [NaiveScanner()], backend="thread", **kwargs)


# -- observability --------------------------------------------------------------


class TestShardObservability:
    def test_healthy_run_records_latency_and_gather(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with observability_session() as obs:
            executor = ScatterGatherExecutor(
                sharded, lambda: NaiveScanner(), backend="thread"
            )
            executor.run(batch_queries, topk=10, nprobe=8)
        snapshot = obs.snapshot()
        assert "repro_shard_latency_seconds" in snapshot["histograms"]
        assert "repro_gathers_total" in snapshot["counters"]
        prom = obs.export_prometheus()
        assert "repro_shard_latency_seconds" in prom
        assert 'shard="0"' in prom

    def test_degraded_run_records_partial_and_failure(
        self, index8, pq, batch_queries
    ):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with observability_session() as obs:
            executor = ScatterGatherExecutor(
                sharded,
                [NaiveScanner(), _FlakyScanner(fail_times=100)],
                max_retries=1,
                backoff_s=0.0,
                backend="thread",
            )
            executor.run(batch_queries, topk=10, nprobe=8)
            registry = obs.metrics
            assert registry.get("repro_shard_failures_total").value(shard="1") == 1.0
            assert registry.get("repro_shard_retries_total").value(shard="1") == 1.0
            assert registry.get("repro_partial_results_total").value() == 1.0
            assert registry.get("repro_partial_result_rate").value() == 1.0


# -- persistence ----------------------------------------------------------------


class TestShardedPersistence:
    def test_round_trip_answers_identically(
        self, index8, pq, batch_queries, tmp_path
    ):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        path = tmp_path / "layout"
        save_sharded_index(sharded, path)
        loaded = load_sharded_index(path)
        assert loaded.n_shards == 3
        assert len(loaded) == len(index8)
        assert np.array_equal(loaded.owners, sharded.owners)
        response = ScatterGatherExecutor(
            loaded, lambda: NaiveScanner(), backend="thread"
        ).run(batch_queries, topk=10, nprobe=4)
        assert not response.partial
        _assert_unsharded(index8, batch_queries, 10, 4, response.results)

    def test_save_is_atomic_per_file(self, index8, tmp_path):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        path = tmp_path / "layout"
        save_sharded_index(sharded, path)
        save_sharded_index(sharded, path)  # overwrite in place is fine
        assert sorted(p.name for p in path.iterdir()) == [
            "manifest.npz",
            "shard_0000.npz",
            "shard_0001.npz",
        ]

    def test_missing_directory_raises_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="no such directory"):
            load_sharded_index(tmp_path / "nope")

    def test_file_path_raises_dataset_error(self, tmp_path):
        target = tmp_path / "file.npz"
        target.write_bytes(b"junk")
        with pytest.raises(DatasetError, match="not a directory"):
            load_sharded_index(target)

    def test_missing_manifest_raises_dataset_error(self, index8, tmp_path):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        path = tmp_path / "layout"
        save_sharded_index(sharded, path)
        (path / "manifest.npz").unlink()
        with pytest.raises(DatasetError):
            load_sharded_index(path)

    def test_missing_shard_file_raises_dataset_error(self, index8, tmp_path):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        path = tmp_path / "layout"
        save_sharded_index(sharded, path)
        (path / "shard_0001.npz").unlink()
        with pytest.raises(DatasetError):
            load_sharded_index(path)

    def test_mixed_build_shards_rejected(self, index8, dataset, pq, tmp_path):
        # Shard files from two different builds in one directory must be
        # caught by the cross-shard consistency check at load time.
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        other_index = IVFADCIndex(pq, n_partitions=8, seed=9).add(
            dataset.base[: len(dataset.base) // 2]
        )
        other = ShardedIndex.from_index(other_index, n_shards=2)
        path = tmp_path / "layout"
        save_sharded_index(sharded, path)
        from repro.persistence import save_index

        save_index(other.shards[1].index, path / "shard_0001.npz")
        with pytest.raises(DatasetError, match="inconsistent shard set"):
            load_sharded_index(path)


# -- streaming merge ------------------------------------------------------------


class TestStreamingMerger:
    """The incremental merge must be byte-identical to the barrier merge."""

    @staticmethod
    def _tied_grids(plan, subplans, rng):
        """Synthetic per-shard grids plus one ``covers=False`` grid:
        distances drawn from three values, cells of 0..topk-1 rows."""

        def cell(first_id):
            n = int(rng.integers(0, plan.topk))
            return ScanResult(
                ids=np.arange(first_id, first_id + n, dtype=np.int64),
                distances=np.sort(rng.integers(0, 3, n).astype(np.float64)),
                n_scanned=n + int(rng.integers(0, 5)),
                n_pruned=int(rng.integers(0, 5)),
            )

        grids = []
        extra = [[None] * plan.nprobe for _ in range(plan.n_queries)]
        next_id = 0
        for subplan in subplans.values():
            grid = [[None] * plan.nprobe for _ in range(plan.n_queries)]
            for job in subplan.jobs:
                for row, pos in zip(job.query_rows, job.probe_positions):
                    grid[row][pos] = cell(next_id)
                    next_id += plan.topk
                    if rng.random() < 0.5:
                        extra[row][pos] = cell(next_id)
                        next_id += plan.topk
            grids.append(grid)
        return grids, extra

    @pytest.mark.parametrize("kind", ["naive", "fastpq", "tied"])
    @pytest.mark.parametrize("nprobe", [1, 3, 8])
    def test_fold_order_cannot_change_results(
        self, index8, pq, batch_queries, kind, nprobe
    ):
        from repro.search import (
            BatchExecutor,
            StreamingMerger,
            merge_partials,
        )

        rng = np.random.default_rng(nprobe)
        for n_shards in (1, 3, 8):
            sharded = ShardedIndex.from_index(index8, n_shards=n_shards)
            plan, subplans = _plan(
                sharded, batch_queries, topk=10, nprobe=nprobe
            )
            extra = None
            if kind == "tied":
                grids, extra = self._tied_grids(plan, subplans, rng)
            else:
                factory = _scanner_factories(pq)[kind]
                grids = [
                    BatchExecutor(
                        sharded.shards[shard_id].index, factory()
                    ).scan_plan(subplan)[0]
                    for shard_id, subplan in subplans.items()
                ]
            # Barrier merge over the union grid = the reference answer;
            # an extra cell joins the base cell it rides on.
            union = [
                [None] * plan.nprobe for _ in range(plan.n_queries)
            ]
            for grid in grids:
                for row in range(plan.n_queries):
                    for pos in range(plan.nprobe):
                        if grid[row][pos] is not None:
                            union[row][pos] = grid[row][pos]
            if extra is not None:
                for row in range(plan.n_queries):
                    for pos in range(plan.nprobe):
                        more, base = extra[row][pos], union[row][pos]
                        if more is not None:
                            union[row][pos] = ScanResult(
                                ids=np.concatenate([base.ids, more.ids]),
                                distances=np.concatenate(
                                    [base.distances, more.distances]
                                ),
                                n_scanned=base.n_scanned + more.n_scanned,
                                n_pruned=base.n_pruned + more.n_pruned,
                            )
            reference = merge_partials(plan, union)
            # Any fold order must produce the same bytes.
            folds = [(grid, True) for grid in grids]
            if extra is not None:
                folds.append((extra, False))
            for order in (folds, folds[::-1], folds[::2] + folds[1::2]):
                merger = StreamingMerger(plan)
                for grid, covers in order:
                    merger.fold(grid, covers=covers)
                assert merger.complete
                _assert_identical(reference, merger.results())

    def test_duplicate_fold_is_idempotent(self, index8, pq, batch_queries):
        from repro.search import BatchExecutor, StreamingMerger, merge_partials

        sharded = ShardedIndex.from_index(index8, n_shards=2)
        plan, subplans = _plan(sharded, batch_queries, topk=10, nprobe=4)
        grids = [
            BatchExecutor(sharded.shards[sid].index, NaiveScanner()).scan_plan(
                sub
            )[0]
            for sid, sub in subplans.items()
        ]
        merger = StreamingMerger(plan)
        for grid in grids:
            merger.fold(grid)
            merger.fold(grid)  # re-delivered partials are skipped
        union = [[None] * plan.nprobe for _ in range(plan.n_queries)]
        for grid in grids:
            for row in range(plan.n_queries):
                for pos in range(plan.nprobe):
                    if grid[row][pos] is not None:
                        union[row][pos] = grid[row][pos]
        _assert_identical(merge_partials(plan, union), merger.results())

    def test_incomplete_merge_raises_unless_partial(
        self, index8, pq, batch_queries
    ):
        from repro.search import StreamingMerger
        from repro.exceptions import SimulationError

        sharded = ShardedIndex.from_index(index8, n_shards=2)
        plan = BatchPlanner(sharded.global_view).plan(
            batch_queries, topk=10, nprobe=4
        )
        merger = StreamingMerger(plan)
        assert not merger.complete
        with pytest.raises(SimulationError, match="unscanned probes"):
            merger.results()
        # Partial-mode finalize mirrors merge_partials(require_complete=False).
        results = merger.results(require_complete=False)
        assert len(results) == len(batch_queries)


# -- pinned pools ---------------------------------------------------------------


class TestPinnedPools:
    def test_process_worker_pids_stable_across_runs(
        self, index8, pq, batch_queries
    ):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, n_workers=1, backend="process"
        ) as executor:
            from repro.parallel import ProcessBatchExecutor

            assert all(
                isinstance(e, ProcessBatchExecutor)
                for e in executor._executors
            )
            first = executor.run(batch_queries, topk=10, nprobe=8)
            pids_first = [e.worker_pids for e in executor._executors]
            second = executor.run(batch_queries, topk=10, nprobe=8)
            pids_second = [e.worker_pids for e in executor._executors]
            assert pids_first == pids_second  # no per-batch pool spin-up
            assert all(pids for pids in pids_second)
            _assert_identical(first.results, second.results)

    def test_process_backend_identical_to_unsharded(
        self, index8, pq, batch_queries
    ):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process"
        ) as executor:
            response = executor.run(batch_queries, topk=10, nprobe=8)
        assert not response.partial
        _assert_unsharded(index8, batch_queries, 10, 8, response.results)

    def test_run_after_close_raises(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        executor = ScatterGatherExecutor(
            sharded, lambda: NaiveScanner(), backend="thread"
        )
        executor.run(batch_queries, topk=5, nprobe=2)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            executor.run(batch_queries, topk=5, nprobe=2)

    def test_process_backend_attaches_to_saved_artifact(
        self, index8, pq, batch_queries, tmp_path
    ):
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        path = tmp_path / "layout"
        save_sharded_index(sharded, path)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process", artifact_dir=path
        ) as executor:
            assert executor._tempdir is None  # attached, not re-saved
            response = executor.run(batch_queries, topk=10, nprobe=4)
        assert not response.partial

    def test_failed_shard_spinup_leaks_no_pool_or_artifact(
        self, index8, tmp_path, monkeypatch
    ):
        """Shard 1's scanner cannot be rebuilt in a worker: the raise
        comes after shard 0's pool started and the layout was saved, and
        neither outlives it."""
        import multiprocessing
        import tempfile

        class _Custom(NaiveScanner):
            name = "custom"

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        # The raise's traceback is alive while this checks: nothing is
        # left for the garbage collector to clean up.
        with pytest.raises(ConfigurationError, match="reconstructed") as raised:
            ScatterGatherExecutor(sharded, [NaiveScanner(), _Custom()], backend="process")
        assert raised.traceback
        assert multiprocessing.active_children() == []
        assert list(tmp_path.glob("repro-shards-*")) == []

    def test_thread_fallback_emits_no_warnings(self, index8, pq, batch_queries):
        import warnings

        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            executor = ScatterGatherExecutor(
                sharded, lambda: NaiveScanner(), backend="thread"
            )
            try:
                executor.run(batch_queries, topk=10, nprobe=4)
                executor.run(batch_queries, topk=10, nprobe=4)
            finally:
                executor.close()

    def test_thread_fallback_refuses_thread_workers(self, index8):
        """Each shard scans inline: the BatchExecutor rule, inherited."""
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with pytest.raises(ConfigurationError, match="process backend"):
            ScatterGatherExecutor(
                sharded, lambda: NaiveScanner(), n_workers=2, backend="thread"
            )

    def test_stalled_run_leaves_executor_usable(self, index8, pq, batch_queries):
        # After a deadline-abandoned batch, the pinned pools must still
        # serve the next batch (the straggler occupies one scatter slot
        # but each shard has its own).
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        release = threading.Event()
        executor = ScatterGatherExecutor(
            sharded,
            [NaiveScanner(), _StallingScanner(release)],
            deadline_s=0.3,
            backend="thread",
        )
        try:
            degraded = executor.run(batch_queries, topk=10, nprobe=8)
            assert degraded.partial
            release.set()
            time.sleep(0.05)  # let the straggler drain
            healthy = executor.run(batch_queries, topk=10, nprobe=8)
            assert not healthy.partial
            _assert_unsharded(index8, batch_queries, 10, 8, healthy.results)
        finally:
            release.set()
            executor.close()


# -- worker faults --------------------------------------------------------------


def _reap(pid: int, timeout_s: float = 10.0) -> None:
    """Wait until the killed worker ``pid`` has exited and been reaped."""
    give_up = time.perf_counter() + timeout_s
    while any(p.pid == pid for p in multiprocessing.active_children()):
        assert time.perf_counter() < give_up, f"worker {pid} still running"
        time.sleep(0.01)


def _slow_first_bundle(monkeypatch, seconds: float) -> None:
    """Every worker started from now on sleeps ``seconds`` before its
    first bundle (workers are forked, so each inherits the patch and
    counts its own calls)."""
    from repro.parallel import worker

    run_bundle = worker._run_bundle
    calls: list[int] = []

    def slow(bundle, sanitize=False):
        if not calls:
            calls.append(1)
            time.sleep(seconds)
        return run_bundle(bundle, sanitize)

    monkeypatch.setattr(worker, "_run_bundle", slow)


class TestWorkerFaults:
    """A worker that dies or falls behind costs its shard one attempt
    or one batch, never the engine."""

    def test_killed_worker_is_started_again(self, index8, batch_queries, engine_over):
        engine = engine_over(index8, n_shards=2, executor="process")
        before = engine.search_detailed(batch_queries, k=10, nprobe=8)
        shard = engine._executor._executors[1]
        (pid,) = shard.worker_pids
        os.kill(pid, signal.SIGKILL)
        _reap(pid)
        after = engine.search_detailed(batch_queries, k=10, nprobe=8)
        assert not after.partial
        _assert_identical(before.results, after.results)
        # The send found the worker gone: one failed attempt, a new
        # worker in its slot, the bundle resent to it.
        assert [s.attempts for s in after.shard_statuses] == [1, 2]
        assert shard.worker_pids != (pid,)
        again = engine.search_detailed(batch_queries, k=10, nprobe=8)
        assert [s.attempts for s in again.shard_statuses] == [1, 1]
        _assert_identical(before.results, again.results)

    def test_worker_killed_mid_bundle(self, index8, batch_queries, monkeypatch):
        _slow_first_bundle(monkeypatch, 0.5)
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        deadline_s = 3.0
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process", deadline_s=deadline_s
        ) as executor:
            (pid,) = executor._executors[1].worker_pids
            killer = threading.Timer(0.2, os.kill, (pid, signal.SIGKILL))
            killer.start()
            start = time.perf_counter()
            response = executor.run(batch_queries, topk=10, nprobe=8)
            elapsed = time.perf_counter() - start
            killer.join()
            healthy = executor.run(batch_queries, topk=10, nprobe=8)
        assert elapsed < deadline_s + 0.25
        assert response.status_for(0).state == STATE_OK
        if not response.partial:
            assert response.status_for(1).attempts == 2
            _assert_unsharded(index8, batch_queries, 10, 8, response.results)
        assert not healthy.partial
        _assert_unsharded(index8, batch_queries, 10, 8, healthy.results)

    def test_late_reply_of_an_abandoned_batch_is_dropped(
        self, index8, dataset, monkeypatch
    ):
        """The abandoned batch's replies wait on the pipes when the next
        batch, of other queries, reads them: they are dropped by ``seq``."""
        _slow_first_bundle(monkeypatch, 1.0)
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        first, second = dataset.queries[:4], dataset.queries[4:]
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process", deadline_s=0.5
        ) as executor:
            abandoned = executor.run(first, topk=10, nprobe=8)
            time.sleep(1.0)  # both late replies are on their pipes now
            response = executor.run(second, topk=10, nprobe=8)
        assert abandoned.partial
        assert {s.state for s in abandoned.shard_statuses} == {STATE_TIMEOUT}
        assert not response.partial
        _assert_unsharded(index8, second, 10, 8, response.results)

    def test_no_deadline_still_bounded_by_gather_timeout(
        self, index8, batch_queries, monkeypatch
    ):
        """Without a deadline a batch waits at most ``GATHER_TIMEOUT_S``
        (patched small here) and reports the shards it gave up on."""
        import repro.shard.executor as shard_executor

        _slow_first_bundle(monkeypatch, 1.0)
        monkeypatch.setattr(shard_executor, "GATHER_TIMEOUT_S", 0.3)
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process"
        ) as executor:
            start = time.perf_counter()
            stalled = executor.run(batch_queries, topk=10, nprobe=8)
            elapsed = time.perf_counter() - start
            time.sleep(1.0)  # the late replies land, to be dropped
            healthy = executor.run(batch_queries, topk=10, nprobe=8)
        assert elapsed < 0.9
        assert {s.state for s in stalled.shard_statuses} == {STATE_TIMEOUT}
        assert all("GATHER_TIMEOUT_S" in s.error for s in stalled.shard_statuses)
        assert not healthy.partial
        _assert_unsharded(index8, batch_queries, 10, 8, healthy.results)

    def test_close_right_after_an_abandoned_batch(
        self, index8, batch_queries, monkeypatch
    ):
        """Workers still scanning an abandoned bundle stop with their
        executor (the ``no_process_left`` fixture checks)."""
        _slow_first_bundle(monkeypatch, 1.0)
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process", deadline_s=0.2
        ) as executor:
            assert executor.run(batch_queries, topk=10, nprobe=8).partial
        assert multiprocessing.active_children() == []

    def test_workers_exit_on_end_of_file(self, index8, batch_queries):
        """Closing a worker's pipe ends it: no later-forked worker holds
        the parent's end open, so close() never has to terminate."""
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        executor = ScatterGatherExecutor(sharded, NaiveScanner, backend="process")
        executor.run(batch_queries, topk=10, nprobe=8)
        workers = [w for e in executor._executors for w in e.workers]
        start = time.perf_counter()
        executor.close()
        assert time.perf_counter() - start < 2.0
        assert [w.process.exitcode for w in workers] == [0] * len(workers)

    def test_worker_exception_is_retried(self, index8, batch_queries, monkeypatch):
        """A bundle that raises in its worker is resent (one retry) and
        the worker keeps serving."""
        from repro.parallel import worker

        run_bundle = worker._run_bundle
        calls: list[int] = []

        def flaky(bundle, sanitize=False):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient worker fault")
            return run_bundle(bundle, sanitize)

        monkeypatch.setattr(worker, "_run_bundle", flaky)
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process", backoff_s=0.0
        ) as executor:
            pids = [e.worker_pids for e in executor._executors]
            response = executor.run(batch_queries, topk=10, nprobe=8)
            assert [e.worker_pids for e in executor._executors] == pids
        assert not response.partial
        assert [s.attempts for s in response.shard_statuses] == [2, 2]
        _assert_unsharded(index8, batch_queries, 10, 8, response.results)

    def test_worker_configuration_error_propagates(
        self, index8, batch_queries, monkeypatch
    ):
        from repro.parallel import worker

        def refuse(bundle, sanitize=False):
            raise ConfigurationError("refused in the worker")

        monkeypatch.setattr(worker, "_run_bundle", refuse)
        sharded = ShardedIndex.from_index(index8, n_shards=2)
        with ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process"
        ) as executor:
            with pytest.raises(ConfigurationError, match="refused in the worker"):
                executor.run(batch_queries, topk=10, nprobe=8)


# -- overlap + pool metrics -----------------------------------------------------


class TestGatherOverlapObservability:
    def test_overlap_and_pool_metrics_recorded(self, index8, pq, batch_queries):
        sharded = ShardedIndex.from_index(index8, n_shards=3)
        with observability_session() as obs:
            executor = ScatterGatherExecutor(
                sharded, lambda: NaiveScanner(), backend="thread"
            )
            response = executor.run(batch_queries, topk=10, nprobe=8)
            executor.run(batch_queries, topk=10, nprobe=8)
            snapshot = obs.snapshot()
            registry = obs.metrics
        assert response.gather_overlap_s >= 0.0
        assert response.as_dict()["gather_overlap_s"] >= 0.0
        assert "repro_gather_overlap_seconds" in snapshot["histograms"]
        assert registry.get("repro_pool_spinups_total").value(
            backend="gather"
        ) == 1.0
        # Both runs reused the pinned gather pool.
        assert registry.get("repro_pool_reuses_total").value(
            backend="gather"
        ) == 2.0
