"""Concurrency regression suite for the search facade and engine.

The serving layer (:mod:`repro.serve`) is the first component that
drives one :class:`~repro.search.ANNSearcher` / :class:`~repro.Engine`
from many threads and tasks at once. These tests pin the bugs that
traffic exposed:

* ``ANNSearcher.close()`` used to leave ``index_path`` pointing into a
  deleted tempdir, so the next ``executor="process"`` search handed
  workers a dangling artifact path (close → search → close).
* The executor caches used unlocked check-then-set, so racing
  first-searches could leak duplicate pinned pools and ``close()``
  could iterate a dict another thread was inserting into.
* ``ScatterGatherExecutor.run`` returned early on empty batches before
  recording any metrics, silently diverging obs counters from run
  counts.

Cleanness contract under close-while-searching: every concurrent search
either returns byte-identical results or raises an explicit
:class:`ConfigurationError` (never corrupt data). Since 1.5 ``close()``
is *terminal* across the stack — a closed searcher or engine refuses
every later call instead of silently respawning its pools (the shared
lifecycle contract pinned by ``tests/test_lifecycle.py``).
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro import Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.obs import observability_session
from repro.persistence import save_index
from repro.search import ANNSearcher
from repro.shard import ScatterGatherExecutor, ShardedIndex


def _results_equal(a, b) -> bool:
    """Byte-level equality of two SearchResult lists."""
    if len(a) != len(b):
        return False
    return all(
        ra.ids.tobytes() == rb.ids.tobytes()
        and ra.distances.tobytes() == rb.distances.tobytes()
        and ra.n_scanned == rb.n_scanned
        and ra.n_pruned == rb.n_pruned
        and ra.probed == rb.probed
        for ra, rb in zip(a, b)
    )


@pytest.fixture()
def queries(dataset) -> np.ndarray:
    return dataset.queries


class TestTerminalClose:
    """close() releases everything and refuses every later search."""

    def test_process_close_releases_the_executors_artifact(
        self, index, queries
    ):
        # Regression lineage: on the seed, close() deleted the tempdir
        # but kept index_path pointing into it, handing workers a
        # dangling artifact path. The searcher no longer manages an
        # artifact: without an index_path the process executor saves,
        # owns and deletes its own, and index_path stays what the
        # caller passed.
        searcher = ANNSearcher(index)
        searcher.search(queries, topk=5, nprobe=2, executor="process")
        assert searcher.index_path is None
        (executor,) = searcher._executors.values()
        artifact = executor.index_path
        assert artifact.is_file()
        searcher.close()
        assert not artifact.parent.exists()
        assert searcher.index_path is None
        with pytest.raises(ConfigurationError, match="closed"):
            searcher.search(queries, topk=5, nprobe=2, executor="process")

    def test_close_keeps_user_supplied_index_path(
        self, index, queries, tmp_path
    ):
        path = tmp_path / "index.npz"
        save_index(index, path)
        searcher = ANNSearcher(index, index_path=path)
        searcher.search(queries, topk=5, nprobe=2, executor="process")
        searcher.close()
        assert searcher.index_path == path  # user-owned artifact is kept
        assert path.exists()

    def test_all_executors_identical_then_close_refuses(
        self, index, queries
    ):
        searcher = ANNSearcher(index)
        baseline = searcher.search(
            queries, topk=5, nprobe=2, executor="sequential"
        )
        for executor in ANNSearcher.EXECUTORS:
            got = searcher.search(
                queries, topk=5, nprobe=2, executor=executor
            )
            assert _results_equal(baseline, got), executor
        searcher.close()
        assert searcher._executors == {}
        for executor in ANNSearcher.EXECUTORS:
            with pytest.raises(ConfigurationError, match="closed"):
                searcher.search(
                    queries, topk=5, nprobe=2, executor=executor
                )
        searcher.close()  # idempotent


class TestExecutorCacheRaces:
    """Racing first-searches share exactly one pinned pool per count."""

    def test_batch_executor_race_single_pool(self, index, queries):
        searcher = ANNSearcher(index)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        baseline = searcher.search(
            queries, topk=5, nprobe=2, executor="sequential"
        )
        outcomes: list[bool] = []
        errors: list[BaseException] = []

        def work() -> None:
            try:
                barrier.wait()
                with warnings.catch_warnings():
                    # The GIL advisory for n_workers>1 may fire in any
                    # racing thread; it is not under test here.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = searcher.search(
                        queries,
                        topk=5,
                        nprobe=2,
                        executor="batch",
                        n_workers=2,
                    )
                outcomes.append(_results_equal(baseline, got))
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        with observability_session() as obs:
            threads = [
                threading.Thread(target=work) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(outcomes) and len(outcomes) == n_threads
            # Exactly one cached executor and one pool spin-up: the
            # unlocked seed version could publish duplicates.
            assert set(searcher._executors) == {("batch", 2)}
            spinups = obs.metrics.get("repro_pool_spinups_total")
            assert spinups.value(backend="thread") == 1.0
        searcher.close()

    def test_process_executor_race_single_pool(self, index, queries):
        searcher = ANNSearcher(index)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        baseline = searcher.search(
            queries, topk=5, nprobe=2, executor="sequential"
        )
        outcomes: list[bool] = []
        errors: list[BaseException] = []

        def work() -> None:
            try:
                barrier.wait()
                got = searcher.search(
                    queries, topk=5, nprobe=2, executor="process"
                )
                outcomes.append(_results_equal(baseline, got))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with observability_session() as obs:
            threads = [
                threading.Thread(target=work) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(outcomes) and len(outcomes) == n_threads
            assert set(searcher._executors) == {("process", 1)}
            # Process pools fork eagerly, so the creation lock must keep
            # racing first-searches down to ONE spawned pool.
            spinups = obs.metrics.get("repro_pool_spinups_total")
            assert spinups.value(backend="process") == 1.0
            (executor,) = searcher._executors.values()
            pids = executor.worker_pids
            assert len(pids) == executor.pool_size
        searcher.close()

    def test_mixed_executors_hammering_byte_identity(self, index, queries):
        searcher = ANNSearcher(index)
        baseline = searcher.search(
            queries, topk=5, nprobe=2, executor="sequential"
        )
        kinds = ["batch", "process", "sequential", "batch", "process"]
        barrier = threading.Barrier(len(kinds))
        outcomes: list[bool] = []
        errors: list[BaseException] = []

        def work(kind: str) -> None:
            try:
                barrier.wait()
                for _ in range(3):
                    got = searcher.search(
                        queries, topk=5, nprobe=2, executor=kind
                    )
                    outcomes.append(_results_equal(baseline, got))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(kind,)) for kind in kinds
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(outcomes) and len(outcomes) == 3 * len(kinds)
        # One pinned executor per (kind, worker-count), despite the race.
        assert set(searcher._executors) == {("batch", 1), ("process", 1)}
        pids_before = searcher._executors["process", 1].worker_pids
        searcher.search(queries, topk=5, nprobe=2, executor="process")
        assert searcher._executors["process", 1].worker_pids == pids_before
        searcher.close()

    def test_close_under_load_is_clean(self, index, queries):
        searcher = ANNSearcher(index)
        baseline = searcher.search(
            queries, topk=5, nprobe=2, executor="sequential"
        )
        stop = threading.Event()
        outcomes: list[bool] = []
        errors: list[BaseException] = []

        def hammer() -> None:
            try:
                while not stop.is_set():
                    try:
                        got = searcher.search(
                            queries, topk=5, nprobe=2, executor="batch"
                        )
                    except ConfigurationError:
                        # Terminal close landed: every later search
                        # refuses with the lifecycle error.
                        return
                    outcomes.append(_results_equal(baseline, got))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        # close() racing live searches: every in-flight search either
        # completes byte-identical or raises the explicit lifecycle
        # error — never corrupt results, never a crash.
        for _ in range(10):
            searcher.close()
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert all(outcomes)
        assert searcher._executors == {}


class TestEngineConcurrency:
    """Engine.search/search_detailed/close race safety."""

    @pytest.fixture()
    def engine(self, dataset) -> Engine:
        config = EngineConfig(
            n_partitions=4, max_iter=4, coarse_max_iter=4, executor="thread"
        )
        eng = Engine.build(dataset.base[:4000], config)
        yield eng
        eng.close()

    def test_concurrent_search_detailed_one_executor(self, engine, queries):
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        built = engine._executor
        baseline = engine.search(queries, k=5, nprobe=2)
        outcomes: list[bool] = []
        errors: list[BaseException] = []

        def work() -> None:
            try:
                barrier.wait()
                response = engine.search_detailed(queries, k=5, nprobe=2)
                assert not response.partial
                assert len(response.shard_statuses) == 1
                outcomes.append(_results_equal(baseline, response.results))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(outcomes) and len(outcomes) == n_threads
        # Every call was served by the executor the constructor built:
        # nothing is built (or can be raced for) at query time.
        assert engine._executor is built and not built.closed

    def test_engine_close_is_terminal(self, engine, queries):
        baseline = engine.search(queries, k=5, nprobe=2)
        detailed = engine.search_detailed(queries, k=5, nprobe=2)
        assert not detailed.partial
        assert _results_equal(baseline, detailed.results)
        engine.close()
        assert engine._executor.closed
        with pytest.raises(ConfigurationError, match="closed"):
            engine.search(queries, k=5, nprobe=2)
        with pytest.raises(ConfigurationError, match="closed"):
            engine.search(queries[0], k=5, nprobe=2)
        with pytest.raises(ConfigurationError, match="closed"):
            engine.search_detailed(queries, k=5, nprobe=2)
        engine.close()  # idempotent

    def test_engine_close_under_search_detailed_load(self, engine, queries):
        stop = threading.Event()
        errors: list[BaseException] = []
        outcomes: list[bool] = []
        baseline = engine.search(queries, k=5, nprobe=2)

        def hammer() -> None:
            try:
                while not stop.is_set():
                    try:
                        response = engine.search_detailed(
                            queries, k=5, nprobe=2
                        )
                    except (ConfigurationError, RuntimeError):
                        # A pool closed mid-flight surfaces as an
                        # explicit error — clean, never corrupt data.
                        continue
                    if not response.partial:
                        outcomes.append(
                            _results_equal(baseline, response.results)
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(5):
            engine.close()
        stop.set()
        for t in threads:
            t.join()
        # Shard executors report closed pools as degraded shard states
        # (partial=True), never as raw exceptions or corrupt results.
        assert not errors
        assert all(outcomes)


class TestScatterGatherEmptyBatch:
    """Empty batches record the same obs metric families as real ones."""

    def test_empty_batch_records_metrics(self, index, dataset):
        from repro.scan.naive import NaiveScanner

        sharded = ShardedIndex.from_index(index, n_shards=2)
        with observability_session() as obs:
            executor = ScatterGatherExecutor(
                sharded, NaiveScanner, n_workers=1, backend="thread"
            )
            try:
                empty = np.empty(
                    (0, dataset.base.shape[1]), dtype=np.float64
                )
                response = executor.run(empty, topk=5, nprobe=1)
                assert response.results == []
                assert not response.partial
                registry = obs.metrics
                # Regression: the seed's early return skipped all of
                # these, so counters diverged from run counts.
                assert registry.get("repro_gathers_total").value() == 1.0
                assert registry.get("repro_batches_total").value() == 1.0
                assert (
                    registry.get("repro_pool_reuses_total").value(
                        backend="gather"
                    )
                    == 1.0
                )
            finally:
                executor.close()
