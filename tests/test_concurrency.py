"""Concurrency regression suite for the engine and the scatter-gather
executor.

The serving layer (:mod:`repro.serve`) drives one :class:`~repro.Engine`
from many threads and tasks at once. These tests pin the bugs that
traffic exposed:

* An engine's executor is built in its constructor (and in
  ``compact()``), never at query time, so racing searches cannot build
  or leak a second one.
* ``ScatterGatherExecutor.run`` returned early on empty batches before
  recording any metrics, silently diverging obs counters from run
  counts.

Cleanness contract under close-while-searching: every concurrent search
either returns byte-identical results or raises an explicit
:class:`ConfigurationError` (never corrupt data). ``close()`` is
*terminal* across the stack — a closed engine refuses every later call
instead of silently respawning its pools (the shared lifecycle contract
pinned by ``tests/test_lifecycle.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.obs import observability_session
from repro.shard import ScatterGatherExecutor, ShardedIndex

pytestmark = pytest.mark.usefixtures("no_process_left")


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


class TestProcessEngineConcurrency:
    """The same races on a 2-shard process engine: one batch at a time
    holds a shard's workers, so replies never cross between callers."""

    @pytest.fixture()
    def engine(self, dataset) -> Engine:
        config = EngineConfig(
            n_partitions=4, n_shards=2, max_iter=4, coarse_max_iter=4,
            scanner="naive", executor="process",
        )
        eng = Engine.build(dataset.base[:4000], config)
        yield eng
        eng.close()

    def test_concurrent_search_detailed_matches_one_thread(self, engine, queries):
        n_threads, n_calls = 8, 4
        baseline = engine.search(queries, k=5, nprobe=2)
        barrier = threading.Barrier(n_threads)
        outcomes: list[bool] = []
        errors: list[BaseException] = []

        def work(offset: int) -> None:
            try:
                barrier.wait()
                for call in range(n_calls):
                    # Callers ask for different rows, so a reply read by
                    # the wrong caller could not pass for the right one.
                    rows = np.roll(np.arange(len(queries)), offset + call)
                    response = engine.search_detailed(queries[rows], k=5, nprobe=2)
                    assert not response.partial
                    expected = [baseline[row] for row in rows]
                    outcomes.append(_results_equal(expected, response.results))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "a caller hung"
        assert not errors
        assert all(outcomes) and len(outcomes) == n_threads * n_calls

    def test_close_while_searching(self, engine, queries):
        """Every call ends in the full answer or a ConfigurationError
        (the tests/test_lifecycle.py contract): close waits for the
        batch that holds the workers, and refuses the rest."""
        baseline = engine.search(queries, k=5, nprobe=2)
        started = threading.Barrier(4)
        stop = threading.Event()
        outcomes: list[bool] = []
        refused: list[ConfigurationError] = []
        errors: list[BaseException] = []

        def hammer() -> None:
            started.wait()
            while not stop.is_set():
                try:
                    response = engine.search_detailed(queries, k=5, nprobe=2)
                except ConfigurationError as exc:
                    refused.append(exc)
                    return
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                outcomes.append(
                    not response.partial
                    and _results_equal(baseline, response.results)
                )

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        started.wait()
        engine.close()
        stop.set()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "a caller hung"
        assert not errors
        assert all(outcomes)
        assert all("closed" in str(exc) for exc in refused)


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
