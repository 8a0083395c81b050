"""Serving-layer tests: coalescing, deadline flush, shedding, identity.

The micro-batching server is pure stdlib asyncio, so every test drives
it with ``asyncio.run`` — no event-loop plugin needed. Timing-sensitive
behavior (deadline flush) is tested with generous margins; batching
*bounds* are exact and asserted exactly.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import Engine
from repro.exceptions import ConfigurationError
from repro.obs import observability_session
from repro.search import ANNSearcher, SearchResult
from repro.serve import (
    FLUSH_DRAIN,
    STATUS_OK,
    STATUS_OVERLOAD,
    MicroBatchServer,
    ServeConfig,
    ServedResult,
)


def _dummy_result(value: int = 0) -> SearchResult:
    return SearchResult(
        ids=np.array([value], dtype=np.int64),
        distances=np.array([float(value)], dtype=np.float64),
        n_scanned=1,
        n_pruned=0,
        probed=(0,),
    )


def _echo_batch(queries: np.ndarray) -> list[SearchResult]:
    """One dummy result per row, tagging the query's first component."""
    return [_dummy_result(int(q[0])) for q in queries]


def _results_equal(a: SearchResult, b: SearchResult) -> bool:
    return (
        a.ids.tobytes() == b.ids.tobytes()
        and a.distances.tobytes() == b.distances.tobytes()
        and a.n_scanned == b.n_scanned
        and a.n_pruned == b.n_pruned
        and a.probed == b.probed
    )


class TestServeConfig:
    def test_defaults_valid(self):
        config = ServeConfig()
        assert config.max_batch >= 1
        assert config.max_queue >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_s": -0.1},
            {"max_queue": 0},
            {"max_concurrent_batches": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)


class TestCoalescing:
    def test_batch_size_bounded_and_size_flush_triggers(self):
        seen_sizes: list[int] = []

        def batch_fn(queries: np.ndarray) -> list[SearchResult]:
            seen_sizes.append(len(queries))
            return _echo_batch(queries)

        # A long deadline means only the size bound can flush promptly:
        # 16 concurrent clients over max_batch=4 must produce batches
        # of exactly 4, well before the 60s deadline.
        config = ServeConfig(max_batch=4, max_delay_s=60.0)

        async def scenario() -> list[ServedResult]:
            async with MicroBatchServer(batch_fn, config) as server:
                return await asyncio.gather(
                    *(
                        server.search(np.array([float(i), 0.0]))
                        for i in range(16)
                    )
                )

        results = asyncio.run(scenario())
        assert all(r.ok for r in results)
        assert seen_sizes and max(seen_sizes) <= 4
        assert sum(seen_sizes) == 16
        assert all(r.batch_size <= 4 for r in results)
        # Every client got its own answer back, not a neighbor's.
        for i, r in enumerate(results):
            assert r.result is not None
            assert r.result.ids[0] == i

    def test_deadline_flush_serves_lone_request(self):
        config = ServeConfig(max_batch=64, max_delay_s=0.02)

        async def scenario() -> tuple[ServedResult, float]:
            async with MicroBatchServer(_echo_batch, config) as server:
                loop = asyncio.get_running_loop()
                start = loop.time()
                result = await server.search(np.array([7.0, 0.0]))
                return result, loop.time() - start

        result, elapsed = asyncio.run(scenario())
        # A lone request can never reach max_batch; only the deadline
        # can flush it. Generous upper bound for slow CI machines.
        assert result.ok
        assert result.batch_size == 1
        assert elapsed < 5.0

    def test_backlog_older_than_the_deadline_leaves_in_full_batches(self):
        # The only flush slot is held while 40 requests queue for far
        # longer than max_delay_s. The coalescer used to close a batch
        # without looking at the queue once its first request was past
        # the deadline, so the backlog left as forty batches of one.
        release = threading.Event()
        seen_sizes: list[int] = []

        def blocking_batch(queries: np.ndarray) -> list[SearchResult]:
            seen_sizes.append(len(queries))
            release.wait(timeout=30)
            return _echo_batch(queries)

        config = ServeConfig(
            max_batch=32, max_delay_s=0.001, max_concurrent_batches=1
        )

        async def scenario() -> list[ServedResult]:
            async with MicroBatchServer(blocking_batch, config) as server:
                first = asyncio.create_task(
                    server.search(np.array([0.0, 0.0]))
                )
                await asyncio.sleep(0.05)  # its flush now holds the slot
                backlog = [
                    asyncio.create_task(
                        server.search(np.array([float(i), 0.0]))
                    )
                    for i in range(1, 41)
                ]
                await asyncio.sleep(0.05)
                assert server.depth == 40
                release.set()
                return await asyncio.gather(first, *backlog)

        results = asyncio.run(scenario())
        assert seen_sizes == [1, 32, 8]
        assert [r.result.ids[0] for r in results] == list(range(41))

    def test_drain_on_stop_answers_admitted_requests(self):
        config = ServeConfig(max_batch=64, max_delay_s=60.0)

        async def scenario() -> list[ServedResult]:
            server = MicroBatchServer(_echo_batch, config)
            await server.start()
            tasks = [
                asyncio.create_task(server.search(np.array([float(i), 0.0])))
                for i in range(5)
            ]
            await asyncio.sleep(0.05)  # let the coalescer collect them
            await server.stop()  # must flush the partial batch (drain)
            return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert all(r.ok for r in results)
        assert not any(r.batch_size > 5 for r in results)


class TestAdmissionControl:
    def test_shed_on_full_returns_overload(self):
        release = threading.Event()

        def blocking_batch(queries: np.ndarray) -> list[SearchResult]:
            release.wait(timeout=30)
            return _echo_batch(queries)

        config = ServeConfig(
            max_batch=1, max_delay_s=0.001, max_queue=2,
            max_concurrent_batches=1,
        )

        async def scenario() -> tuple[list[ServedResult], ServedResult]:
            async with MicroBatchServer(blocking_batch, config) as server:
                # First request occupies the only flush slot (its batch
                # blocks inside blocking_batch); two more fill the
                # bounded queue while the coalescer waits for a slot.
                first = asyncio.create_task(
                    server.search(np.array([0.0, 0.0]))
                )
                await asyncio.sleep(0.05)
                queued = [
                    asyncio.create_task(
                        server.search(np.array([float(i), 0.0]))
                    )
                    for i in (1, 2)
                ]
                await asyncio.sleep(0.05)
                assert server.depth == 2
                # The queue is full: this one must shed immediately.
                shed = await server.search(np.array([9.0, 0.0]))
                release.set()
                done = await asyncio.gather(first, *queued)
                return done, shed

        done, shed = asyncio.run(scenario())
        assert shed.status == STATUS_OVERLOAD
        assert shed.result is None
        assert all(r.status == STATUS_OK for r in done)

    def test_error_in_batch_propagates_to_clients(self):
        def broken_batch(queries: np.ndarray) -> list[SearchResult]:
            raise ValueError("scanner exploded")

        config = ServeConfig(max_batch=4, max_delay_s=0.001)

        async def scenario() -> None:
            async with MicroBatchServer(broken_batch, config) as server:
                with pytest.raises(ValueError, match="scanner exploded"):
                    await server.search(np.array([0.0, 0.0]))

        asyncio.run(scenario())

    def test_search_requires_running_server(self):
        server = MicroBatchServer(_echo_batch)

        async def scenario() -> None:
            with pytest.raises(ConfigurationError):
                await server.search(np.array([0.0, 0.0]))

        asyncio.run(scenario())

    def test_rejects_non_1d_queries(self):
        async def scenario() -> None:
            async with MicroBatchServer(_echo_batch) as server:
                with pytest.raises(ConfigurationError):
                    await server.search(np.zeros((2, 2)))

        asyncio.run(scenario())


def test_one_bad_request_does_not_fail_its_batch(dataset):
    # Values are checked at admission like shape is: a NaN that reached
    # the micro-batch failed all six awaiting clients at the parent.
    queries = dataset.queries[:5]
    poisoned = queries[0].copy()
    poisoned[7] = np.nan
    config = ServeConfig(max_batch=8, max_delay_s=0.05)
    with Engine.build(
        dataset.base[:2000], n_partitions=4, nprobe=2, max_iter=2,
        coarse_max_iter=2, scanner="naive", mutable=True,
    ) as engine:
        expected = engine.search(queries, k=5)
        server = MicroBatchServer.for_engine(engine, k=5, config=config)

        async def scenario() -> list:
            async with server:
                return await asyncio.gather(
                    *(server.search(q) for q in queries[:3]),
                    server.search(poisoned),
                    server.add(poisoned, 9009),
                    server.add(queries[0], 1.5),
                    server.delete(2.9),
                    *(server.search(q) for q in queries[3:]),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(scenario())
        server.close()
        assert engine.n_pending_writes == 0
    refused, served = outcomes[3:7], outcomes[:3] + outcomes[7:]
    assert all(isinstance(r, ConfigurationError) for r in refused), refused
    assert [str(r).split(",")[0] for r in refused] == [
        "serve requests are single 1-D queries of finite values",
        "serve writes are single 1-D rows of finite values",
        "database ids must be integers",
        "database ids must be integers",
    ]
    assert all(r.ok and r.batch_size == 5 for r in served)
    for got, want in zip(served, expected):
        assert _results_equal(got.result, want)


class TestSequentialIdentity:
    """Served results must be byte-identical to executor="sequential"."""

    @pytest.mark.parametrize("executor", ["batch", "sequential", "process"])
    def test_identity_across_executors(self, index, dataset, executor):
        queries = dataset.queries
        with ANNSearcher(index) as searcher:
            baseline = searcher.search(
                queries, topk=5, nprobe=2, executor="sequential"
            )
            config = ServeConfig(max_batch=4, max_delay_s=0.002)
            server = MicroBatchServer.for_searcher(
                searcher,
                topk=5,
                nprobe=2,
                executor=executor,
                config=config,
            )

            async def scenario() -> list[ServedResult]:
                async with server:
                    return await asyncio.gather(
                        *(server.search(q) for q in queries)
                    )

            results = asyncio.run(scenario())
        assert all(r.ok for r in results)
        for served, expected in zip(results, baseline):
            assert served.result is not None
            assert _results_equal(served.result, expected)

    def test_for_searcher_rejects_unknown_executor(self, index):
        with ANNSearcher(index) as searcher:
            with pytest.raises(ConfigurationError):
                MicroBatchServer.for_searcher(searcher, executor="warp")


class TestServeObservability:
    def test_request_and_flush_metrics_recorded(self):
        config = ServeConfig(max_batch=4, max_delay_s=0.005)

        async def scenario(server: MicroBatchServer) -> None:
            async with server:
                await asyncio.gather(
                    *(
                        server.search(np.array([float(i), 0.0]))
                        for i in range(8)
                    )
                )

        with observability_session() as obs:
            server = MicroBatchServer(_echo_batch, config)
            asyncio.run(scenario(server))
            registry = obs.metrics
            requests = registry.get("repro_serve_requests_total")
            assert requests.value(status=STATUS_OK) == 8.0
            flushes = registry.get("repro_serve_flushes_total")
            total_flushes = sum(
                flushes.value(reason=reason)
                for reason in ("size", "deadline", "drain")
            )
            assert total_flushes == server.n_flushes >= 2
            histograms = registry.snapshot()["histograms"]
            assert "repro_serve_latency_seconds" in histograms
            assert "repro_serve_queue_wait_seconds" in histograms
            assert "repro_serve_batch_size" in histograms
            # Eight executed requests → eight latency observations.
            (latency_series,) = histograms["repro_serve_latency_seconds"]
            assert latency_series["count"] == 8

    def test_shed_requests_counted(self):
        release = threading.Event()

        def blocking_batch(queries: np.ndarray) -> list[SearchResult]:
            release.wait(timeout=30)
            return _echo_batch(queries)

        config = ServeConfig(
            max_batch=1, max_delay_s=0.001, max_queue=1,
            max_concurrent_batches=1,
        )

        async def scenario(server: MicroBatchServer) -> None:
            async with server:
                first = asyncio.create_task(
                    server.search(np.array([0.0, 0.0]))
                )
                await asyncio.sleep(0.05)
                second = asyncio.create_task(
                    server.search(np.array([1.0, 0.0]))
                )
                await asyncio.sleep(0.05)
                shed = await server.search(np.array([2.0, 0.0]))
                assert shed.status == STATUS_OVERLOAD
                release.set()
                await asyncio.gather(first, second)

        with observability_session() as obs:
            server = MicroBatchServer(blocking_batch, config)
            asyncio.run(scenario(server))
            requests = obs.metrics.get("repro_serve_requests_total")
            assert requests.value(status=STATUS_OVERLOAD) == 1.0
            assert server.n_shed == 1


class TestDrainReason:
    def test_stop_flushes_with_drain_reason(self):
        config = ServeConfig(max_batch=64, max_delay_s=60.0)

        async def scenario(server: MicroBatchServer) -> None:
            await server.start()
            task = asyncio.create_task(
                server.search(np.array([3.0, 0.0]))
            )
            await asyncio.sleep(0.05)
            await server.stop()
            result = await task
            assert result.ok

        with observability_session() as obs:
            server = MicroBatchServer(_echo_batch, config)
            asyncio.run(scenario(server))
            flushes = obs.metrics.get("repro_serve_flushes_total")
            assert flushes.value(reason=FLUSH_DRAIN) == 1.0
