"""Serving-layer tests: coalescing, idle flush, shedding, identity.

The micro-batching server is pure stdlib asyncio, so every test drives
it with ``asyncio.run`` — no event-loop plugin needed. Timing-sensitive
behavior (an idle server flushes at once) is tested with generous
margins; batching *bounds* are exact and asserted exactly.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import Engine
from repro.exceptions import ConfigurationError, DimensionMismatchError, ReproError
from repro.obs import observability_session
from repro.search import SearchResult
from repro.serve import (
    FLUSH_DRAIN,
    FLUSH_IDLE,
    STATUS_OK,
    STATUS_OVERLOAD,
    MicroBatchServer,
    ServeConfig,
    ServedResult,
)

from .conftest import open_engine
from .oracle import oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")


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
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_batch": 2.5}, "max_batch must be an integer"),
            ({"max_queue": 8.0}, "max_queue must be an integer"),
            ({"max_delay_s": float("nan")}, "max_delay_s must be a finite"),
            ({"max_delay_s": float("inf")}, "max_delay_s must be a finite"),
        ],
    )
    def test_counts_and_timings_refused_at_construction(self, kwargs, match):
        """``max_delay_s=nan`` used to leave a lone request unanswered."""
        with pytest.raises(ConfigurationError, match=match):
            ServeConfig(**kwargs)


class TestCoalescing:
    def test_batch_size_bounded_and_size_flush_triggers(self):
        seen_sizes: list[int] = []

        def batch_fn(queries: np.ndarray) -> list[SearchResult]:
            seen_sizes.append(len(queries))
            return _echo_batch(queries)

        # 16 concurrent clients over max_batch=4: every batch is cut
        # at 4, and the retired 60 s delay holds none of them back.
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
        # A lone request can never reach max_batch; the idle server
        # flushes it at once. Generous upper bound for slow CI machines.
        assert result.ok
        assert result.batch_size == 1
        assert elapsed < 5.0

    def test_backlog_older_than_the_deadline_leaves_in_full_batches(self):
        # The only flush slot is held while 40 requests queue behind
        # it: they must leave in full batches, not forty batches of one.
        release = threading.Event()
        seen_sizes: list[int] = []

        def blocking_batch(queries: np.ndarray) -> list[SearchResult]:
            seen_sizes.append(len(queries))
            release.wait(timeout=30)
            return _echo_batch(queries)

        config = ServeConfig(max_batch=32, max_delay_s=0.001)

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

    def test_idle_server_flushes_a_lone_request_at_once(self):
        # The retired max_delay_s is a minute: a server that waited for
        # company would time this out.
        config = ServeConfig(max_delay_s=60.0)

        async def scenario() -> ServedResult:
            async with MicroBatchServer(_echo_batch, config) as server:
                return await asyncio.wait_for(
                    server.search(np.array([7.0, 0.0])), 5
                )

        result = asyncio.run(scenario())
        assert result.ok and result.batch_size == 1
        assert result.queue_wait_s < 0.5

    def test_closed_loop_clients_batch_behind_the_flush_in_flight(self):
        # 8 clients, each sending its next request when the last one is
        # answered, under max_batch=32: each flush is cut when the
        # queue runs dry, and what queued behind the flush in flight is
        # every client's next request.
        seen_sizes: list[int] = []

        def batch_fn(queries: np.ndarray) -> list[SearchResult]:
            seen_sizes.append(len(queries))
            return _echo_batch(queries)

        config = ServeConfig(max_batch=32, max_delay_s=60.0)
        clients, rounds = 8, 20

        async def client(server: MicroBatchServer, c: int) -> list[int]:
            answers = []
            for _ in range(rounds):
                served = await server.search(np.array([float(c), 0.0]))
                answers.append(int(served.result.ids[0]))
            return answers

        async def scenario() -> list[list[int]]:
            async with MicroBatchServer(batch_fn, config) as server:
                everyone = asyncio.gather(
                    *(client(server, c) for c in range(clients))
                )
                return await asyncio.wait_for(everyone, 10)

        answers = asyncio.run(scenario())
        assert answers == [[c] * rounds for c in range(clients)]
        assert seen_sizes == [clients] * rounds


class TestAdmissionControl:
    def test_shed_on_full_returns_overload(self):
        release = threading.Event()

        def blocking_batch(queries: np.ndarray) -> list[SearchResult]:
            release.wait(timeout=30)
            return _echo_batch(queries)

        config = ServeConfig(
            max_batch=1, max_delay_s=0.001, max_queue=2,
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

    def test_rows_of_mixed_widths_resolve_every_future(self):
        # A bare batch_fn knows no width, so the batch itself cannot be
        # stacked: every client of it gets the error, none waits forever.
        config = ServeConfig(max_batch=3, max_delay_s=0.05)

        async def scenario() -> list:
            async with MicroBatchServer(_echo_batch, config) as server:
                clients = [
                    asyncio.ensure_future(server.search(np.zeros(width)))
                    for width in (4, 5, 4)
                ]
                _, pending = await asyncio.wait(clients, timeout=5.0)
                for client in pending:
                    client.cancel()
                assert not pending, f"{len(pending)} of 3 clients never answered"
                return [client.exception() for client in clients]

        errors = asyncio.run(scenario())
        assert all(isinstance(e, ValueError) for e in errors), errors


def test_one_bad_request_does_not_fail_its_batch(dataset):
    # Values and (for an engine's server) width are checked at admission
    # like shape is: a NaN that reached the micro-batch would fail all
    # six awaiting clients, and a wrong width would fail them too.
    queries = dataset.queries[:5]
    poisoned = queries[0].copy()
    poisoned[7] = np.nan
    wide = np.append(queries[0], 0.0)
    config = ServeConfig(max_batch=8, max_delay_s=0.05)
    with Engine.build(
        dataset.base[:2000], n_partitions=4, nprobe=2, max_iter=2,
        coarse_max_iter=2, scanner="naive", mutable=True,
    ) as engine:
        expected = engine.search(queries, k=5)
        server = MicroBatchServer.for_engine(engine, k=5, config=config)

        async def scenario() -> list:
            async with server:
                # Bounded: a batch that fails outside its futures hangs
                # every client of it.
                return await asyncio.wait_for(asyncio.gather(
                    *(server.search(q) for q in queries[:3]),
                    server.search(poisoned),
                    server.add(poisoned, 9009),
                    server.add(queries[0], 1.5),
                    server.delete(2.9),
                    server.search(wide),
                    server.add(wide, 9010),
                    *(server.search(q) for q in queries[3:]),
                    return_exceptions=True,
                ), timeout=30.0)

        outcomes = asyncio.run(scenario())
        server.close()
        assert engine.n_pending_writes == 0
    refused, served = outcomes[3:9], outcomes[:3] + outcomes[9:]
    assert all(isinstance(r, ReproError) for r in refused), refused
    assert [str(r).split(",")[0] for r in refused] == [
        "serve requests are single 1-D queries of finite values",
        "serve writes are single 1-D rows of finite values",
        "database ids must be integers",
        "database ids must be integers",
        f"row dimensionality mismatch: expected {len(wide) - 1}",
        f"row dimensionality mismatch: expected {len(wide) - 1}",
    ]
    assert all(isinstance(r, DimensionMismatchError) for r in refused[4:])
    assert all(r.ok and r.batch_size == 5 for r in served)
    for got, want in zip(served, expected):
        assert _results_equal(got.result, want)


class TestForEngineRefusesBadArguments:
    """A ``k`` or ``nprobe`` every flush would refuse is refused once,
    when the server is built, instead of failing every request."""

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"k": 0}, "k must be >= 1"),
            ({"k": 2.5}, "k must be an integer"),
            ({"nprobe": 0}, r"nprobe must be in \[1, 2\]"),
            ({"nprobe": 99}, r"nprobe must be in \[1, 2\]"),
            ({"nprobe": 1.5}, "nprobe must be an integer"),
        ],
    )
    def test_refused_when_the_server_is_built(self, index, arguments, message):
        with open_engine(index) as engine:
            with pytest.raises(ConfigurationError, match=message):
                MicroBatchServer.for_engine(engine, **arguments)
            MicroBatchServer.for_engine(engine, k=1, nprobe=2)


class TestSequentialIdentity:
    """Served results are the oracle's, byte for byte."""

    @pytest.mark.parametrize("executor", ["batch", "sequential", "process"])
    def test_identity_across_executors(self, index, dataset, executor):
        """A thread engine's server, a bare batch function looping that
        engine one query at a time, and an engine on worker processes
        all serve the oracle's bytes."""
        queries = dataset.queries
        config = ServeConfig(max_batch=4, max_delay_s=0.002)
        with open_engine(
            index, executor="process" if executor == "process" else "thread"
        ) as engine:
            if executor == "sequential":
                server = MicroBatchServer(
                    lambda q: [engine.search(row, k=5, nprobe=2) for row in q],
                    config,
                )
            else:
                server = MicroBatchServer.for_engine(
                    engine, k=5, nprobe=2, config=config
                )

            async def scenario() -> list[ServedResult]:
                async with server:
                    return await asyncio.gather(
                        *(server.search(q) for q in queries)
                    )

            results = asyncio.run(scenario())
        assert all(r.ok for r in results)
        assert same_as_oracle(
            [served.result for served in results],
            oracle_search(index, queries, 5, 2),
        )



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
                for reason in ("size", "idle", "drain")
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
        # The first request's flush holds the one slot, so the second
        # is still queued when stop() begins: stop() drains it.
        release = threading.Event()

        def blocking_batch(queries: np.ndarray) -> list[SearchResult]:
            release.wait(timeout=30)
            return _echo_batch(queries)

        config = ServeConfig(max_batch=64)

        async def scenario(server: MicroBatchServer) -> None:
            await server.start()
            tasks = []
            for x in (2.0, 3.0):
                tasks.append(
                    asyncio.create_task(server.search(np.array([x, 0.0])))
                )
                await asyncio.sleep(0.05)
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0.05)
            assert server.depth == 1
            release.set()
            await stopping
            results = await asyncio.gather(*tasks)
            assert [r.result.ids[0] for r in results] == [2, 3]
            assert [r.batch_size for r in results] == [1, 1]

        with observability_session() as obs:
            server = MicroBatchServer(blocking_batch, config)
            asyncio.run(scenario(server))
            flushes = obs.metrics.get("repro_serve_flushes_total")
            assert flushes.value(reason=FLUSH_IDLE) == 1.0
            assert flushes.value(reason=FLUSH_DRAIN) == 1.0
