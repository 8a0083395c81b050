"""Shared lifecycle conformance: one close() contract across the stack.

Since 1.5 every long-lived component — :class:`~repro.Engine`,
:class:`~repro.search.ANNSearcher` (the per-query loop),
:class:`~repro.shard.ScatterGatherExecutor` and
:class:`~repro.serve.MicroBatchServer` — implements the same documented
contract:

* ``close()`` is **terminal**: after it returns, every further
  operation raises :class:`~repro.exceptions.ConfigurationError` whose
  message contains ``"closed"``;
* ``close()`` is **idempotent** and safe to race from many threads;
* ``closed`` reports the state;
* the object is a **context manager** whose exit closes it.

The suite is parametrized over one adapter per class so a divergence in
any single implementation fails with that class's name in the test id.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro import Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.scan import NaiveScanner
from repro.search import ANNSearcher, SearchResult
from repro.serve import MicroBatchServer
from repro.shard import ScatterGatherExecutor, ShardedIndex

from .oracle import oracle_search

pytestmark = pytest.mark.usefixtures("no_process_left")


@dataclass
class Adapter:
    """One lifecycle subject: how to make it, use it, and close it."""

    name: str
    make: Callable[[], object]
    use: Callable[[object], None]
    close: Callable[[object], None]
    enter_ctx: Callable[[object], None]


def _searcher_server(index) -> MicroBatchServer:
    """A server over a bare batch function: the oracle's answers."""

    def batch_fn(queries):
        return [
            SearchResult(ids, dists, n_scanned=0, n_pruned=0, probed=())
            for ids, dists in oracle_search(index, queries, 5, 1)
        ]

    return MicroBatchServer(batch_fn)


def _make_adapters(dataset, index) -> list[Adapter]:
    queries = dataset.queries[:4]

    def make_engine() -> Engine:
        config = EngineConfig(
            n_partitions=2, max_iter=2, coarse_max_iter=2, executor="thread"
        )
        return Engine.build(dataset.base[:2000], config)

    def make_searcher() -> ANNSearcher:
        return ANNSearcher(index, NaiveScanner())

    def make_scatter() -> ScatterGatherExecutor:
        return ScatterGatherExecutor(
            ShardedIndex.from_index(index, n_shards=2),
            NaiveScanner,
            n_workers=1,
            backend="thread",
        )

    def use_server(server: MicroBatchServer) -> None:
        async def roundtrip() -> None:
            async with server:
                result = await server.search(queries[0])
                assert result.ok

        asyncio.run(roundtrip())

    def sync_close(obj) -> None:
        obj.close()

    def sync_ctx(obj) -> None:
        with obj:
            pass

    return [
        Adapter(
            name="Engine",
            make=make_engine,
            use=lambda e: e.search(queries, k=5, nprobe=1),
            close=sync_close,
            enter_ctx=sync_ctx,
        ),
        Adapter(
            name="ANNSearcher",
            make=make_searcher,
            use=lambda s: s.search(queries, topk=5, nprobe=1),
            close=sync_close,
            enter_ctx=sync_ctx,
        ),
        Adapter(
            name="ScatterGatherExecutor",
            make=make_scatter,
            use=lambda x: x.run(queries, topk=5, nprobe=1),
            close=sync_close,
            enter_ctx=sync_ctx,
        ),
        Adapter(
            name="MicroBatchServer",
            make=lambda: _searcher_server(index),
            use=use_server,
            close=sync_close,
            enter_ctx=sync_ctx,
        ),
    ]


@pytest.fixture(
    params=["Engine", "ANNSearcher", "ScatterGatherExecutor",
            "MicroBatchServer"]
)
def adapter(request, dataset, index) -> Adapter:
    adapters = {a.name: a for a in _make_adapters(dataset, index)}
    return adapters[request.param]


class TestLifecycleConformance:
    def test_use_then_close_then_refuse(self, adapter):
        obj = adapter.make()
        adapter.use(obj)
        assert not obj.closed
        adapter.close(obj)
        assert obj.closed
        with pytest.raises(ConfigurationError, match="closed"):
            adapter.use(obj)

    def test_close_is_idempotent(self, adapter):
        obj = adapter.make()
        adapter.close(obj)
        adapter.close(obj)
        adapter.close(obj)
        assert obj.closed

    def test_concurrent_close_is_safe(self, adapter):
        obj = adapter.make()
        adapter.use(obj)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def racer() -> None:
            try:
                barrier.wait()
                adapter.close(obj)
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert obj.closed

    def test_context_manager_closes(self, adapter):
        obj = adapter.make()
        adapter.enter_ctx(obj)
        assert obj.closed
        with pytest.raises(ConfigurationError, match="closed"):
            adapter.use(obj)


class TestServerSpecificLifecycle:
    """Server-only corners the shared grid cannot express."""

    def test_close_while_running_raises(self, index, dataset):
        server = _searcher_server(index)

        async def scenario() -> None:
            await server.start()
            try:
                with pytest.raises(ConfigurationError, match="running"):
                    server.close()
            finally:
                await server.stop()

        asyncio.run(scenario())
        server.close()  # legal once stopped
        assert server.closed

    def test_start_after_close_raises(self, index, dataset):
        server = _searcher_server(index)
        server.close()

        async def try_start() -> None:
            await server.start()

        with pytest.raises(ConfigurationError, match="closed"):
            asyncio.run(try_start())


class TestEngineSpecificLifecycle:
    """Engine-only corners: writes and save on a closed engine."""

    @pytest.fixture()
    def closed_mutable_engine(self, dataset) -> Engine:
        engine = Engine.build(
            dataset.base[:2000],
            n_partitions=2,
            max_iter=2,
            coarse_max_iter=2,
            mutable=True,
        )
        engine.close()
        return engine

    def test_writes_refused_after_close(self, closed_mutable_engine, dataset):
        engine = closed_mutable_engine
        row = dataset.base[:1]
        ids = np.array([10**6], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="closed"):
            engine.add(row, ids)
        with pytest.raises(ConfigurationError, match="closed"):
            engine.delete(ids)
        with pytest.raises(ConfigurationError, match="closed"):
            engine.compact()

    def test_save_refused_after_close(self, closed_mutable_engine, tmp_path):
        with pytest.raises(ConfigurationError, match="closed"):
            closed_mutable_engine.save(tmp_path / "x.idx")
