"""Asyncio micro-batching front-end over the batch engine.

Section 5.8 of the paper shows concurrent PQ Fast Scan queries
saturating memory bandwidth within a handful of cores — the regime a
*serving* deployment lives in, where millions of independent clients
each submit one query and expect an answer within a latency SLO. The
offline batch engine (:mod:`repro.search`) amortizes routing, distance
tables and partition-code gathers across a batch, but nothing turned
many single-query clients into batches until now.

:class:`MicroBatchServer` is that layer:

1. **Coalesce** — each ``await server.search(query)`` enqueues one
   request; a coalescer task collects requests into a micro-batch and
   flushes when the batch reaches :attr:`ServeConfig.max_batch` *or*
   the oldest request has waited :attr:`ServeConfig.max_delay_s`
   (deadline flush, e.g. 2 ms) — the classic throughput/latency trade.
2. **Execute** — the batch runs on the pinned executors underneath
   (:class:`~repro.search.BatchExecutor` threads or the
   :class:`~repro.parallel.ProcessBatchExecutor` process pool), off the
   event loop, so the loop keeps accepting requests while a batch
   scans. Results are **byte-identical** to
   ``ANNSearcher.search(..., executor="sequential")`` — the batch
   engine's equivalence contract carries through unchanged.
3. **Admission control** — the request queue is bounded
   (:attr:`ServeConfig.max_queue`); when it is full the server *sheds*
   instead of building an unbounded backlog: ``search`` returns
   immediately with :data:`STATUS_OVERLOAD` and no result. Shedding is
   deliberate open-loop hygiene — a saturated server answering a few
   clients fast beats one answering every client late.
4. **Writes** — a server over a mutable :class:`~repro.engine.Engine`
   (:meth:`MicroBatchServer.for_engine` with ``mutable=True``) also
   accepts ``await server.add(vector, id)`` / ``await server.delete(id)``
   through the *same* admission queue, so writes share the shedding
   policy and the enqueue order with reads. Within one flushed
   micro-batch the writes apply first, in enqueue order, then the reads
   run as one batch — a client whose write was admitted reads its own
   write from the next flush on.

Every request is accounted through :mod:`repro.obs`: queue-wait,
batch-size and end-to-end latency histograms plus per-status request
and per-reason flush counters (see
:meth:`~repro.obs.Observability.record_request` /
:meth:`~repro.obs.Observability.record_flush`).

Thread-safety model: all server state (queue, pending futures, flush
tasks) is touched **only from the event loop** — ``search`` is a
coroutine and the coalescer/flush logic runs as loop tasks. The only
code running on worker threads is the batch function itself, which
touches no server state; the engine objects it calls are the ones the
concurrency fixes of this release made safe for exactly that traffic.

Typical use::

    server = MicroBatchServer.for_searcher(
        searcher, topk=10, nprobe=4, executor="process", n_workers=4
    )
    async with server:
        result = await server.search(query)     # one client
        assert result.ok
"""

from __future__ import annotations

import asyncio
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..obs import Observability, get_observability
from ..search import ANNSearcher, SearchResult

if TYPE_CHECKING:  # import cycle: repro.engine imports repro.serve
    from ..engine import Engine

__all__ = [
    "FLUSH_DEADLINE",
    "FLUSH_DRAIN",
    "FLUSH_SIZE",
    "MicroBatchServer",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_OVERLOAD",
    "ServeConfig",
    "ServedResult",
]

#: Request completed with a result.
STATUS_OK = "ok"
#: Request shed at admission: the bounded queue was full.
STATUS_OVERLOAD = "overload"
#: The request's batch raised; the awaiting client sees the exception.
STATUS_ERROR = "error"

#: Batch flushed because it reached :attr:`ServeConfig.max_batch`.
FLUSH_SIZE = "size"
#: Batch flushed because its oldest request hit the coalescing deadline.
FLUSH_DEADLINE = "deadline"
#: Batch flushed while the server was draining during :meth:`stop`.
FLUSH_DRAIN = "drain"


@dataclass(frozen=True)
class ServeConfig:
    """Immutable micro-batching and admission-control knobs.

    Attributes:
        max_batch: flush a batch as soon as it holds this many requests.
        max_delay_s: flush a batch once its oldest request has waited
            this long (the coalescing deadline — the latency the server
            is willing to spend buying batch amortization).
        max_queue: bound on requests accepted but not yet batched; a
            full queue sheds new requests with :data:`STATUS_OVERLOAD`.
        max_concurrent_batches: batches allowed in flight at once. The
            coalescer stops collecting while all slots are busy, which
            backs pressure up into the bounded queue — total admitted
            work is ``max_queue + max_concurrent_batches * max_batch``.
    """

    max_batch: int = 32
    max_delay_s: float = 0.002
    max_queue: int = 1024
    max_concurrent_batches: int = 1

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_delay_s < 0:
            raise ConfigurationError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.max_concurrent_batches < 1:
            raise ConfigurationError(
                "max_concurrent_batches must be >= 1, got "
                f"{self.max_concurrent_batches}"
            )


@dataclass(frozen=True)
class ServedResult:
    """Outcome of one served request.

    Attributes:
        status: :data:`STATUS_OK` or :data:`STATUS_OVERLOAD`
            (:data:`STATUS_ERROR` outcomes surface as the raised
            exception instead, so ``status`` is never ``"error"`` here).
        result: the merged :class:`~repro.search.SearchResult`
            (``None`` when shed — and always ``None`` for served writes,
            whose success is the :data:`STATUS_OK` itself).
        queue_wait_s: time from enqueue until the batch started
            executing (0 when shed).
        batch_size: size of the micro-batch that served this request
            (0 when shed).
        latency_s: end-to-end time from enqueue to completion.
    """

    status: str
    result: SearchResult | None
    queue_wait_s: float
    batch_size: int
    latency_s: float

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


#: Request kinds flowing through the admission queue.
_KIND_SEARCH = "search"
_KIND_ADD = "add"
_KIND_DELETE = "delete"


@dataclass
class _PendingRequest:
    """One enqueued request (read or write) awaiting its micro-batch.

    ``query`` holds the search query (:data:`_KIND_SEARCH`) or the
    vector to insert (:data:`_KIND_ADD`); ``write_id`` the database id
    of a write.
    """

    kind: str
    query: np.ndarray | None
    enqueued_at: float
    future: "asyncio.Future[ServedResult]"
    write_id: int | None = None


def _admitted_row(row: np.ndarray, expected: str) -> np.ndarray:
    """One client's 1-D finite row, or that client's error.

    Checked at admission: past it the row shares a micro-batch, and a
    NaN there fails every request of the batch, not just its sender's.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise ConfigurationError(f"serve {expected}, got shape {row.shape}")
    if not np.isfinite(row).all():
        raise ConfigurationError(f"serve {expected} of finite values")
    return row


def _admitted_id(write_id: int) -> int:
    """A write's database id; ``1.5`` is refused, not truncated to 1."""
    try:
        return operator.index(write_id)
    except TypeError:
        raise ConfigurationError(
            f"database ids must be integers, got {write_id!r}"
        ) from None


class MicroBatchServer:
    """Coalesces concurrent single-query clients into engine batches.

    Construct via :meth:`for_searcher` / :meth:`for_engine` (or pass any
    ``(b, d) -> list[SearchResult]`` batch function), then run it as an
    async context manager (or :meth:`start` / :meth:`stop` explicitly).
    ``await server.search(query)`` is the whole client API.

    Args:
        batch_fn: callable executing one query batch; it runs on a
            worker thread (never the event loop) and must return one
            :class:`~repro.search.SearchResult` per row. The provided
            constructors wire this to the byte-identical batch engines.
        config: micro-batching and admission knobs.
        write_fn: callable applying one write — ``(kind, vector, id)``
            with ``kind`` ``"add"`` (``vector`` is the 1-D row) or
            ``"delete"`` (``vector`` is None). Runs on the flush worker
            thread, before the batch's reads. Without it the server is
            read-only and :meth:`add`/:meth:`delete` raise.
        observability: explicit observability handle; default is the
            process-wide instance, resolved at each flush.
    """

    def __init__(
        self,
        batch_fn: Callable[[np.ndarray], Sequence[SearchResult]],
        config: ServeConfig | None = None,
        *,
        write_fn: Callable[[str, np.ndarray | None, int], None] | None = None,
        observability: Observability | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.observability = observability
        self._batch_fn = batch_fn
        self._write_fn = write_fn
        self._closed = False
        self._queue: "asyncio.Queue[_PendingRequest]" | None = None
        self._coalescer: "asyncio.Task[None]" | None = None
        self._flush_slots: asyncio.Semaphore | None = None
        self._flush_tasks: set["asyncio.Task[None]"] = set()
        self._flush_pool: ThreadPoolExecutor | None = None
        # Simple lifetime totals, mutated from the event loop only.
        self.n_served = 0
        self.n_shed = 0
        self.n_errors = 0
        self.n_flushes = 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_searcher(
        cls,
        searcher: ANNSearcher,
        *,
        topk: int = 10,
        nprobe: int = 1,
        rerank: int = 0,
        executor: str = "batch",
        n_workers: int = 1,
        config: ServeConfig | None = None,
        observability: Observability | None = None,
    ) -> "MicroBatchServer":
        """A server over :meth:`ANNSearcher.search` with fixed knobs.

        ``executor``/``n_workers`` select the engine under the batches
        exactly as on :meth:`~repro.search.ANNSearcher.search`; the
        searcher's pinned executor caches mean every flush reuses the
        same warm pool.
        """
        if executor not in ANNSearcher.EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}, expected one of "
                f"{ANNSearcher.EXECUTORS}"
            )

        def batch_fn(queries: np.ndarray) -> Sequence[SearchResult]:
            results = searcher.search(
                queries,
                topk=topk,
                nprobe=nprobe,
                rerank=rerank,
                executor=executor,
                n_workers=n_workers,
            )
            # 2-D input always returns a list; keep mypy informed.
            return results if isinstance(results, list) else [results]

        return cls(batch_fn, config, observability=observability)

    @classmethod
    def for_engine(
        cls,
        engine: "Engine",
        *,
        k: int = 10,
        nprobe: int | None = None,
        config: ServeConfig | None = None,
        observability: Observability | None = None,
    ) -> "MicroBatchServer":
        """A server over :meth:`Engine.search` (sharded engines scatter
        each micro-batch across their shards as usual).

        A mutable engine (``mutable=True``) additionally gets the write
        path wired: :meth:`add` and :meth:`delete` route through the
        engine's delta overlay, applied on the flush thread before each
        micro-batch's reads."""

        def batch_fn(queries: np.ndarray) -> Sequence[SearchResult]:
            results = engine.search(queries, k=k, nprobe=nprobe)
            # 2-D input always returns a list; keep mypy informed.
            return results if isinstance(results, list) else [results]

        write_fn: Callable[[str, np.ndarray | None, int], None] | None = None
        if engine.config.mutable:

            def write_fn(
                kind: str, vector: np.ndarray | None, write_id: int
            ) -> None:
                ids = np.array([write_id], dtype=np.int64)
                if kind == _KIND_ADD:
                    if vector is None:
                        raise SimulationError(
                            "add request reached write_fn without a vector"
                        )
                    engine.add(vector[None, :], ids)
                else:
                    engine.delete(ids)

        return cls(
            batch_fn, config, write_fn=write_fn, observability=observability
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the coalescer task and the flush thread pool (idempotent)."""
        if self._closed:
            raise ConfigurationError(
                "MicroBatchServer is closed; create a new server"
            )
        if self._coalescer is not None:
            return
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._flush_slots = asyncio.Semaphore(
            self.config.max_concurrent_batches
        )
        self._flush_pool = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent_batches,
            thread_name_prefix="repro-serve",
        )
        self._coalescer = asyncio.get_running_loop().create_task(
            self._coalesce()
        )

    async def stop(self) -> None:
        """Stop accepting, drain accepted requests, release the pool.

        Every request admitted before ``stop`` is still answered: the
        coalescer's partial batch and anything left in the queue flush
        with reason :data:`FLUSH_DRAIN`, and ``stop`` returns only after
        all in-flight batches resolve their futures.
        """
        coalescer, self._coalescer = self._coalescer, None
        if coalescer is None:
            return
        coalescer.cancel()
        try:
            await coalescer
        except asyncio.CancelledError:
            pass
        queue = self._queue
        if queue is not None:
            leftovers: list[_PendingRequest] = []
            while True:
                try:
                    leftovers.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for i in range(0, len(leftovers), self.config.max_batch):
                self._spawn_flush(
                    leftovers[i : i + self.config.max_batch],
                    FLUSH_DRAIN,
                    release_slot=False,
                )
        if self._flush_tasks:
            await asyncio.gather(
                *list(self._flush_tasks), return_exceptions=True
            )
        pool, self._flush_pool = self._flush_pool, None
        if pool is not None:
            # All flushes already resolved, so the threads are idle and
            # this returns without blocking the loop.
            pool.shutdown(wait=True)
        self._queue = None
        self._flush_slots = None

    async def __aenter__(self) -> "MicroBatchServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def close(self) -> None:
        """Mark the server terminally closed (idempotent, concurrency-safe).

        A running server must be drained first — ``close()`` raises
        while the coalescer is alive (call ``await stop()``; unlike
        ``stop``, ``close`` is synchronous and holds no resources to
        release). After ``close`` every further :meth:`start`,
        :meth:`search`, :meth:`add` or :meth:`delete` raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        if self._coalescer is not None:
            raise ConfigurationError(
                "MicroBatchServer is running; await stop() before close()"
            )
        self._closed = True

    def __enter__(self) -> "MicroBatchServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (closing is terminal)."""
        return self._closed

    @property
    def running(self) -> bool:
        return self._coalescer is not None

    @property
    def depth(self) -> int:
        """Requests accepted but not yet collected into a batch."""
        return 0 if self._queue is None else self._queue.qsize()

    # -- the client API ------------------------------------------------------

    async def search(self, query: np.ndarray) -> ServedResult:
        """Serve one 1-D query through the next micro-batch.

        Returns a :data:`STATUS_OK` result, or sheds immediately with
        :data:`STATUS_OVERLOAD` when the admission queue is full. If the
        batch itself raises, the exception propagates to every awaiting
        client of that batch, which is why a query that is not 1-D or
        not finite is refused here, before it joins one.
        """
        q = _admitted_row(query, "requests are single 1-D queries")
        return await self._enqueue(_KIND_SEARCH, q, None)

    async def add(self, vector: np.ndarray, id: int) -> ServedResult:
        """Insert (or upsert) one row through the admission queue.

        The write shares the bounded queue — and the shedding policy —
        with reads; it applies on the flush thread *before* the reads of
        its micro-batch, so a client whose write was admitted observes
        it from that flush on. Requires a server constructed with a
        ``write_fn`` (:meth:`for_engine` over a mutable engine).
        """
        self._require_writable("add")
        v = _admitted_row(vector, "writes are single 1-D rows")
        return await self._enqueue(_KIND_ADD, v, _admitted_id(id))

    async def delete(self, id: int) -> ServedResult:
        """Delete one id through the admission queue (see :meth:`add`)."""
        self._require_writable("delete")
        return await self._enqueue(_KIND_DELETE, None, _admitted_id(id))

    async def _enqueue(
        self, kind: str, query: np.ndarray | None, write_id: int | None
    ) -> ServedResult:
        queue = self._queue
        if queue is None or self._coalescer is None:
            if self._closed:
                raise ConfigurationError(
                    "MicroBatchServer is closed; create a new server"
                )
            raise ConfigurationError(
                "MicroBatchServer is not running; enter 'async with "
                "server:' or await server.start() first"
            )
        loop = asyncio.get_running_loop()
        request = _PendingRequest(
            kind=kind,
            query=query,
            enqueued_at=loop.time(),
            future=loop.create_future(),
            write_id=write_id,
        )
        try:
            queue.put_nowait(request)
        except asyncio.QueueFull:
            self.n_shed += 1
            self._obs().record_request(STATUS_OVERLOAD)
            return ServedResult(
                status=STATUS_OVERLOAD,
                result=None,
                queue_wait_s=0.0,
                batch_size=0,
                latency_s=0.0,
            )
        return await request.future

    def _require_writable(self, op: str) -> None:
        if self._write_fn is None:
            raise ConfigurationError(
                f"MicroBatchServer.{op}() requires a writable server; "
                "construct with for_engine() over a mutable engine (or "
                "pass write_fn)"
            )

    # -- internals -----------------------------------------------------------

    def _obs(self) -> Observability:
        return (
            self.observability
            if self.observability is not None
            else get_observability()
        )

    async def _coalesce(self) -> None:
        """The coalescer loop: collect a micro-batch, spawn its flush.

        A flush slot is acquired *before* collecting, so when every slot
        is busy the coalescer pauses and admission pressure lands on the
        bounded queue (where it sheds) instead of on an unbounded pile
        of in-flight batches. What is already queued is taken before any
        wait, so a backlog older than the deadline still leaves in
        batches of up to ``max_batch``, not one request at a time.
        """
        queue, slots = self._queue, self._flush_slots
        if queue is None or slots is None:  # pragma: no cover
            raise ConfigurationError("coalescer running without start()")
        loop = asyncio.get_running_loop()
        while True:
            await slots.acquire()
            try:
                first = await queue.get()
            except asyncio.CancelledError:
                slots.release()
                raise
            batch = [first]
            deadline = first.enqueued_at + self.config.max_delay_s
            try:
                while len(batch) < self.config.max_batch:
                    if not queue.empty():
                        batch.append(queue.get_nowait())
                        continue
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                # stop() interrupted the collection: the batch holds
                # admitted requests, which must still be answered.
                self._spawn_flush(batch, FLUSH_DRAIN, release_slot=True)
                raise
            reason = (
                FLUSH_SIZE
                if len(batch) >= self.config.max_batch
                else FLUSH_DEADLINE
            )
            self._spawn_flush(batch, reason, release_slot=True)

    def _spawn_flush(
        self, batch: list[_PendingRequest], reason: str, *, release_slot: bool
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._flush(batch, reason, release_slot)
        )
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _flush(
        self, batch: list[_PendingRequest], reason: str, release_slot: bool
    ) -> None:
        """Execute one micro-batch off-loop and resolve its futures.

        Writes apply first, in enqueue order, on the flush thread; the
        batch's reads then run as one engine batch. A write failure
        fails the whole micro-batch (every awaiting client sees the
        exception) — partial application would leave the clients unable
        to tell which writes landed.
        """
        loop = asyncio.get_running_loop()
        obs = self._obs()
        try:
            self.n_flushes += 1
            obs.record_flush(len(batch), reason)
            started = loop.time()
            writes = [r for r in batch if r.kind != _KIND_SEARCH]
            reads = [r for r in batch if r.kind == _KIND_SEARCH]
            queries = (
                np.stack([request.query for request in reads])
                if reads
                else None
            )
            write_fn = self._write_fn
            batch_fn = self._batch_fn

            def execute() -> Sequence[SearchResult]:
                for op in writes:
                    if write_fn is None or op.write_id is None:
                        raise SimulationError(
                            "write request queued on a server without a "
                            "write_fn or without an id"
                        )
                    write_fn(op.kind, op.query, op.write_id)
                if queries is None:
                    return []
                return batch_fn(queries)

            try:
                results = await loop.run_in_executor(
                    self._flush_pool, execute
                )
            except Exception as exc:
                self.n_errors += len(batch)
                finished = loop.time()
                for request in batch:
                    obs.record_request(
                        STATUS_ERROR,
                        queue_wait_s=started - request.enqueued_at,
                        latency_s=finished - request.enqueued_at,
                    )
                    if not request.future.done():
                        request.future.set_exception(exc)
                return
            finished = loop.time()
            if len(results) != len(reads):
                mismatch: Exception = ConfigurationError(
                    f"batch function returned {len(results)} results for "
                    f"{len(reads)} queries"
                )
                self.n_errors += len(batch)
                for request in batch:
                    obs.record_request(
                        STATUS_ERROR,
                        queue_wait_s=started - request.enqueued_at,
                        latency_s=finished - request.enqueued_at,
                    )
                    if not request.future.done():
                        request.future.set_exception(mismatch)
                return
            self.n_served += len(batch)
            paired = [
                (request, result)
                for request, result in zip(reads, results)
            ] + [(request, None) for request in writes]
            for request, result in paired:
                served = ServedResult(
                    status=STATUS_OK,
                    result=result,
                    queue_wait_s=started - request.enqueued_at,
                    batch_size=len(batch),
                    latency_s=finished - request.enqueued_at,
                )
                obs.record_request(
                    STATUS_OK,
                    queue_wait_s=served.queue_wait_s,
                    latency_s=served.latency_s,
                )
                if not request.future.done():
                    request.future.set_result(served)
        finally:
            if release_slot and self._flush_slots is not None:
                self._flush_slots.release()
