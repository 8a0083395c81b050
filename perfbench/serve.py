"""``serve-mixed``: single requests through ``MicroBatchServer`` over a
mutable engine, 95 % search / 2.5 % add / 2.5 % delete, with
``Engine.compact()`` running beside the open-loop traffic.

Phase A is an **open loop** (arrivals on an ``i / rate`` schedule,
latency timed from the due time, a compaction from a helper thread
beside every other segment of traffic); phase B a **closed loop** (8
clients, each sending its next request when the previous one
completes). The two alternate in short segments over the whole run, so
a slow spell of the machine falls on both and on a minority of either's
segments. All clients are coroutines on one event-loop thread; the
other busy threads are the server's flush thread and, in phase A, the
compaction helper.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import Engine
from repro.serve import MicroBatchServer, ServeConfig

from . import layers
from .common import (
    RECALL_K,
    RECALL_NEIGHBOURS,
    Outcome,
    SpanRecorder,
    Spec,
    Speed,
    median,
    peak_rss_mib,
    percentile,
    same_bytes,
    tree_bytes,
)

SERVE_CONFIG = ServeConfig(max_batch=32, max_delay_s=0.002, max_queue=1024)
OPEN_RATE = 100.0          # requests/s offered in phase A
# Fewer than max_batch, and no compaction during phase B: the clients then
# move in lock-step batches of CLOSED_CLIENTS, each closed by the 2 ms
# deadline, which absorbs scheduling jitter. With max_batch clients, or
# with compact() holding the GIL beside them, the group splits at the
# first hiccup and the coalescer falls into batches of 1 for good, so
# throughput read 450 or 900 ops/s depending on when that happened (see
# README, "seen while measuring").
CLOSED_CLIENTS = 8
OPEN_SHARE = 0.6           # of --seconds spent in phase A, the rest in B
SEARCH_SHARE = 0.95        # the remaining 5 % split evenly into add / delete
# The run is a row of pairs: a segment of phase A, then one of phase B,
# with the traffic drained between segments, which is where the machine's
# speed is sampled (see common.Speed). Every other segment of phase A
# starts a compaction, which is over before the segment of phase B
# begins. Phase B's throughput is the median over its segments.
PAIR_S = 1.25
COMPACT_EVERY_PAIRS = 2
#: Direct ``Engine.add`` / ``Engine.delete`` calls timed by the traced run.
DELTA_WRITES = 40


@dataclass
class Request:
    """One operation as the load generator saw it (loop-clock seconds)."""

    kind: str
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False
    queue_wait_s: float = 0.0
    batch_size: int = 0
    ids: np.ndarray | None = None
    deletes_acked: int = 0     # deletes acknowledged before this was sent
    segment: int = 0           # of its phase

    def latency_s(self, scale: float = 1.0) -> float:
        """From the due time (the send time, in the closed loop). ``scale``
        puts the service part (the micro-batch executing, which is CPU) at
        the reference speed; generator lateness and queue wait (the
        coalescer's 2 ms timer) stay as measured."""
        service = self.done - self.sent - self.queue_wait_s
        return self.done - self.due + service * (scale - 1.0)


class Traffic:
    """The seeded operation mix, and the dict model of acknowledged writes."""

    def __init__(self, ds, seed: int) -> None:
        self.queries = ds.queries
        self.new_rows = ds.learn
        self.rng = np.random.default_rng(seed)
        self.live = list(range(len(ds.base)))      # ids a delete may pick
        self.added: dict[int, np.ndarray] = {}     # acknowledged adds
        self.deleted: list[int] = []               # acknowledged deletes, in order
        self.next_id = len(ds.base)
        self.n_sent = 0

    def draw(self) -> tuple[str, object]:
        i = self.n_sent
        self.n_sent += 1
        u = self.rng.random()
        if u < SEARCH_SHARE or not self.live:
            return "search", self.queries[i % len(self.queries)]
        if u < SEARCH_SHARE + (1.0 - SEARCH_SHARE) / 2:
            row_id = self.next_id
            self.next_id += 1
            return "add", (row_id, self.new_rows[row_id % len(self.new_rows)])
        # Taken out of ``live`` when sent, so no second delete picks it.
        at = int(self.rng.integers(len(self.live)))
        self.live[at], self.live[-1] = self.live[-1], self.live[at]
        return "delete", self.live.pop()

    async def send(self, server: MicroBatchServer, due: float,
                   log: list[Request]) -> None:
        loop = asyncio.get_running_loop()
        kind, payload = self.draw()
        request = Request(kind, due, loop.time(), deletes_acked=len(self.deleted))
        log.append(request)
        try:
            if kind == "search":
                served = await server.search(payload)
            elif kind == "add":
                served = await server.add(payload[1], payload[0])
            else:
                served = await server.delete(payload)
        except Exception:  # noqa: BLE001 - a raised request is a failed one
            request.done = loop.time()
            return
        request.done = loop.time()
        request.ok = served.ok
        request.queue_wait_s = served.queue_wait_s
        request.batch_size = served.batch_size
        if not served.ok:
            return
        if kind == "search":
            request.ids = served.result.ids
        elif kind == "add":
            self.added[payload[0]] = payload[1]
            self.live.append(payload[0])
        else:
            self.deleted.append(payload)

    def live_rows(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, vectors)`` the index must hold after the acknowledged writes."""
        gone = set(self.deleted)
        base_ids = np.array([i for i in range(len(base)) if i not in gone],
                            dtype=np.int64)
        extra = [i for i in self.added if i not in gone]
        ids = np.concatenate([base_ids, np.array(extra, dtype=np.int64)])
        vectors = np.concatenate(
            [base[base_ids]] + [self.added[i][None, :] for i in extra]
        )
        return ids, vectors


async def open_loop(server, traffic: Traffic, rate: float, seconds: float,
                    log: list[Request]) -> None:
    loop = asyncio.get_running_loop()
    epoch = loop.time()
    tasks = []
    for i in range(int(rate * seconds)):
        due = epoch + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(traffic.send(server, due, log)))
    await asyncio.gather(*tasks)


async def closed_loop(server, traffic: Traffic, clients: int, seconds: float,
                      log: list[Request]) -> None:
    loop = asyncio.get_running_loop()
    end = loop.time() + seconds

    async def client() -> None:
        while loop.time() < end:
            await traffic.send(server, loop.time(), log)

    await asyncio.gather(*(client() for _ in range(clients)))


class Compactor:
    """``Engine.compact()`` on a helper thread, once per :meth:`kick`."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.reports: list = []
        self.spans: list[tuple[float, float]] = []
        self.errors: list[BaseException] = []
        self._wake = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._stopping = False
        self._thread = threading.Thread(target=self._run, name="perfbench-compact")

    def kick(self) -> None:
        self._idle.clear()
        self._wake.set()

    def wait_idle(self) -> None:
        self._idle.wait(timeout=60.0)

    def _run(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._stopping:
                return
            started = time.monotonic()
            try:
                self.reports.append(self.engine.compact())
                self.spans.append((started, time.monotonic()))
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                self.errors.append(exc)
            self._idle.set()

    def __enter__(self) -> "Compactor":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stopping = True
        self._wake.set()
        self._thread.join(timeout=60.0)


async def serve_phases(spec: Spec, engine: Engine, traffic: Traffic,
                       seconds: float, speed: Speed | None) -> dict:
    """Phases A and B in alternating segments, then a quiesced compact and
    the final reads.

    ``speed`` samples the machine's speed between the segments (untraced
    runs); ``kernel_s`` is the median of those samples. One factor for the
    whole run: a sample says too little about the one segment beside it
    (factors of 0.8 next to segments that ran at full rate), and a slow
    segment among fast ones is what the median over segments is for.
    """
    loop = asyncio.get_running_loop()
    n_pairs = max(1, round(seconds / PAIR_S))
    open_s = seconds * OPEN_SHARE / n_pairs
    closed_s = seconds * (1.0 - OPEN_SHARE) / n_pairs
    open_log: list[Request] = []
    closed_log: list[Request] = []

    kernel: list[float] = []

    async def segment(number: int, log: list[Request], traffic_into) -> None:
        requests: list[Request] = []
        await traffic_into(requests)
        if speed:
            kernel.append(speed.sample(5))
        for request in requests:
            request.segment = number
        log += requests

    server = MicroBatchServer.for_engine(
        engine, k=spec.k, nprobe=spec.nprobe, config=SERVE_CONFIG
    )
    async with server:
        with Compactor(engine) as compactor:
            for number in range(n_pairs):
                if number % COMPACT_EVERY_PAIRS == COMPACT_EVERY_PAIRS - 1:
                    compactor.kick()
                await segment(number, open_log, lambda log: open_loop(
                    server, traffic, OPEN_RATE, open_s, log))
                await loop.run_in_executor(None, compactor.wait_idle)
                await segment(number, closed_log, lambda log: closed_loop(
                    server, traffic, CLOSED_CLIENTS, closed_s, log))
        final = await loop.run_in_executor(None, engine.compact)
        served = await asyncio.gather(*(server.search(q) for q in traffic.queries))
    return {
        "open": open_log, "closed": closed_log, "kernel_s": median(kernel),
        "compactions": compactor.reports + [final],
        "compaction_spans": compactor.spans, "errors": compactor.errors,
        "served": served, "flushes": server.n_flushes, "shed": server.n_shed,
    }


def setup(spec: Spec, ds, workdir: Path, tag: str) -> tuple[Engine, Path]:
    """Generic set-up plus a server spin-up and one served micro-batch."""
    engine, path = layers.setup_engine(spec, ds.base, ds.queries, workdir, tag)

    async def warm() -> None:
        server = MicroBatchServer.for_engine(
            engine, k=spec.k, nprobe=spec.nprobe, config=SERVE_CONFIG
        )
        async with server:
            await asyncio.gather(*(server.search(q) for q in ds.queries[: spec.batch]))

    asyncio.run(warm())
    return engine, path


def oracle(spec: Spec, engine: Engine, ds, traffic: Traffic,
           phases: dict) -> tuple[int, list[str], float]:
    """Failed operations, why, and ``recall_at_100`` of the final state.

    * no read returns an id whose delete was acknowledged before the
      read was sent;
    * after the quiesced ``compact()`` the served answers equal direct
      ``Engine.search`` byte for byte, and hold only live ids;
    * ``len(engine)`` equals the dict model of the acknowledged writes.
    """
    failed = 0
    notes = []
    log = phases["open"] + phases["closed"]
    not_ok = sum(not r.ok for r in log)
    if not_ok:
        failed += not_ok
        notes.append(f"{not_ok} requests raised or were shed")
    stale = sum(
        r.ids is not None
        and not set(traffic.deleted[: r.deletes_acked]).isdisjoint(r.ids.tolist())
        for r in log
    )
    if stale:
        failed += stale
        notes.append(f"{stale} reads returned an id deleted before they were sent")
    if phases["errors"]:
        failed += len(phases["errors"])
        notes.append(f"compact() raised: {phases['errors'][0]!r}")

    ids, vectors = traffic.live_rows(ds.base)
    if len(engine) != len(ids):
        failed += 1
        notes.append(f"len(engine)={len(engine)} but the model holds {len(ids)}")
    direct = engine.search(ds.queries, k=spec.k, nprobe=spec.nprobe)
    deep = engine.search(ds.queries, k=RECALL_K, nprobe=spec.nprobe)
    live = set(ids.tolist())
    wrong = sum(
        not (s.ok and same_bytes(s.result, d) and live.issuperset(d.ids.tolist()))
        for s, d in zip(phases["served"], direct)
    )
    if wrong:
        failed += wrong
        notes.append(f"{wrong} final served answers differ from Engine.search")
    nearest = layers.nearest_rows(vectors, ds.queries)
    return failed, notes, layers.recall(deep, ids[nearest])


def run(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path,
        *, smoke: bool = False, corrupt: bool = False,
        rec: SpanRecorder | None = None) -> Outcome:
    ds, _ = layers.make_dataset(spec, seed)
    traffic = Traffic(ds, seed)
    if trace:
        outcome = _traced(spec, ds, traffic, seconds, workdir, rec)
    else:
        outcome = _untraced(spec, ds, traffic, seconds, workdir, corrupt)
    outcome.dataset = ds.name
    return outcome


def _latencies(log: list[Request], kinds: tuple[str, ...],
               scale: float = 1.0) -> list[float]:
    return [r.latency_s(scale) for r in log if r.ok and r.kind in kinds]


def _closed_rates(log: list[Request], scale: float = 1.0) -> list[float]:
    """Operations completed per second in each segment of phase B.

    Every client sends its next request when the last one completes, so
    a segment lasts the sum of its requests' latencies / clients (as the
    clock read them this is the segment's wall time, to within one
    batch); ``scale`` takes the latencies at the reference speed.
    """
    rates = []
    for number in range(log[-1].segment + 1):
        segment = [r for r in log if r.segment == number]
        lasted = sum(r.latency_s(scale) for r in segment) / CLOSED_CLIENTS
        rates.append(sum(r.ok for r in segment) / lasted)
    return rates


def _untraced(spec: Spec, ds, traffic: Traffic, seconds: float,
              workdir: Path, corrupt: bool) -> Outcome:
    speed = Speed(spec.name)
    engine, path, setups, setup_kernel = layers.repeated_setup(
        lambda tag: setup(spec, ds, workdir, tag), speed
    )
    try:
        phases = asyncio.run(serve_phases(spec, engine, traffic, seconds, speed))
        if corrupt:
            traffic.deleted.append(int(phases["served"][0].result.ids[0]))
        failed, notes, recall = oracle(spec, engine, ds, traffic, phases)
        sim = layers.simulate(spec, engine, ds.queries, "haswell")

        def timed(scaled: bool) -> dict[str, float]:
            built = np.asarray(setups)
            scale = 1.0
            if scaled:
                built = built * speed.scales(setup_kernel)
                scale = float(speed.scales(phases["kernel_s"]))
            return {
                "setup_s": median(built),
                "qps": median(_closed_rates(phases["closed"], scale)),
                "p50_ms": median(_latencies(phases["open"], ("search",), scale)) * 1e3,
            }

        values = {
            **timed(scaled=True),
            "recall_at_100": recall,
            "sim_cycles_per_code": sim["cycles_per_code"],
            "index_bytes_per_vector": tree_bytes(path) / len(engine),
        }
    finally:
        engine.close()
    values["peak_rss_mb"] = peak_rss_mib()
    return Outcome(
        values,
        attempted=len(phases["open"]) + len(phases["closed"]) + len(phases["served"]),
        failed=failed,
        samples={"setup_s": len(setups),
                 "qps": phases["closed"][-1].segment + 1,
                 "p50_ms": len(_latencies(phases["open"], ("search",))),
                 "recall_at_100": RECALL_NEIGHBOURS * len(ds.queries)},
        notes=notes,
        raw=timed(scaled=False),
        speed=speed,
    )


# -- traced -----------------------------------------------------------------------


def delta_layers(spec: Spec, engine: Engine, ds, traffic: Traffic,
                 rec: SpanRecorder) -> dict[str, float]:
    """``repro.delta`` through direct ``Engine`` calls: one-row writes,
    one fixed batch read clean and then dirty, and the compaction."""
    batch = ds.queries[: spec.batch]

    def read_s(name: str) -> float:
        for _ in range(20):
            with rec.span(name):
                engine.search(batch, k=spec.k, nprobe=spec.nprobe)
        return median(rec.durations(name))

    clean = read_s("delta.read_clean")
    for _ in range(DELTA_WRITES):
        row_id = traffic.next_id
        traffic.next_id += 1
        row = ds.learn[row_id % len(ds.learn)]
        with rec.span("delta.add"):
            engine.add(row[None, :], np.array([row_id]))
        traffic.added[row_id] = row
        victim = traffic.live.pop()
        with rec.span("delta.delete"):
            engine.delete(np.array([victim]))
        traffic.deleted.append(victim)
    dirty = read_s("delta.read_dirty")
    with rec.span("delta.compact"):
        report = engine.compact()
    return {
        "delta.add_ms": median(rec.durations("delta.add")) * 1e3,
        "delta.delete_ms": median(rec.durations("delta.delete")) * 1e3,
        "delta.compact_s": report.wall_time_s,
        "delta.compact_encode_s": report.encode_time_s,
        "delta.rows_folded": float(report.n_folded),
        "delta.overlay_read_ratio": clean / dirty,
    }


def _traced(spec: Spec, ds, traffic: Traffic, seconds: float, workdir: Path,
            rec: SpanRecorder) -> Outcome:
    engine, values = layers.traced_setup(spec, ds.base, workdir, rec)
    try:
        values.update(delta_layers(spec, engine, ds, traffic, rec))
        rounds, samples, attempted, failed = layers.layer_rounds(
            spec, engine, ds.queries, rec, seconds * 0.3
        )
        values.update(rounds)
        values.update(dict.fromkeys(layers.SHARD_METRICS, 0.0))
        values.update(layers.simd_layers(spec, engine, ds.queries))
        phases = asyncio.run(
            serve_phases(spec, engine, traffic, seconds * 0.7, speed=None)
        )
        wrong, notes, _ = oracle(spec, engine, ds, traffic, phases)
    finally:
        engine.close()
    log = phases["open"] + phases["closed"]
    for n, r in enumerate(log):
        parent = rec.add(f"serve.{r.kind}", r.due, r.done, batch=n)
        rec.add("serve.queue_wait", r.sent, r.sent + r.queue_wait_s,
                parent=parent, batch=n)
    for started, ended in phases["compaction_spans"]:
        rec.add("delta.compact", started, ended)
    searches = _latencies(phases["open"], ("search",))
    waits = [r.queue_wait_s for r in phases["open"] if r.ok]
    service = [r.done - r.sent - r.queue_wait_s for r in phases["open"] if r.ok]
    values.update({
        "serve.queue_wait_ms.p50": median(waits) * 1e3,
        "serve.queue_wait_ms.p99": percentile(waits, 99) * 1e3,
        "serve.service_ms.p50": median(service) * 1e3,
        "serve.latency_ms.p90": percentile(searches, 90) * 1e3,
        "serve.latency_ms.p99": percentile(searches, 99) * 1e3,
        "serve.write_ms.p50": median(_latencies(phases["open"], ("add", "delete"))) * 1e3,
        "serve.batch_size.mean.open": float(
            np.mean([r.batch_size for r in phases["open"] if r.ok])),
        "serve.batch_size.mean.closed": float(
            np.mean([r.batch_size for r in phases["closed"] if r.ok])),
        "serve.closed_qps": median(_closed_rates(phases["closed"])),
        "serve.flushes": float(phases["flushes"]),
        "serve.shed": float(phases["shed"]),
        "serve.gen_late_ms.p99": percentile(
            [r.sent - r.due for r in phases["open"]], 99) * 1e3,
    })
    samples.update(open_requests=len(phases["open"]),
                   closed_requests=len(phases["closed"]),
                   compactions=len(phases["compactions"]))
    return Outcome(values, attempted + len(log), failed + wrong, samples, notes)
