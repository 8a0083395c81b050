"""Set-up and the per-layer traced run, through the layers' public functions.

The untraced runs call ``Engine`` only. The traced run rebuilds the same
engine layer by layer (``ProductQuantizer.fit`` -> ``IVFADCIndex.add`` ->
``Engine.save`` -> ``load_index`` ...) and replays the measured batches
through ``BatchPlanner.plan`` / ``distance_tables_for_batch`` /
``scan_partition_batch`` / ``merge_partials`` with benchmark-side spans,
so every per-layer number comes from a span around one public call.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import Engine, EngineConfig, IVFADCIndex, ProductQuantizer, VectorDataset
from repro.core import PQFastScanner
from repro.data import exact_neighbors, recall_at
from repro.ivf.partition import Partition
from repro.obs import observability_session
from repro.parallel import ProcessBatchExecutor
from repro.persistence import (
    load_index,
    load_sharded_index,
    save_index,
)
from repro.scan import NaiveScanner
from repro.search import (
    BatchExecutor,
    BatchPlanner,
    merge_partials,
    scan_partition_batch,
)
from repro.shard import ShardedIndex
from repro.simd import fastscan_kernel, get_platform, naive_kernel, quickadc_kernel

from .common import (
    N_LEARN,
    RECALL_K,
    RECALL_NEIGHBOURS,
    SETUP_REPEATS,
    SpanRecorder,
    Spec,
    Speed,
    median,
    percentile,
    same_bytes,
)

#: Layer spans that make up one replayed batch.
STAGES = ("ivf.route", "search.plan", "ivf.tables", "scan", "search.merge")


def make_dataset(spec: Spec, seed: int) -> tuple[VectorDataset, np.ndarray]:
    """The run's only input: synthetic vectors and queries from ``seed``,
    plus each query's exact nearest base rows (for ``recall_at_100``)."""
    ds = VectorDataset.synthetic(N_LEARN, spec.n_base, spec.pool, seed=seed)
    return ds, nearest_rows(ds.base, ds.queries)


def nearest_rows(base: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``(n_queries, RECALL_NEIGHBOURS)`` exact nearest base rows per query.
    Brute force in blocks of 256 queries, so the distance matrix stays
    small beside the engine in ``peak_rss_mb``."""
    return exact_neighbors(base, queries, RECALL_NEIGHBOURS, block=256)[0]


def batches_of(spec: Spec, queries: np.ndarray) -> list[np.ndarray]:
    return [queries[i : i + spec.batch] for i in range(0, len(queries), spec.batch)]


def artifact_path(spec: Spec, workdir: Path, tag: str) -> Path:
    return workdir / (f"{tag}.d" if spec.sharded else f"{tag}.npz")


def recall(results, truth_ids: np.ndarray) -> float:
    """``recall_at_100``: the share of the queries' exact nearest
    neighbours (``truth_ids``, one column per rank) that are among the
    first ``RECALL_K`` ids returned; ``repro.data.recall_at`` per rank,
    averaged."""
    found = np.full((len(results), RECALL_K), -1, dtype=np.int64)
    for row, result in enumerate(results):
        found[row, : len(result.ids)] = result.ids[:RECALL_K]
    return float(np.mean([
        recall_at(found, truth_ids[:, rank : rank + 1])
        for rank in range(truth_ids.shape[1])
    ]))


# -- untraced set-up --------------------------------------------------------------


def setup_engine(spec: Spec, base: np.ndarray, queries: np.ndarray,
                 workdir: Path, tag: str) -> tuple[Engine, Path]:
    """What ``setup_s`` times: build, save, load (which spins the pools
    up) and one warm-up batch, so lazy state exists before measuring."""
    config = EngineConfig(**spec.engine)
    path = artifact_path(spec, workdir, tag)
    with Engine.build(base, config) as built:
        built.save(path)
    engine = Engine.load(path, config, mmap=spec.mmap)
    engine.search(queries[: spec.batch], k=spec.k, nprobe=spec.nprobe)
    return engine, path


def repeated_setup(setup, speed: Speed) -> tuple[Engine, Path, list[float], list[float]]:
    """Run ``setup(tag)`` ``SETUP_REPEATS`` times; every engine but the
    last is closed before the next one is built. Returns the last engine
    and its artifact, each set-up's wall time, and the kernel time to
    rescale it with: the mean of five samples before and five after. A
    set-up is one ``Engine.build`` for most of its seconds, so the
    machine's speed cannot be sampled inside it from this process; the
    speed states last longer than a set-up more often than not."""
    times, kernel = [], []
    engine = path = None
    for repeat in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        before = speed.sample(5)
        t0 = time.perf_counter()
        engine, path = setup(f"setup{repeat}")
        times.append(time.perf_counter() - t0)
        kernel.append((before + speed.sample(5)) / 2)
    return engine, path, times, kernel


# -- traced set-up ----------------------------------------------------------------


def traced_setup(spec: Spec, base: np.ndarray, workdir: Path,
                 rec: SpanRecorder) -> tuple[Engine, dict[str, float]]:
    """The same engine as :func:`setup_engine`, built layer by layer."""
    config = EngineConfig(**spec.engine)
    path = artifact_path(spec, workdir, "traced")
    n = len(base)
    with rec.span("setup"):
        with rec.span("pq.fit") as fit:
            pq = ProductQuantizer(
                m=config.m, bits=config.bits,
                max_iter=config.max_iter, seed=config.seed,
            ).fit(base)
        with rec.span("pq.encode") as encode:
            pq.encode(base)
        with rec.span("ivf.add") as add:
            index = IVFADCIndex(
                pq,
                n_partitions=config.n_partitions,
                encode_residuals=config.encode_residuals,
                coarse_max_iter=config.coarse_max_iter,
                seed=config.seed,
            ).add(base)
        sharded = None
        if spec.sharded:
            sharded = ShardedIndex.from_index(
                index, n_shards=config.n_shards, layout=config.shard_layout
            )
        # Thread backend while saving: only the artifact is wanted here,
        # the process pools are timed on their own below.
        with Engine(index, replace(config, executor="thread"),
                    sharded=sharded) as built:
            with rec.span("persistence.save") as save:
                built.save(path)
        load = load_sharded_index if spec.sharded else load_index
        with rec.span("persistence.load") as eager:
            load(path)
        with rec.span("persistence.load_mmap") as mapped:
            load(path, mmap=True)
        with rec.span("engine.load"):
            engine = Engine.load(path, config, mmap=spec.mmap)
        spinup_s = 0.0
        if config.resolved_executor == "process":
            # One shard's pool, as ScatterGatherExecutor builds it.
            with rec.span("parallel.pool_spinup") as spinup:
                ProcessBatchExecutor(
                    sorted(path.glob("shard_*.npz"))[0],
                    config.scanner_factory(engine.index.pq)(),
                    n_workers=config.n_workers,
                    index=engine.sharded.shards[0].index,
                ).close()
            spinup_s = _took(rec, spinup)
    return engine, {
        "pq.fit_vps": n / _took(rec, fit),
        "pq.encode_vps": n / _took(rec, encode),
        "ivf.add_vps": n / _took(rec, add),
        "persistence.save_s": _took(rec, save),
        "persistence.load_s": _took(rec, eager),
        "persistence.load_mmap_s": _took(rec, mapped),
        "parallel.pool_spinup_s": spinup_s,
    }


def _took(rec: SpanRecorder, span_id: int) -> float:
    span = rec.spans[span_id]
    return span["end"] - span["start"]


# -- the replay -------------------------------------------------------------------


class _SpannedIndex:
    """The index as ``BatchPlanner`` sees it, with ``route_batch`` under
    a span: ``search.plan``'s self time is then planning without routing."""

    def __init__(self, index: IVFADCIndex, rec: SpanRecorder) -> None:
        self._index = index
        self._rec = rec

    @property
    def partitions(self):
        return self._index.partitions

    def route_batch(self, queries: np.ndarray, nprobe: int = 1) -> np.ndarray:
        with self._rec.span("ivf.route"):
            return self._index.route_batch(queries, nprobe=nprobe)


class Replay:
    """Outside-in replay of ``Engine.search(batch)`` with a scanner of
    its own (first touch timed as ``scan.warm``), one span per layer
    call, plus a ``NaiveScanner`` over the same tables and partitions as
    the wall-clock reference row."""

    def __init__(self, spec: Spec, engine: Engine, rec: SpanRecorder) -> None:
        self.spec = spec
        self.rec = rec
        self.index = engine.index
        self.scanner = engine.config.scanner_factory(engine.index.pq)()
        self.warm_s = 0.0
        warm = getattr(self.scanner, "warm", None)
        if callable(warm):
            with rec.span("scan.warm") as warmed:
                warm(self.index.partitions)
            self.warm_s = _took(rec, warmed)
        self.naive = NaiveScanner()
        self.planner = BatchPlanner(_SpannedIndex(self.index, rec))
        self.n_scanned = 0
        self.n_pruned = 0

    def run(self, queries: np.ndarray, batch_id: int):
        rec, spec, index = self.rec, self.spec, self.index
        scanned = []
        with rec.span("batch", batch=batch_id):
            with rec.span("search.plan"):
                plan = self.planner.plan(queries, topk=spec.k, nprobe=spec.nprobe)
            partials = [[None] * plan.nprobe for _ in range(plan.n_queries)]
            for job in plan.jobs:
                partition = index.partitions[job.partition_id]
                with rec.span("ivf.tables"):
                    tables = index.distance_tables_for_batch(
                        plan.queries[job.query_rows], job.partition_id
                    )
                with rec.span("scan"):
                    results = scan_partition_batch(
                        self.scanner, tables, partition, spec.k
                    )
                for row, position, result in zip(
                    job.query_rows, job.probe_positions, results
                ):
                    partials[int(row)][int(position)] = result
                scanned.append((tables, partition))
            with rec.span("search.merge"):
                merged = merge_partials(plan, partials)
        self.n_scanned += sum(r.n_scanned for r in merged)
        self.n_pruned += sum(r.n_pruned for r in merged)
        with rec.span("scan.naive_ref", batch=batch_id):
            for tables, partition in scanned:
                scan_partition_batch(self.naive, tables, partition, spec.k)
        return merged

    def prepared_hit_share(self) -> float:
        hits = getattr(self.scanner, "prepared_hits", 0)
        misses = getattr(self.scanner, "prepared_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0


def layer_rounds(spec: Spec, engine: Engine, queries: np.ndarray,
                 rec: SpanRecorder, seconds: float,
                 ) -> tuple[dict[str, float], dict[str, int], int, int]:
    """Passes over the batches until ``seconds``; each batch is answered by
    untraced ``Engine.search``, replayed layer by layer, and answered
    again with observability on, back to back.

    The three are milliseconds apart, and the two shares that compare
    them are medians of per-batch ratios, so a slow spell of the machine
    cancels instead of landing on one side.

    Returns ``(per-layer values, sample counts, attempted, failed)``;
    a replayed batch that does not equal the engine's answer byte for
    byte counts its queries as failed.
    """
    batches = batches_of(spec, queries)
    replay = Replay(spec, engine, rec)
    plain: list[float] = []
    observed: list[float] = []
    stage_totals: dict[str, float] = {}
    attempted = failed = 0
    rounds = 0
    for queries_b in batches:  # untimed: the first pass after set-up runs 1.4x slow
        engine.search(queries_b, k=spec.k, nprobe=spec.nprobe)
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for b, queries_b in enumerate(batches):
            t0 = time.perf_counter()
            answers = engine.search(queries_b, k=spec.k, nprobe=spec.nprobe)
            plain.append(time.perf_counter() - t0)
            merged = replay.run(queries_b, rounds * len(batches) + b)
            attempted += len(merged)
            failed += sum(
                not same_bytes(mine, theirs) for mine, theirs in zip(merged, answers)
            )
            with observability_session() as obs:
                t0 = time.perf_counter()
                engine.search(queries_b, k=spec.k, nprobe=spec.nprobe)
                observed.append(time.perf_counter() - t0)
            for stage, entry in obs.tracer.stage_summary().items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + entry["total_s"]
        rounds += 1

    per_stage = {
        name: rec.per_batch(name, self_time=(name == "search.plan"))
        for name in STAGES
    }
    staged = np.sum([per_stage[name] for name in STAGES], axis=0)
    scan_s = float(np.sum(per_stage["scan"]))
    naive_s = float(np.sum(rec.per_batch("scan.naive_ref")))
    values = {
        "ivf.route_ms": median(per_stage["ivf.route"]) * 1e3,
        "ivf.tables_ms": median(per_stage["ivf.tables"]) * 1e3,
        "search.plan_ms": median(per_stage["search.plan"]) * 1e3,
        "search.merge_ms": median(per_stage["search.merge"]) * 1e3,
        "search.batch_ms.p90": percentile(plain, 90) * 1e3,
        "search.unattributed_share": 1.0 - median(staged / np.asarray(plain)),
        "scan.warm_ms": replay.warm_s * 1e3,
        "scan.ms": median(per_stage["scan"]) * 1e3,
        "scan.codes_per_s": replay.n_scanned / scan_s,
        "scan.naive_codes_per_s": replay.n_scanned / naive_s,
        "scan.pruned_share": replay.n_pruned / replay.n_scanned,
        "scan.prepared_hit_share": replay.prepared_hit_share(),
        "scan.share": scan_s / float(np.sum(staged)),
        "obs.overhead_share": 1.0 - median(np.asarray(plain) / np.asarray(observed)),
        "obs.stage_scan_share": (
            stage_totals.get("scan", 0.0) / sum(stage_totals.values())
            if stage_totals else 0.0
        ),
    }
    samples = {"replayed_batches": len(staged), "plain_batches": len(plain),
               "observed_batches": len(observed)}
    return values, samples, attempted, failed


# -- repro.shard / repro.parallel (probe-sharded only) ----------------------------

#: Passes over the pool for each of the two measurements in ``shard_layers``.
SHARD_PASSES = 5
SHARD_METRICS = (
    "shard.latency_ms.max", "shard.imbalance", "shard.gather_overlap_ms",
    "shard.retries", "shard.partial_batches", "parallel.ipc_overhead_ms",
    "parallel.result_pickle_bytes", "parallel.worker_busy_share",
)


def shard_layers(spec: Spec, engine: Engine, queries: np.ndarray,
                 workdir: Path, rec: SpanRecorder,
                 ) -> tuple[dict[str, float], int, int]:
    """``Engine.search_detailed`` statuses, and the process executor
    against the thread executor on one plan (the IPC + pickle cost)."""
    batches = batches_of(spec, queries)
    config = engine.config
    slowest, imbalance, overlap, busy = [], [], [], []
    retries = partial = attempted = 0
    for p in range(SHARD_PASSES):
        for b, queries_b in enumerate(batches):
            with rec.span("shard.search_detailed", batch=p * len(batches) + b):
                response = engine.search_detailed(
                    queries_b, k=spec.k, nprobe=spec.nprobe
                )
            attempted += len(queries_b)
            latencies = [s.latency_s for s in response.shard_statuses]
            slowest.append(max(latencies))
            imbalance.append(max(latencies) / (sum(latencies) / len(latencies)))
            overlap.append(response.gather_overlap_s)
            retries += sum(max(s.attempts - 1, 0) for s in response.shard_statuses)
            partial += bool(response.partial)
            busy.append(
                sum(w.busy_time_s for w in response.worker_stats)
                / (response.wall_time_s * config.n_shards * config.n_workers)
            )

    flat = workdir / "flat.npz"
    save_index(engine.index, flat)
    scanner = config.scanner_factory(engine.index.pq)()
    planner = BatchPlanner(engine.index)
    threads = BatchExecutor(engine.index, scanner, n_workers=1)
    ipc, pickled = [], []
    with ProcessBatchExecutor(flat, scanner, n_workers=1,
                              index=engine.index) as processes:
        for p in range(SHARD_PASSES):
            for b, queries_b in enumerate(batches):
                plan = planner.plan(queries_b, topk=spec.k, nprobe=spec.nprobe)
                batch_id = p * len(batches) + b
                with rec.span("parallel.process_scan_plan", batch=batch_id) as far:
                    partials, _ = processes.scan_plan(plan)
                with rec.span("parallel.thread_scan_plan", batch=batch_id) as near:
                    threads.scan_plan(plan)
                ipc.append(_took(rec, far) - _took(rec, near))
                pickled.append(len(pickle.dumps(partials)))
    values = {
        "shard.latency_ms.max": median(slowest) * 1e3,
        "shard.imbalance": median(imbalance),
        "shard.gather_overlap_ms": median(overlap) * 1e3,
        "shard.retries": float(retries),
        "shard.partial_batches": float(partial),
        "parallel.ipc_overhead_ms": median(ipc) * 1e3,
        "parallel.result_pickle_bytes": median(pickled),
        "parallel.worker_busy_share": median(busy),
    }
    return values, attempted, partial * spec.batch


# -- repro.simd -------------------------------------------------------------------


def simulate(spec: Spec, engine: Engine, queries: np.ndarray,
             platform: str) -> dict[str, float]:
    """The workload's scanner as a kernel on the simulated CPU: each of
    the first queries scans the leading codes of its routed partition."""
    index, config = engine.index, engine.config
    fast = (
        PQFastScanner(index.pq, keep=config.keep)
        if config.scanner == "fastpq" else None
    )
    cycles = instructions = uops = l1_loads = vectors = pruned = 0.0
    t0 = time.perf_counter()
    for query in queries[: spec.sim_queries]:
        pid = index.route(query, nprobe=1)[0]
        partition = index.partitions[pid]
        codes = np.asarray(partition.codes[: spec.sim_codes])
        ids = np.asarray(partition.ids[: spec.sim_codes])
        tables = index.distance_tables_for(query, pid)
        cpu = get_platform(platform)
        if fast is not None:
            grouped = fast.prepare(Partition(codes, ids, pid))
            run = fastscan_kernel(
                cpu, fast.assignment.remap_tables(tables), grouped,
                topk=spec.k, keep=config.keep,
            )
        elif config.scanner == "quickadc":
            run = quickadc_kernel(
                cpu, tables, codes, ids, topk=spec.k, keep=config.keep
            )
        else:
            run = naive_kernel(cpu, tables, codes)
        cycles += run.counters.cycles
        instructions += run.counters.instructions
        uops += run.counters.uops
        l1_loads += run.counters.l1_loads
        vectors += run.n_vectors
        pruned += run.n_pruned
    host_s = time.perf_counter() - t0
    return {
        "cycles_per_code": cycles / vectors,
        "instructions_per_code": instructions / vectors,
        "uops_per_code": uops / vectors,
        "l1_loads_per_code": l1_loads / vectors,
        "pruned_share": pruned / vectors,
        "host_codes_per_s": vectors / host_s,
    }


def simd_layers(spec: Spec, engine: Engine, queries: np.ndarray) -> dict[str, float]:
    haswell = simulate(spec, engine, queries, "haswell")
    avx512 = simulate(spec, engine, queries, "skylake-avx512")
    return {
        "simd.instructions_per_code": haswell["instructions_per_code"],
        "simd.uops_per_code": haswell["uops_per_code"],
        "simd.l1_loads_per_code": haswell["l1_loads_per_code"],
        "simd.pruned_share": haswell["pruned_share"],
        "simd.avx512_cycles_per_code": avx512["cycles_per_code"],
        "simd.host_codes_per_s": haswell["host_codes_per_s"],
    }
