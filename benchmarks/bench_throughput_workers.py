"""Batch execution vs the sequential per-query loop: four relative floors.

Section 5.8's software half: the partition-major engine amortises routing,
table builds and code gathers over a batch, so it must beat the per-query
loop before any worker parallelism. The floors are ratios against that
loop on the same host, the only throughput gates here that do not depend
on the machine (absolute qps is perfbench's ``qps``). Every configuration
runs at one worker, where amortisation is the whole gain: the thread
engine scans inline, and what process workers add depends on the cores
the host has free. Every batched row runs through ``Engine``; the loop is
``ANNSearcher``'s. Byte-identity with the loop is a hard assertion.

The floors sit about a tenth under what a host with one effective core
measures (thread 1.5x, process 1.35x, two process shards 1.15x): the
process pool pays its IPC out of the same amortisation.

The served row is the other end: 8-query batches over 64 partitions of
~190 rows (``serve-mixed``'s layout), where a partition job is one or
two queries and its fixed cost outweighs its scan. The thread engine
packs those jobs into runs (one table combine, one code gather, one
top-k each) and must still beat the loop by its floor (measured 2.1x;
the per-job loop read 1.1x).
"""

import time
from contextlib import contextmanager

import pytest

from repro import ANNSearcher, Engine, EngineConfig, NaiveScanner, VectorDataset
from repro.bench import build_workload
from repro.shard import ShardedIndex

N_QUERIES, TOPK, NPROBE, REPEATS = 64, 100, 4, 3
#: The served row: batch size, neighbours, floor.
SERVED_BATCH, SERVED_TOPK, SERVED_FLOOR = 8, 10, 1.9


@pytest.fixture(scope="module")
def workload():
    return build_workload("sift100m", scale=4000, n_queries=N_QUERIES, seed=11)


@contextmanager
def search_through(kind, index):
    """Yields ``search(queries)`` for one execution path, closed on exit."""
    if kind == "sequential":
        with ANNSearcher(index, scanner=NaiveScanner()) as searcher:
            yield lambda queries: searcher.search(queries, topk=TOPK, nprobe=NPROBE)
        return
    n_shards = 2 if kind == "sharded-process" else 1
    config = EngineConfig(
        n_partitions=index.n_partitions, n_shards=n_shards, scanner="naive",
        executor="thread" if kind == "batch" else "process",
    )
    sharded = ShardedIndex.from_index(index, n_shards=2) if n_shards > 1 else None
    with Engine(index, config, sharded=sharded) as engine:
        yield lambda queries: engine.search(queries, k=TOPK, nprobe=NPROBE)


def fingerprint(results):
    return [
        (r.ids.tobytes(), r.distances.tobytes(), r.n_scanned, r.n_pruned, r.probed)
        for r in results
    ]


def timed(search, queries) -> float:
    start = time.perf_counter()
    search(queries)
    return time.perf_counter() - start


@pytest.mark.parametrize(
    "kind, floor", [("batch", 1.3), ("process", 1.15), ("sharded-process", 1.0)]
)
def test_batch_beats_sequential_loop(workload, kind, floor):
    index, queries = workload.index, workload.queries[:N_QUERIES]
    with search_through("sequential", index) as sequential, \
            search_through(kind, index) as batched:
        # Untimed pilot: pools spawned, caches warm, and the identity gate.
        assert fingerprint(batched(queries)) == fingerprint(sequential(queries)), (
            f"{kind} results diverged from the sequential loop"
        )
        # Best of interleaved repeats, so drift hits both sides alike.
        seq_s = batch_s = float("inf")
        for _ in range(REPEATS):
            seq_s = min(seq_s, timed(sequential, queries))
            batch_s = min(batch_s, timed(batched, queries))

    speedup = seq_s / batch_s
    assert speedup >= floor, (
        f"{kind}: {speedup:.2f}x the sequential loop, floor {floor:.2f}x"
    )


@pytest.fixture(scope="module")
def served():
    """``serve-mixed``'s layout: 12 288 rows in 64 partitions."""
    dataset = VectorDataset.synthetic(4000, 12288, N_QUERIES, dim=64, seed=3)
    config = EngineConfig(
        n_partitions=64, max_iter=4, coarse_max_iter=4, seed=0,
        scanner="naive", executor="thread",
    )
    with Engine.build(dataset.base, config) as engine:
        yield engine, dataset.queries


def test_served_batches_beat_sequential_loop(served):
    engine, queries = served
    batches = [
        queries[i : i + SERVED_BATCH] for i in range(0, len(queries), SERVED_BATCH)
    ]
    with ANNSearcher(engine.index, scanner=NaiveScanner()) as searcher:
        def sequential(block):
            return searcher.search(block, topk=SERVED_TOPK, nprobe=NPROBE)

        def batched(block):
            return engine.search(block, k=SERVED_TOPK, nprobe=NPROBE)

        seq_s = batch_s = 0.0
        for block in batches:
            assert fingerprint(batched(block)) == fingerprint(sequential(block)), (
                "served batches diverged from the sequential loop"
            )
            seq_s += min(timed(sequential, block) for _ in range(REPEATS))
            batch_s += min(timed(batched, block) for _ in range(REPEATS))

    speedup = seq_s / batch_s
    assert speedup >= SERVED_FLOOR, (
        f"served: {speedup:.2f}x the sequential loop, floor {SERVED_FLOOR:.2f}x"
    )
