"""Every engine answers like the brute-force oracle (``tests/oracle.py``).

The oracle shares no code with the planner, the scanners, the merger or
the overlay fold, so a defect in any of them shows here as a wrong id or
a wrong distance bit. The exact kinds must match it byte for byte on
every executor, on a read-only engine and on a mutable one before and
after ``compact()``; quickadc, approximate at the margin, must match its
one-shard thread engine byte for byte and report the oracle's distance
for every id it returns. The distance oracle ties the reported
distances to their definition, ``||q - c_p - decode(code)||^2``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import IVFADCIndex, ProductQuantizer

from .conftest import open_engine
from .oracle import holds_oracle_distances, oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")

NPROBE = 3
KS = (1, 10, 100)
#: (scanner kind, PQ shape): the exact kinds at 8x8, and naive at 16x4.
EXACT = [
    ("naive", "8x8"), ("fastpq", "8x8"), ("naive", "16x4"),
]
#: (executor, n_shards).
EXECUTORS = [("thread", 1), ("thread", 2), ("process", 2)]
EXECUTOR_IDS = ["thread-1", "thread-2", "process-2"]


def test_the_oracle_imports_nothing_of_the_pipeline():
    """numpy and nothing else: no planner, scanner, merger or overlay."""
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert imported == {"numpy"}


@pytest.fixture(scope="module")
def indexes(dataset):
    """One 8-partition index per code shape, over the first 6 000 rows."""
    built = {}
    for shape, (m, bits) in {"8x8": (8, 8), "16x4": (16, 4)}.items():
        pq = ProductQuantizer(m=m, bits=bits, max_iter=3, seed=1).fit(dataset.learn)
        built[shape] = IVFADCIndex(pq, n_partitions=8, seed=3).add(dataset.base[:6000])
    return built


@pytest.fixture(scope="module")
def queries(dataset):
    jitter = np.random.default_rng(8).normal(scale=4.0, size=(16, 128))
    return np.vstack([dataset.queries, dataset.base[:16] + jitter])


def _write(engine, dataset):
    """300 deletes, 5 new rows, 2 upserts of base ids."""
    rng = np.random.default_rng(17)
    engine.delete(rng.choice(6000, 300, replace=False))
    engine.add(dataset.base[7000:7005], np.arange(10**6, 10**6 + 5))
    engine.add(dataset.base[7005:7007], np.array([11, 12]))


def _view(engine):
    """The delta view a search of ``engine`` reads now, if any."""
    return engine._delta.view(engine.index) if engine.config.mutable else None


def _assert_like_the_oracle(engine, queries):
    for k in KS:
        expected = oracle_search(engine.index, queries, k, NPROBE, _view(engine))
        assert same_as_oracle(engine.search(queries, k=k, nprobe=NPROBE), expected), k


@pytest.mark.parametrize("executor, n_shards", EXECUTORS, ids=EXECUTOR_IDS)
@pytest.mark.parametrize("kind, shape", EXACT, ids=[f"{k}-{s}" for k, s in EXACT])
def test_every_exact_kind_answers_like_the_oracle(
    indexes, dataset, queries, kind, shape, executor, n_shards
):
    index = indexes[shape]
    with open_engine(index, kind, n_shards=n_shards, executor=executor) as engine:
        _assert_like_the_oracle(engine, queries)
    with open_engine(
        index.with_partitions(index.partitions), kind,
        n_shards=n_shards, executor=executor, mutable=True,
    ) as engine:
        _write(engine, dataset)
        _assert_like_the_oracle(engine, queries)
        engine.compact()
        _assert_like_the_oracle(engine, queries)


def _assert_like(engine, reference, queries):
    """``reference``'s answers, byte for byte, at the oracle's distances."""
    for k in KS:
        got = engine.search(queries, k=k, nprobe=NPROBE)
        expected = reference.search(queries, k=k, nprobe=NPROBE)
        assert same_as_oracle(got, [(r.ids, r.distances) for r in expected]), k
        assert holds_oracle_distances(got, engine.index, queries, NPROBE, _view(engine))


@pytest.mark.parametrize("executor, n_shards", EXECUTORS, ids=EXECUTOR_IDS)
def test_quickadc_answers_like_its_one_shard_engine_at_oracle_distances(
    indexes, dataset, queries, executor, n_shards
):
    index = indexes["16x4"]
    for mutable in (False, True):
        base = index.with_partitions(index.partitions)
        with open_engine(base, "quickadc", mutable=mutable) as reference, open_engine(
            base, "quickadc", n_shards=n_shards, executor=executor, mutable=mutable
        ) as engine:
            if mutable:
                _write(reference, dataset)
                _write(engine, dataset)
            _assert_like(engine, reference, queries)
            if mutable:
                reference.compact()
                engine.compact()
                _assert_like(engine, reference, queries)


@pytest.mark.parametrize("encode_residuals", [True, False])
@pytest.mark.parametrize("shape", ["8x8", "16x4"])
def test_reported_distances_are_their_definition(
    indexes, dataset, queries, shape, encode_residuals
):
    """Every distance ``Engine.search`` reports is
    ``||q - c_p - pq.decode(code)||^2`` for the row's cell ``p`` (or
    ``||q - pq.decode(code)||^2`` without residual encoding): the two
    halves ``tables_from_halves`` adds up are that norm, expanded."""
    pq = indexes[shape].pq
    index = IVFADCIndex(
        pq, n_partitions=8, encode_residuals=encode_residuals, seed=3
    ).add(dataset.base[:6000])
    where = {
        int(row_id): (pid, code)
        for pid, part in enumerate(index.partitions)
        for row_id, code in zip(part.ids, part.codes)
    }
    with open_engine(index) as engine:
        results = engine.search(queries, k=10, nprobe=NPROBE)
    for query, result in zip(queries, results):
        assert len(result.ids) == 10
        pids, codes = zip(*(where[int(i)] for i in result.ids))
        decoded = pq.decode(np.array(codes))
        if encode_residuals:
            decoded = decoded + index.coarse.codebook[list(pids)]
        exact = np.sum((query - decoded) ** 2, axis=1)
        np.testing.assert_allclose(result.distances, exact, rtol=1e-12)
