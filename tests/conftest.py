"""Shared fixtures: one small synthetic workload reused across the suite.

Everything is deterministic (fixed seeds) and sized to keep the whole
suite fast while staying large enough that grouping, pruning and the
simulator kernels exercise their real code paths.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import Engine, EngineConfig, IVFADCIndex, ProductQuantizer, VectorDataset
from repro import native
from repro.core import QuantizationOnlyScanner
from repro.parallel import ScannerSpec
from repro.shard import ShardedIndex


@pytest.fixture(scope="session", autouse=True)
def native_kernels() -> None:
    """Compile the native kernels once, so that every test runs them
    (under ``REPRO_NATIVE=0`` every test runs the numpy paths instead)."""
    native.build()


def _fail_if_left(before: set[int], who: str) -> None:
    """Fail if a worker process started since ``before`` still runs.

    The stragglers are stopped first, so one leak fails one test and
    not every test after it.
    """
    left = [p for p in multiprocessing.active_children() if p.pid not in before]
    for process in left:
        process.terminate()
        process.join(5.0)
    if left:
        names = ", ".join(f"{p.name} (pid {p.pid})" for p in left)
        pytest.fail(f"{who} left worker processes running: {names}")


@pytest.fixture(scope="module")
def _no_process_left_by_module():
    """The module-wide half of ``no_process_left``: engines a module
    shares (module- or class-scoped fixtures) are closed by its end."""
    before = {p.pid for p in multiprocessing.active_children()}
    yield
    _fail_if_left(before, "this module's shared fixtures")


@pytest.fixture
def no_process_left(_no_process_left_by_module):
    """Fail a test that leaves a worker process running once its own
    engines and executors are closed (its other fixtures tear down
    first). A batch abandoned at its deadline and a worker started again
    after a fault both end with their executor. The files of CI's leak
    step use it: ``pytestmark = pytest.mark.usefixtures(...)``."""
    before = {p.pid for p in multiprocessing.active_children()}
    yield
    _fail_if_left(before, "the test")


@pytest.fixture(scope="session")
def dataset() -> VectorDataset:
    """Small SIFT-like dataset: 3000 learn / 12000 base / 8 queries."""
    return VectorDataset.synthetic(3000, 12000, 8, seed=42)


@pytest.fixture(scope="session")
def pq(dataset) -> ProductQuantizer:
    """A fitted PQ 8×8 quantizer (few k-means iterations for speed)."""
    return ProductQuantizer(m=8, bits=8, max_iter=4, seed=1).fit(dataset.learn)


@pytest.fixture(scope="session")
def index(dataset, pq) -> IVFADCIndex:
    """A 2-partition IVFADC index over the base set."""
    return IVFADCIndex(pq, n_partitions=2, seed=2).add(dataset.base)


@pytest.fixture(scope="session")
def pq4(dataset) -> ProductQuantizer:
    """A fitted PQ 16x4 quantizer — the 64-bit nibble-code budget."""
    return ProductQuantizer(m=16, bits=4, max_iter=4, seed=5).fit(dataset.learn)


@pytest.fixture(scope="session")
def index4bit(dataset, pq4) -> IVFADCIndex:
    return IVFADCIndex(pq4, n_partitions=4, seed=3).add(dataset.base)


@pytest.fixture(scope="session")
def query(dataset) -> np.ndarray:
    return dataset.queries[0]


@pytest.fixture(scope="session")
def routed(index, query):
    """(partition, tables) pair for the session query."""
    pid = index.route(query)[0]
    tables = index.distance_tables_for(query, pid)
    return index.partitions[pid], tables


@pytest.fixture(scope="session")
def partition(routed):
    return routed[0]


@pytest.fixture(scope="session")
def tables(routed):
    return routed[1]


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def build_scanner(kind, pq, keep=0.005):
    """``kind``'s scanner, built from its spec; ``"qonly"``, Figure 17's
    quantization-only scanner, is no engine kind and is built directly."""
    if kind == "qonly":
        return QuantizationOnlyScanner(pq, keep=keep)
    return ScannerSpec(kind, keep=keep).build(pq)


def open_engine(
    index, scanner="naive", *, n_shards=1, vectors=None, **config
) -> Engine:
    """An :class:`Engine` over an already built ``index`` (the thread
    executor unless ``config`` names another); the caller closes it."""
    config = EngineConfig(
        m=index.pq.m, bits=index.pq.bits, n_partitions=index.n_partitions,
        encode_residuals=index.encode_residuals, scanner=scanner,
        n_shards=n_shards, **{"executor": "thread", "keep": 0.01, **config},
    )
    sharded = ShardedIndex.from_index(index, n_shards=n_shards) if n_shards > 1 else None
    return Engine(index, config, sharded=sharded, vectors=vectors)


@pytest.fixture
def engine_over():
    """``open_engine``, each engine closed when the test ends."""
    engines = []

    def make(index, scanner="naive", **config) -> Engine:
        engines.append(open_engine(index, scanner, **config))
        return engines[-1]

    yield make
    for engine in engines:
        engine.close()
