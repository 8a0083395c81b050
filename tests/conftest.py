"""Shared fixtures: one small synthetic workload reused across the suite.

Everything is deterministic (fixed seeds) and sized to keep the whole
suite fast while staying large enough that grouping, pruning and the
simulator kernels exercise their real code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import IVFADCIndex, ProductQuantizer, VectorDataset


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
