"""Native kernels against numpy, engine to engine: three relative floors.

``repro.native`` runs naive's scan-and-select, from Step 2's halves
with no table made, and Step 2's query half in C, byte-identical to the
numpy paths that ``REPRO_NATIVE=0`` selects. Each row times one thread
``Engine`` (``scanner="naive"``) with the kernels and without them, in
alternating pairs, and asserts byte-identity and a floor on the median
of the per-pair ``qps`` ratios:

* 60 000 x 128-d rows, 64 partitions, nprobe 8, k = 100, batches of 64:
  mid-sized partitions (~940 rows), eight jobs a query;
* 65 536 x 128-d rows in one partition, k = 100, batches of 8: the
  scan is the whole batch;
* 12 288 x 128-d rows, 128 partitions, nprobe 8, k = 10, batches of
  128: ``probe-sharded``'s shape, small partitions (~96 rows) whose
  tables numpy makes and the kernels never do.

Each floor is 80 % of the median ratio measured on a 2-core x86 host,
rounded down to a twentieth. Over fifteen alternating pairs (three runs
of this file) 64/8 read 1.30-1.79x per pair, median 1.63x (floor 1.30x),
and the one partition 2.36-4.63x, median 2.90x (floor 2.30x), when
their kernels scanned combined tables (with the tables left unmade and
the query half in C: 1.81-2.11x, median 1.89x, and 1.95-3.84x, median
3.19x); probe-sharded's shape read 2.90-3.09x, median 3.01x (floor
2.40x).

Two more rows are the evidence for naive as ``EngineConfig``'s default
scanner: a default-config thread engine against the same index with
``scanner="fastpq"``, both with the kernels, byte-identical answers
first. Over fifteen alternating pairs on the same host the default read
11.16-16.16x fastpq at 64/8 (median 13.93x, floor 11.10x) and
3.83-4.98x on one 16 384-row partition (median 4.05x, floor 3.20x).
"""

import os
import statistics
import time
from dataclasses import replace

import pytest

from repro import Engine, EngineConfig, VectorDataset, native

N_BASE, PAIRS = 65_536, 5
SHAPES = {
    # name: (rows, n_partitions, nprobe, k, batch, n_queries, floor)
    "64/8, batches of 64": (60_000, 64, 8, 100, 64, 256, 1.30),
    "one 65 536-row partition, batches of 8": (N_BASE, 1, 1, 100, 8, 64, 2.30),
    "probe-sharded's 128/8, batches of 128": (12_288, 128, 8, 10, 128, 512, 2.40),
}


@pytest.fixture(scope="module")
def dataset():
    return VectorDataset.synthetic(4000, N_BASE, 256, dim=128, seed=3)


@pytest.fixture(scope="module", autouse=True)
def kernels():
    if os.environ.get(native.ENV_VAR) == "0":
        pytest.skip(f"{native.ENV_VAR}=0: nothing to compare the numpy paths with")


def fingerprint(results):
    return [(r.ids.tobytes(), r.distances.tobytes(), r.n_scanned) for r in results]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_native_beats_numpy_by_its_floor(dataset, shape, monkeypatch):
    n_rows, n_partitions, nprobe, topk, batch, n_queries, floor = SHAPES[shape]
    config = EngineConfig(
        n_partitions=n_partitions, max_iter=4, coarse_max_iter=4, seed=0,
        scanner="naive", executor="thread",
    )
    queries = dataset.queries[:n_queries]
    batches = [queries[i : i + batch] for i in range(0, n_queries, batch)]
    with Engine.build(dataset.base[:n_rows], config) as engine:
        assert native.available(), native.reason()

        def qps(kernels: bool):
            if kernels:
                monkeypatch.delenv(native.ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(native.ENV_VAR, "0")
            answers = []
            start = time.perf_counter()
            for block in batches:
                answers.extend(engine.search(block, k=topk, nprobe=nprobe))
            return n_queries / (time.perf_counter() - start), answers

        # Untimed pilot: the identity gate, and warm caches on both sides.
        assert fingerprint(qps(True)[1]) == fingerprint(qps(False)[1]), (
            f"{shape}: the native kernels diverged from numpy"
        )
        ratios = []
        for pair in range(PAIRS):
            order = (True, False) if pair % 2 else (False, True)
            measured = {kernels: qps(kernels)[0] for kernels in order}
            ratios.append(measured[True] / measured[False])
    speed = statistics.median(ratios)
    assert speed >= floor, (
        f"{shape}: native at {speed:.2f}x numpy (pairs "
        f"{', '.join(f'{r:.2f}' for r in ratios)}), floor {floor:.2f}x"
    )


#: The evidence for naive as ``EngineConfig``'s default scanner: a
#: default-config thread engine against the same index with
#: ``scanner="fastpq"``, both with the native kernels.
#: name: (rows, n_partitions, nprobe, k, batch, n_queries, floor)
DEFAULT_SHAPES = {
    "64/8, batches of 64": (60_000, 64, 8, 100, 64, 256, 11.10),
    "one 16 384-row partition, batches of 8": (16_384, 1, 1, 100, 8, 64, 3.20),
}


@pytest.mark.parametrize("shape", list(DEFAULT_SHAPES))
def test_default_scanner_beats_fastpq_by_its_floor(dataset, shape):
    n_rows, n_partitions, nprobe, topk, batch, n_queries, floor = DEFAULT_SHAPES[shape]
    config = EngineConfig(
        n_partitions=n_partitions, max_iter=4, coarse_max_iter=4, seed=0,
        executor="thread",
    )
    assert config.scanner == "naive"
    queries = dataset.queries[:n_queries]
    batches = [queries[i : i + batch] for i in range(0, n_queries, batch)]
    with Engine.build(dataset.base[:n_rows], config) as default, Engine(
        default.index, replace(config, scanner="fastpq")
    ) as fastpq:

        def qps(engine: Engine):
            answers = []
            start = time.perf_counter()
            for block in batches:
                answers.extend(engine.search(block, k=topk, nprobe=nprobe))
            return n_queries / (time.perf_counter() - start), answers

        # Untimed pilot: the identity gate (both scanners are exact),
        # and fastpq's prepared layouts built.
        same = [(r.ids.tobytes(), r.distances.tobytes()) for r in qps(default)[1]]
        assert same == [
            (r.ids.tobytes(), r.distances.tobytes()) for r in qps(fastpq)[1]
        ], f"{shape}: naive and fastpq diverged"
        ratios = []
        for pair in range(PAIRS):
            order = (default, fastpq) if pair % 2 else (fastpq, default)
            measured = {id(engine): qps(engine)[0] for engine in order}
            ratios.append(measured[id(default)] / measured[id(fastpq)])
    speed = statistics.median(ratios)
    assert speed >= floor, (
        f"{shape}: the default (naive) at {speed:.2f}x fastpq (pairs "
        f"{', '.join(f'{r:.2f}' for r in ratios)}), floor {floor:.2f}x"
    )
