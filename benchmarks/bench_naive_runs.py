"""Runs of naive jobs against one job at a time, at the shapes runs can lose
and at a process worker's.

The executors cut a plan's jobs into runs (``repro.search._runs``): one
table combine, one code gather and one top-k per run of small
partitions. That wins where a job's fixed cost outweighs its scan (the
served shape, ``bench_throughput_workers.py``); this file guards the
shapes where it could cost instead, and holds the gain at the shape the
bound is sized for. Each row times a thread ``Engine`` with its runs
against the same engine with every job a run of its own
(``_RUN_CELLS = 1``, the per-job loop), interleaved, best of five per
batch, and asserts the runs keep at least their row's floor:

* 60 000 rows, 64 partitions (~940 rows), nprobe 4, batches of 1 and
  of 8: runs of one-query jobs over mid-sized partitions (0.95x);
* 60 000 rows, 8 partitions (~7 500 rows), nprobe 1, batches of 64:
  jobs larger than a run, gathered dense as before (0.95x);
* 12 288 rows, 128 partitions (~96 rows), nprobe 8, batches of 128: a
  ``probe-sharded`` worker's jobs, ~8 cells each. Runs read
  1.16-1.38x the per-job loop over twelve runs on a 2-core x86 host
  (lower quartile 1.27); the floor, 1.15x, is that margin less a tenth,
  rounded down to a twentieth.

Byte-identity between the two is a hard assertion.

Both sides run on the numpy paths (``REPRO_NATIVE=0``): with the native
kernels a naive engine scans a whole job list in one call that makes no
table, so ``_RUN_CELLS`` cuts nothing there and the two sides would be
one path. The runs this file holds to their floors are numpy's, and the
scanners other than naive's; ``bench_native.py`` holds the native scan
to its floor against them at the ``probe-sharded`` shape.
"""

import time

import pytest

import repro.search as search_module
from repro import Engine, EngineConfig, VectorDataset, native

N_BASE, REPEATS = 60_000, 5
RUN_CELLS = search_module._RUN_CELLS
SHAPES = {
    # name: (rows, n_partitions, nprobe, batch, floor)
    "64 cells, one query": (N_BASE, 64, 4, 1, 0.95),
    "64 cells, 8 queries": (N_BASE, 64, 4, 8, 0.95),
    "8 cells, 64 queries": (N_BASE, 8, 1, 64, 0.95),
    "128 cells, 128 queries": (12_288, 128, 8, 128, 1.15),
}


@pytest.fixture(scope="module")
def dataset():
    return VectorDataset.synthetic(4000, N_BASE, 256, dim=64, seed=3)


@pytest.fixture(autouse=True)
def numpy_paths(monkeypatch):
    monkeypatch.setenv(native.ENV_VAR, "0")


@pytest.fixture(scope="module")
def engines(dataset):
    built = {}
    for n_rows, n_partitions in sorted({shape[:2] for shape in SHAPES.values()}):
        built[n_rows, n_partitions] = Engine.build(
            dataset.base[:n_rows],
            EngineConfig(
                n_partitions=n_partitions, max_iter=4, coarse_max_iter=4,
                seed=0, scanner="naive", executor="thread",
            ),
        )
    yield built
    for engine in built.values():
        engine.close()


def fingerprint(results):
    return [
        (r.ids.tobytes(), r.distances.tobytes(), r.n_scanned, r.n_pruned, r.probed)
        for r in results
    ]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_runs_keep_the_per_job_speed(dataset, engines, shape, monkeypatch):
    n_rows, n_partitions, nprobe, batch, floor = SHAPES[shape]
    engine = engines[n_rows, n_partitions]
    queries = dataset.queries[: max(32, 8 * batch)]
    batches = [queries[i : i + batch] for i in range(0, len(queries), batch)]

    def search(per_job: bool, block):
        monkeypatch.setattr(search_module, "_RUN_CELLS", 1 if per_job else RUN_CELLS)
        start = time.perf_counter()
        results = engine.search(block, k=10, nprobe=nprobe)
        return time.perf_counter() - start, results

    runs_s = per_job_s = 0.0
    for block in batches:
        # Untimed pilot: the identity gate.
        assert fingerprint(search(False, block)[1]) == fingerprint(
            search(True, block)[1]
        ), f"{shape}: runs diverged from the per-job loop"
        best = {False: float("inf"), True: float("inf")}
        for _ in range(REPEATS):
            for per_job in (False, True):
                best[per_job] = min(best[per_job], search(per_job, block)[0])
        runs_s += best[False]
        per_job_s += best[True]

    speed = per_job_s / runs_s
    assert speed >= floor, (
        f"{shape}: runs at {speed:.2f}x the per-job loop, floor {floor:.2f}x"
    )

