"""A run of jobs scans like its jobs one at a time, byte for byte.

Every executor, the process worker and the overlay fold cut their jobs
into runs (``repro.search._runs``): one table combine per run and one
``scanner.scan_run``; for naive, one code gather, tombstoned rows
masked and one top-k, for every other kind the per-job default. The
reference here is the per-job loop: one table combine per job and each
job's cells selected row by row with :func:`~repro.scan.select_topk`,
tombstoned rows left out, as wide as ``min(topk, partition size)``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.search as search_module
from repro import IVFADCIndex, NaiveScanner
from repro.delta import DeltaView
from repro.ivf.partition import Partition
from repro.obs import get_observability
from repro.parallel import ScannerSpec, worker
from repro.pq.adc import adc_distances_batch
from repro.scan.base import NO_IDS, PAD_DISTANCE, PAD_ID, ScanBlock
from repro.scan.topk import select_topk
from repro.search import (
    BatchExecutor,
    BatchPlanner,
    PackedPartials,
    StreamingMerger,
    _fold_overlay,
    _with_tombstones,
)

pytestmark = pytest.mark.usefixtures("no_process_left")

N_PARTITIONS = 12
KINDS = ("naive", "override", "fastpq")


class _Override(NaiveScanner):
    """Naive's scan under a ``scan_batch`` of its own: the per-job loop."""

    def scan_batch(self, tables, partition, topk=1, tombstones=NO_IDS):
        return super().scan_batch(tables, partition, topk, tombstones)


class _RunRecorder(NaiveScanner):
    """Naive's run under a ``scan_run`` of its own that counts its calls."""

    def __init__(self):
        self.calls = 0

    def scan_run(self, tables, partitions, sizes, topk, tombstones):
        self.calls += 1
        return super().scan_run(tables, partitions, sizes, topk, tombstones)


@pytest.fixture(scope="module")
def base(dataset, pq):
    return IVFADCIndex(pq, n_partitions=N_PARTITIONS, seed=2).add(dataset.base[:2000])


@st.composite
def cases(draw):
    return {
        "sizes": draw(st.lists(st.integers(0, 300), min_size=N_PARTITIONS, max_size=N_PARTITIONS)),
        # 1 and 3 distinct values per component: duplicated codes, exact
        # ties at the k-th distance.
        "n_values": draw(st.sampled_from([1, 3, 256])),
        "dead": draw(st.lists(
            st.sampled_from(["none", "some", "all"]),
            min_size=N_PARTITIONS, max_size=N_PARTITIONS,
        )),
        "segments": draw(st.lists(st.booleans(), min_size=N_PARTITIONS, max_size=N_PARTITIONS)),
        "n_queries": draw(st.integers(1, 10)),
        "nprobe": draw(st.integers(1, 4)),
        "topk": draw(st.integers(1, 40)),
        "run_cells": draw(st.sampled_from([1, 2, 5, 16, 64])),
        "run_entries": draw(st.sampled_from([1, 100, 1000, 1 << 14, 1 << 15])),
        "kind": draw(st.sampled_from(KINDS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _partitions(rng, sizes, n_values, m, first_id):
    ids = rng.permutation(sum(sizes)).astype(np.int64) + first_id
    cuts = np.cumsum(sizes)[:-1]
    return [
        Partition(rng.integers(0, n_values, size=(len(part), m), dtype=np.uint8), part)
        for part in np.split(ids, cuts)
    ]


def _per_job(tables, partition, topk, tombstones):
    """One job's cells, the definition: every row scored, tombstoned rows
    left out, each cell selected alone."""
    distances = adc_distances_batch(tables, partition.codes)
    live = ~np.isin(partition.ids, tombstones)
    shape = (len(tables), min(topk, len(partition)))
    ids = np.full(shape, PAD_ID, dtype=np.int64)
    dists = np.full(shape, PAD_DISTANCE)
    counts = np.zeros((3, len(tables)), dtype=np.int64)
    for i, row in enumerate(distances):
        top_ids, top_dists = select_topk(row[live], partition.ids[live], topk)
        ids[i, : len(top_ids)], dists[i, : len(top_ids)] = top_ids, top_dists
        counts[:, i] = (len(top_ids), len(partition), 0)
    return ScanBlock(ids, dists, counts)


def _assert_same_blocks(got: ScanBlock, want: ScanBlock):
    assert got.ids.shape == want.ids.shape
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()


def _scanner(kind, pq):
    if kind == "override":
        return _Override()
    return ScannerSpec(kind, keep=0.05).build(pq)


@given(case=cases())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_a_run_is_its_jobs_one_at_a_time(base, dataset, case):
    rng = np.random.default_rng(case["seed"])
    m = base.pq.m
    partitions = _partitions(rng, case["sizes"], case["n_values"], m, 0)
    index = base.with_partitions(partitions)
    hits = {}
    for pid, (partition, dead) in enumerate(zip(partitions, case["dead"])):
        if dead == "all" or (dead == "some" and len(partition)):
            chosen = partition.ids if dead == "all" else rng.choice(
                partition.ids, size=int(rng.integers(1, len(partition) + 1)), replace=False
            )
            hits[pid] = np.sort(chosen)
    segments = {
        pid: segment
        for pid, (segment, wanted) in enumerate(zip(
            _partitions(rng, rng.integers(0, 40, N_PARTITIONS).tolist(),
                        case["n_values"], m, 10**6),
            case["segments"],
        ))
        if wanted
    }
    queries = dataset.base[rng.choice(2000, size=case["n_queries"])]
    topk = case["topk"]
    plan = BatchPlanner(index).plan(queries, topk=topk, nprobe=case["nprobe"])
    plan = _with_tombstones(plan, hits)
    scanner = _scanner(case["kind"], base.pq)
    query_half = index.query_half(plan.queries)

    def job_block(job, partition, tombstones, naive):
        tables = index.tables_from_halves(
            plan.queries, query_half, job.query_rows, job.partition_id
        )
        if naive:
            want = _per_job(tables, partition, topk, tombstones)
            # The reference is what naive's own per-job scan returns.
            _assert_same_blocks(
                NaiveScanner().scan_batch(tables, partition, topk, tombstones), want
            )
            return want
        return ScanBlock.pack(scanner.scan_batch(tables, partition, topk, tombstones))

    expected = {
        job.partition_id: job_block(
            job,
            index.partitions[job.partition_id],
            job.tombstones,
            case["kind"] in ("naive", "override"),
        )
        for job in plan.jobs
    }
    with mock.patch.multiple(
        search_module, _RUN_CELLS=case["run_cells"], _RUN_ENTRIES=case["run_entries"]
    ):
        # The executors' scan, accounted as the per-job loop would.
        got, (stats,) = BatchExecutor(index, scanner).scan_plan(plan)
        want = PackedPartials.of_jobs(
            plan, plan.jobs, [expected[job.partition_id] for job in plan.jobs]
        )
        assert (stats.n_jobs, stats.n_scans) == (len(plan.jobs), len(want.rows))
        assert stats.n_vectors_scanned == int(want.cells.n_scanned.sum())
        assert stats.n_vectors_pruned == int(want.cells.n_pruned.sum())
        assert got.shape == want.shape
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.positions.tobytes() == want.positions.tobytes()
        _assert_same_blocks(got.cells, want.cells)

        # A process worker's bundle, run in this process.
        with mock.patch.dict(worker._STATE, {"index": index, "scanner": scanner}):
            for jobs in (plan.jobs[0::2], plan.jobs[1::2]):
                if not jobs:
                    continue
                _, cells, busy_s = worker._run_bundle(
                    worker.WorkerBundle(
                        queries=plan.queries,
                        partition_ids=tuple(job.partition_id for job in jobs),
                        query_rows=np.concatenate([job.query_rows for job in jobs]),
                        job_sizes=tuple(len(job.query_rows) for job in jobs),
                        topk=topk,
                        tombstones=tuple(job.tombstones for job in jobs),
                    )
                )
                assert 1 <= len(busy_s) <= len(jobs)
                _assert_same_blocks(
                    cells,
                    ScanBlock.concatenate([expected[job.partition_id] for job in jobs]),
                )

        # The overlay fold: naive over the segments the plan probes.
        view = DeltaView(segments, {}, NO_IDS)
        merger = StreamingMerger(plan)
        _fold_overlay(merger, index, view, get_observability())
        reference = StreamingMerger(plan)
        folded = [job for job in plan.jobs if job.partition_id in segments]
        if folded:
            reference.fold(
                PackedPartials.of_jobs(plan, folded, [
                    job_block(job, segments[job.partition_id], NO_IDS, naive=True)
                    for job in folded
                ]),
                covers=False,
            )
        for name in ("_ids", "_distances", "_counts"):
            assert getattr(merger, name).shape == getattr(reference, name).shape
            assert getattr(merger, name).tobytes() == getattr(reference, name).tobytes()


def test_every_path_calls_scan_run_once_per_run(base, dataset):
    """The inline executor, a worker bundle and the overlay fold hand
    each slice ``_runs`` cuts to one ``scan_run`` call."""
    plan = BatchPlanner(base).plan(dataset.queries[:6], topk=10, nprobe=6)
    rng = np.random.default_rng(0)
    segments = dict(zip(
        range(N_PARTITIONS),
        _partitions(rng, [30] * N_PARTITIONS, 256, base.pq.m, 10**6),
    ))
    scanner = _RunRecorder()

    def n_runs(partitions):
        jobs = [(job.partition_id, job.query_rows, NO_IDS) for job in plan.jobs]
        return len(search_module._runs(jobs, partitions))

    with mock.patch.multiple(search_module, _RUN_CELLS=5, _RUN_ENTRIES=1 << 15):
        want = n_runs([base.partitions[job.partition_id] for job in plan.jobs])
        assert want > 1
        BatchExecutor(base, scanner).scan_plan(plan)
        assert scanner.calls == want

        scanner.calls = 0
        with mock.patch.dict(worker._STATE, {"index": base, "scanner": scanner}):
            _, _, busy_s = worker._run_bundle(
                worker.WorkerBundle(
                    queries=plan.queries,
                    partition_ids=tuple(job.partition_id for job in plan.jobs),
                    query_rows=np.concatenate([job.query_rows for job in plan.jobs]),
                    job_sizes=tuple(len(job.query_rows) for job in plan.jobs),
                    topk=plan.topk,
                    tombstones=tuple(job.tombstones for job in plan.jobs),
                )
            )
        assert scanner.calls == len(busy_s) == want

        scanner.calls = 0
        with mock.patch.object(search_module, "_SEGMENT_SCANNER", scanner):
            _fold_overlay(
                StreamingMerger(plan), base, DeltaView(segments, {}, NO_IDS),
                get_observability(),
            )
        assert scanner.calls == n_runs([segments[job.partition_id] for job in plan.jobs])


def test_a_jobs_tombstones_leave_the_other_jobs_rows_alone(base, dataset):
    """``tombstones[i]`` names rows of ``partitions[i]`` only: an id that
    job 0's tombstones name and job 1's partition holds is still one of
    job 1's candidates, on naive's run from tables and from the halves."""
    rng = np.random.default_rng(5)
    partitions = _partitions(rng, [50, 50], 256, base.pq.m, 0)
    held_by_job_1 = partitions[1].ids[7]
    tombstones = [np.array([held_by_job_1]), NO_IDS]
    queries = dataset.queries[:3]
    rows = np.array([0, 1, 2, 0, 2])
    sizes = [3, 2]
    halves = base.table_halves(
        queries, base.query_half(queries), rows, np.repeat([4, 9], sizes)
    )
    tables = halves.combine()
    want = ScanBlock.concatenate([
        _per_job(tables[:3], partitions[0], 50, tombstones[0]),
        _per_job(tables[3:], partitions[1], 50, tombstones[1]),
    ])
    assert (want.ids[3:] == held_by_job_1).any(axis=1).all()
    _assert_same_blocks(
        NaiveScanner().scan_run(tables, partitions, sizes, 50, tombstones), want
    )
    fused = NaiveScanner().scan_halves(halves, partitions, sizes, 50, tombstones)
    if fused is not None:  # None: the native kernels do not run here
        _assert_same_blocks(fused, want)
