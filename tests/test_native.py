"""The native kernels give numpy's bytes, and numpy runs whenever they
cannot.

``repro.native`` declares each kernel once (``native.KERNELS``): naive's
scan-and-select of a run from tables (``NaiveScanner.scan_run``) and
from Step 2's halves, combining each looked-up entry where it reads it
(``NaiveScanner.scan_halves``), Step 2's query half
(``ProductQuantizer.cross_tables_batch``), Step 1's routing
(``IVFADCIndex.route_batch``) and the merge's row selection
(``select_topk_rows`` in ``StreamingMerger.results``). Every variant of
every declared kernel is held byte for byte to the numpy twin its
declaration names, and fed malformed inputs at the boundary; the
callers are held to the numpy paths ``REPRO_NATIVE=0`` selects. The
fallback tests swap in a ``NativeLibrary`` over a throwaway cache with a
missing, broken or hung compiler.
"""

from __future__ import annotations

import importlib
import os
import re
import stat
import subprocess
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, EngineConfig, IVFADCIndex, NaiveScanner, native
from repro.exceptions import ReproError
from repro.ivf.inverted_index import TableHalves
from repro.ivf.partition import Partition
from repro.scan.base import NO_IDS, PAD_DISTANCE, PAD_ID, ScanBlock
from repro.scan.naive import _run_rows
from repro.scan.topk import select_topk_rows
from repro.search import BatchPlanner, PackedPartials, StreamingMerger


@contextmanager
def numpy_only():
    """Run the numpy paths inside the block."""
    before = os.environ.get(native.ENV_VAR)
    os.environ[native.ENV_VAR] = "0"
    try:
        yield
    finally:
        if before is None:
            del os.environ[native.ENV_VAR]
        else:
            os.environ[native.ENV_VAR] = before


@pytest.fixture(scope="module", autouse=True)
def kernels():
    if not native.available():
        pytest.skip(f"native kernels do not run here: {native.reason()}")


def _same_blocks(got, want):
    assert got.ids.shape == want.ids.shape
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()


def _both_ways(scan):
    """``scan()`` with the kernels, then with numpy, byte-compared."""
    got = scan()
    with numpy_only():
        want = scan()
    _same_blocks(got, want)
    return got


# -- NaiveScanner.scan_run ------------------------------------------------------

#: (m, k*): 8x8 and 16x4 codes, and an m the kernel sums a row at a time.
SHAPES = {"8x8": (8, 256), "16x4": (16, 16), "4x8": (4, 256)}


@st.composite
def runs(draw):
    m, ksub = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    n_jobs = draw(st.integers(1, 5))
    return {
        "m": m,
        "ksub": ksub,
        "rows": draw(st.lists(st.integers(0, 150), min_size=n_jobs, max_size=n_jobs)),
        "cells": draw(st.lists(st.integers(1, 4), min_size=n_jobs, max_size=n_jobs)),
        # some / all of a partition tombstoned, or none of it
        "dead": draw(st.lists(st.sampled_from(["none", "some", "all"]),
                              min_size=n_jobs, max_size=n_jobs)),
        # integer tables from a few values: many exact ties at the k-th
        # distance; continuous tables: none
        "values": draw(st.sampled_from([2, 5, None])),
        "topk": draw(st.integers(1, 200)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _run_inputs(case):
    rng = np.random.default_rng(case["seed"])
    m, ksub = case["m"], case["ksub"]
    ids = rng.permutation(10 * (sum(case["rows"]) + 1)).astype(np.int64)
    partitions, tombstones, start = [], [], 0
    for n, dead in zip(case["rows"], case["dead"]):
        part_ids = ids[start : start + n]
        start += n
        partitions.append(Partition(
            rng.integers(0, ksub, size=(n, m), dtype=np.uint8), part_ids
        ))
        if dead == "all" or (dead == "some" and n):
            chosen = part_ids if dead == "all" else rng.choice(
                part_ids, size=int(rng.integers(1, n + 1)), replace=False
            )
            tombstones.append(np.sort(chosen))
        else:
            tombstones.append(NO_IDS)
    shape = (sum(case["cells"]), m, ksub)
    if case["values"] is None:
        tables = rng.random(shape) * 100.0
    else:
        tables = rng.integers(0, case["values"], size=shape).astype(np.float64)
    return tables, partitions, tombstones


@given(case=runs())
@settings(max_examples=150, deadline=None)
def test_scan_run_is_numpys_byte_for_byte(case):
    tables, partitions, tombstones = _run_inputs(case)
    _both_ways(lambda: NaiveScanner().scan_run(
        tables, partitions, case["cells"], case["topk"], tombstones
    ))


def test_every_row_tombstoned_and_empty_partitions_pad_whole_cells():
    rng = np.random.default_rng(1)
    gone, kept = (
        Partition(rng.integers(0, 256, (40, 8), dtype=np.uint8), np.arange(40) + first)
        for first in (0, 100)
    )
    empty = Partition(np.empty((0, 8), dtype=np.uint8), np.empty(0, dtype=np.int64))
    tables = rng.random((5, 8, 256))
    block = _both_ways(lambda: NaiveScanner().scan_run(
        tables, [gone, empty, kept], [2, 1, 2], 100, [gone.ids, NO_IDS, NO_IDS]
    ))
    assert block.ids.shape == (5, 40)                  # min(topk, widest)
    assert block.lengths.tolist() == [0, 0, 0, 40, 40]
    assert block.n_scanned.tolist() == [40, 40, 0, 40, 40]
    alone = _both_ways(lambda: NaiveScanner().scan_run(
        tables[:1], [empty], [1], 10, [NO_IDS]
    ))
    assert alone.ids.shape == (1, 0)


def test_read_only_mmapped_codes(tmp_path):
    rng = np.random.default_rng(2)
    np.save(tmp_path / "codes.npy", rng.integers(0, 256, (300, 8), dtype=np.uint8))
    codes = np.load(tmp_path / "codes.npy", mmap_mode="r")
    assert not codes.flags.writeable
    partition = Partition(codes, np.arange(300))
    tables = rng.random((3, 8, 256))
    _both_ways(lambda: NaiveScanner().scan_batch(tables, partition, 17))
    del partition, codes


def _kernel_scan(tables, partition, topk=10):
    return native.naive_scan(
        tables, partition.codes, partition.ids, None,
        np.array([len(partition)]), np.array([len(tables)]), topk,
    )


def test_a_nan_distance_or_a_code_past_the_table_is_numpys():
    rng = np.random.default_rng(3)
    partition = Partition(rng.integers(0, 256, (50, 8), dtype=np.uint8), np.arange(50))
    tables = rng.random((2, 8, 256))
    assert _kernel_scan(tables, partition) is not None
    tables[0, 3, partition.codes[7, 3]] = np.nan
    assert _kernel_scan(tables, partition) is None
    _both_ways(lambda: NaiveScanner().scan_batch(tables, partition, 10))
    nibbles = Partition(rng.integers(0, 16, (50, 16), dtype=np.uint8), np.arange(50))
    assert _kernel_scan(rng.random((2, 16, 16)), nibbles) is not None
    nibbles.codes[9, 4] = 16
    assert _kernel_scan(rng.random((2, 16, 16)), nibbles) is None


# -- NaiveScanner.scan_halves ----------------------------------------------------


@st.composite
def halves_runs(draw):
    case = draw(runs())
    # rows either side of the lookup / scratch-table crossover (n >= k*),
    # and every cell through one side or the other
    case["rows"] = draw(st.lists(
        st.sampled_from([0, 1, 3, 15, 16, 17, 90, 255, 256, 300]),
        min_size=len(case["rows"]), max_size=len(case["rows"]),
    ))
    case["residual"] = draw(st.booleans())
    case["scratch"] = draw(st.sampled_from([native.SCRATCH_ROWS_PER_ENTRY, 0.0, 1e9]))
    case["all_rows"] = draw(st.booleans())
    return case


def _halves_inputs(case):
    """A run's partitions and tombstones (as :func:`_run_inputs`), and the
    run's Step 2 halves: ``cell_half`` one block per partition, or one
    stride-0 block for all (no residual encoding)."""
    _, partitions, tombstones = _run_inputs(case)
    rng = np.random.default_rng(case["seed"] + 1)
    m, ksub, n_jobs = case["m"], case["ksub"], len(partitions)
    n = sum(case["cells"])

    def values(shape):
        if case["values"] is None:
            return rng.random(shape) * 100.0
        return rng.integers(0, case["values"], size=shape).astype(np.float64)

    if case["residual"]:
        cell_half = values((n_jobs + 2, m, ksub))
    else:
        cell_half = np.broadcast_to(values((m, ksub)), (n_jobs + 2, m, ksub))
    n_queries = n if case["all_rows"] else 6
    query_half = values((n_queries, m, ksub)) * 2.0  # entries clamped at 0 too
    rows = None if case["all_rows"] else rng.integers(-n_queries, n_queries, n)
    cells = np.repeat(rng.permutation(n_jobs + 2)[:n_jobs], case["cells"])
    halves = TableHalves(values((n, m)), query_half, rows, cell_half, cells)
    return halves, partitions, tombstones


@given(case=halves_runs())
@settings(max_examples=200, deadline=None)
def test_the_fused_scan_is_the_combined_tables_scan_byte_for_byte(case):
    halves, partitions, tombstones = _halves_inputs(case)
    with mock.patch.object(native, "SCRATCH_ROWS_PER_ENTRY", case["scratch"]):
        got = NaiveScanner().scan_halves(
            halves, partitions, case["cells"], case["topk"], tombstones
        )
    assert got is not None
    with numpy_only():
        assert NaiveScanner().scan_halves(
            halves, partitions, case["cells"], case["topk"], tombstones
        ) is None
        tables = halves.combine()
        want = NaiveScanner().scan_run(
            tables, partitions, case["cells"], case["topk"], tombstones
        )
    _same_blocks(got, want)


def test_a_nan_entry_or_a_code_past_the_table_sends_the_fused_scan_to_numpy():
    rng = np.random.default_rng(4)
    m, ksub = 16, 16
    partition = Partition(rng.integers(0, ksub, (40, m), dtype=np.uint8), np.arange(40))

    def halves(query_half):
        return TableHalves(
            rng.random((2, m)), query_half, None,
            rng.random((3, m, ksub)), np.array([1, 1]),
        )

    def fused(h):
        return NaiveScanner().scan_halves(h, [partition], [2], 5, [NO_IDS])

    clean = rng.random((2, m, ksub))
    assert fused(halves(clean)) is not None
    spoiled = clean.copy()
    spoiled[1, 2, partition.codes[5, 2]] = np.nan      # an entry the scan reads
    assert fused(halves(spoiled)) is None

    def indexed(rows, cells):
        return TableHalves(rng.random((2, m)), clean, rows, rng.random((3, m, ksub)),
                           np.array(cells))

    assert fused(indexed(np.array([0, 2]), [1, 1])) is None     # a row past the batch
    assert fused(indexed(np.array([0, -3]), [1, 1])) is None
    assert fused(indexed(None, [1, 3])) is None                  # a cell past the index
    assert fused(indexed(np.array([0, -2]), [2, 0])) is not None  # numpy's negative row
    partition.codes[7, 3] = ksub
    assert fused(halves(clean)) is None


# -- ProductQuantizer.cross_tables_batch --------------------------------------------


def _cross(symbol, queries, codebooks):
    """One clone of the query-half kernel, at every size."""
    with mock.patch.object(native, "CROSS_MIN_PRODUCTS", 1):
        return native.cross_tables(queries, codebooks, variant=symbol)


def _einsum_cross(queries, codebooks):
    return _twin(native.cross_tables)(queries, codebooks)


@given(
    n=st.integers(1, 40),
    m=st.sampled_from([1, 2, 4, 8, 16]),
    dsub=st.integers(1, 20),
    ksub=st.sampled_from([2, 3, 4, 5, 16, 17, 33, 64, 100, 256]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_both_query_half_clones_are_einsums_bytes(n, m, dsub, ksub, seed):
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((n, m * dsub)) * 40.0
    queries[rng.random(queries.shape) < 0.05] = 0.0
    codebooks = rng.standard_normal((m, dsub, ksub)) * 25.0
    want = _einsum_cross(queries, codebooks).tobytes()
    portable = _cross("repro_cross_tables_portable", queries, codebooks)
    assert portable.tobytes() == want
    avx2 = _cross("repro_cross_tables_avx2", queries, codebooks)
    if avx2 is not None:  # None: this CPU has no AVX2
        assert avx2.tobytes() == want
    assert _cross("repro_cross_tables", queries, codebooks).tobytes() == want
    # A row gives its bytes alone and inside any block of rows.
    row = int(rng.integers(0, n))
    alone = _cross("repro_cross_tables", queries[row : row + 1], codebooks)
    assert alone.tobytes() == want[row * m * ksub * 8 : (row + 1) * m * ksub * 8]


@pytest.mark.parametrize("which", ["pq", "pq4"])
def test_the_query_half_is_numpys_for_1_to_n_rows(request, dataset, which):
    pq = request.getfixturevalue(which)
    queries = np.concatenate([dataset.queries, dataset.base[:56]])
    with numpy_only():
        want = pq.cross_tables_batch(queries)
    with mock.patch.object(native, "CROSS_MIN_PRODUCTS", 1):
        for n in range(1, len(queries) + 1):
            got = pq.cross_tables_batch(queries[:n])
            assert got.tobytes() == want[:n].tobytes()
    calls = []
    with mock.patch.object(native, "cross_tables", lambda *a: calls.append(a)):
        assert pq.cross_tables_batch(queries[:1]).tobytes() == want[:1].tobytes()
    assert len(calls) == 1  # consulted, and einsum answered the None


# -- IVFADCIndex.route_batch ----------------------------------------------------


@pytest.fixture(scope="module")
def six_cells(dataset, pq):
    return IVFADCIndex(pq, n_partitions=6, seed=2).add(dataset.base[:1500])


def _route(symbol, queries, codebook, nprobe):
    """One clone of the routing kernel, called directly: its ``(cells,
    distances)``, or None for a status (a clone this CPU lacks, or a
    distance that is not finite)."""
    c_sq = np.einsum("id,id->i", codebook, codebook)
    distances = np.empty((len(queries), len(codebook)))
    cells = native.route(queries, codebook, c_sq, nprobe, distances, variant=symbol)
    return None if cells is None else (cells, distances)


def _numpy_route(queries, codebook, nprobe):
    """``route_batch``'s numpy path: ``(cells, distances)``."""
    c_sq = np.einsum("id,id->i", codebook, codebook)
    distances = native.einsum_distances(queries, codebook, c_sq)
    cells = select_topk_rows(distances, np.arange(len(codebook)), nprobe)[0]
    return cells, distances


@st.composite
def routings(draw):
    d = draw(st.one_of(st.integers(1, 24), st.integers(25, 200)))
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    b = draw(st.one_of(st.integers(1, 9), st.integers(10, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # integer-valued: exact ties between cells
        queries = rng.integers(-3, 4, (b, d)).astype(np.float64)
        codebook = rng.integers(-3, 4, (n, d)).astype(np.float64)
    else:
        queries = rng.standard_normal((b, d)) * 30.0
        codebook = rng.standard_normal((n, d)) * 30.0
    if draw(st.booleans()):  # duplicated centroids: ties go to the lower cell
        codebook[rng.integers(0, n, n // 2)] = codebook[rng.integers(0, n, n // 2)]
    return queries, codebook, draw(st.integers(1, n))


@given(case=routings())
@settings(max_examples=150, deadline=None)
def test_both_route_clones_are_numpys_bytes(case):
    queries, codebook, nprobe = case
    cells, distances = _numpy_route(queries, codebook, nprobe)
    for symbol in native.route.symbols:
        got = _route(symbol, queries, codebook, nprobe)
        if got is None:  # the AVX2 clone, on a CPU without AVX2
            assert symbol == "repro_route_avx2"
            continue
        assert got[1].tobytes() == distances.tobytes()
        assert got[0].tobytes() == cells.tobytes()
    # Every nprobe of the first row, through the module's own call.
    c_sq = np.einsum("id,id->i", codebook, codebook)
    _, row = _numpy_route(queries[:1], codebook, len(codebook))
    order = np.lexsort((np.arange(len(codebook)), row[0]))
    for k in range(1, len(codebook) + 1):
        assert native.route(queries[:1], codebook, c_sq, k).tolist() == [
            order[:k].tolist()
        ]


def test_route_batch_routes_natively_with_numpys_bytes(monkeypatch, six_cells, dataset):
    index = six_cells
    calls = []
    kernel = native.route
    monkeypatch.setattr(native, "route", lambda *a: calls.append(a) or kernel(*a))
    queries = np.concatenate([dataset.queries, dataset.base[:77]])
    for nprobe in (1, 3, index.n_partitions):
        got = index.route_batch(queries, nprobe=nprobe)
        with numpy_only():
            want = index.route_batch(queries, nprobe=nprobe)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(calls) == 6  # consulted each time, numpy's answer or not


def test_an_overflowing_distance_routes_in_numpy(index, dataset):
    queries = dataset.queries[:5].copy()
    queries[2] = 1e200  # finite, but its squared norm is not
    c_sq = index._centroid_sq_norms()
    assert native.route(queries, index.coarse.codebook, c_sq, 2) is None
    assert native.route(queries[:2], index.coarse.codebook, c_sq, 2) is not None
    got = index.route_batch(queries, nprobe=2)
    with numpy_only():
        assert got.tobytes() == index.route_batch(queries, nprobe=2).tobytes()


@pytest.mark.parametrize("layout", ["column-strided", "Fortran"])
def test_a_strided_batch_routes_as_its_rows_alone(index, dataset, layout):
    """einsum sums a strided row in another order than a contiguous one:
    the kernel refuses one, and ``route_batch`` makes the batch
    contiguous first, so each row routes as it does alone."""
    queries = dataset.queries[:6]
    if layout == "Fortran":
        strided = np.asfortranarray(queries)
    else:
        strided = np.repeat(queries, 2, axis=1)[:, ::2]
    c_sq = index._centroid_sq_norms()
    assert native.route(strided, index.coarse.codebook, c_sq, 2) is None
    alone = [index.route(query, nprobe=2) for query in queries]
    assert index.route_batch(strided, nprobe=2).tolist() == alone
    with numpy_only():
        assert index.route_batch(strided, nprobe=2).tolist() == alone


def test_the_self_check_catches_another_einsum_order(monkeypatch):
    library = native._LIBRARY.handle()
    assert native._routes_like_einsum(native.route, library)
    einsum = np.einsum

    def one_ulp_off(*args, **kwargs):
        out = einsum(*args, **kwargs)
        return np.nextafter(out, np.inf) if args[0] == "qd,id->qi" else out

    monkeypatch.setattr(np, "einsum", one_ulp_off)
    assert not native._routes_like_einsum(native.route, library)


def test_a_machine_that_fails_the_self_check_routes_in_numpy(monkeypatch, index,
                                                             dataset):
    checks = []
    monkeypatch.setattr(native.route, "self_check",
                        lambda kernel, lib: checks.append(lib) or False)
    library = native.NativeLibrary(native._LIBRARY.directory)
    monkeypatch.setattr(native, "_LIBRARY", library)
    assert native.available()
    c_sq = index._centroid_sq_norms()
    for _ in range(3):
        assert native.route(dataset.queries, index.coarse.codebook, c_sq, 2) is None
    assert len(checks) == 1  # once per library
    got = index.route_batch(dataset.queries, nprobe=2)
    with numpy_only():
        assert got.tobytes() == index.route_batch(dataset.queries, nprobe=2).tobytes()


def test_the_data_pointer_read_is_the_array_interfaces(tmp_path):
    base = np.arange(64.0).reshape(8, 8)
    np.save(tmp_path / "a.npy", base)
    mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
    assert not mapped.flags.writeable
    arrays = [
        base, base[3:], base[2:, 5:], base[::-1], base.T, mapped, mapped[5:],
        np.frombuffer(bytes(80), dtype=np.float64)[3:], np.empty(0),
        np.broadcast_to(base[0], (4, 8)),
    ]
    for array in arrays:
        assert native._address(array) == array.__array_interface__["data"][0]
    del mapped, arrays


# -- the merge's row selection ----------------------------------------------------


@st.composite
def blocks(draw):
    b, n = draw(st.integers(1, 40)), draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from([2, 5, None]))
    distances = (rng.random((b, n)) * 100.0 if values is None
                 else rng.integers(0, values, (b, n)).astype(np.float64))
    ids = rng.permutation(b * n + 7)[: b * n].reshape(b, n).astype(np.int64)
    if draw(st.booleans()):  # the merger's padding: cells shorter than a row
        pad = rng.random((b, n)) < 0.3
        distances[pad], ids[pad] = PAD_DISTANCE, PAD_ID
    if draw(st.booleans()):  # sorted runs, as the merger's cells are
        width = draw(st.integers(1, n))
        for start in range(0, n, width):
            run = slice(start, start + width)
            order = np.lexsort((ids[:, run], distances[:, run]), axis=1)
            rows = np.arange(b)[:, None]
            distances[:, run] = distances[:, run][rows, order]
            ids[:, run] = ids[:, run][rows, order]
    return distances, ids, draw(st.integers(1, n + 40))


@given(case=blocks())
@settings(max_examples=200, deadline=None)
def test_the_row_select_is_select_topk_rows(case):
    distances, ids, k = case
    got = native.select_rows(distances, ids, k)
    want = select_topk_rows(distances, ids, k)
    assert got is not None
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 10, 100, 101, 300])
def test_the_row_select_is_select_topk_rows_either_side_of_insertion(k):
    # Runs of sorted cells, as the merger's rows are, and a random row;
    # the kernel keeps k <= 100 by insertion and a wider k in its buffer.
    rng = np.random.default_rng(k)
    distances = rng.integers(0, 50, (5, 4, k)).astype(np.float64)
    ids = rng.permutation(20 * k + 3)[: 20 * k].reshape(5, 4, k).astype(np.int64)
    order = np.lexsort((ids, distances), axis=2)
    distances = np.take_along_axis(distances, order, axis=2).reshape(5, 4 * k)
    ids = np.take_along_axis(ids, order, axis=2).reshape(5, 4 * k)
    distances[4], ids[4] = distances[4][::-1], ids[4][::-1]
    got = native.select_rows(distances, ids, k)
    assert got is not None
    for a, b in zip(got, select_topk_rows(distances, ids, k)):
        assert a.tobytes() == b.tobytes()


def test_a_nan_sends_the_merge_to_numpy(index, dataset):
    distances = np.random.default_rng(5).random((6, 7))
    ids = np.arange(42).reshape(6, 7)
    assert native.select_rows(distances, ids, 5) is not None
    distances[4, 2] = np.nan
    assert native.select_rows(distances, ids, 5) is None
    plan = BatchPlanner(index).plan(dataset.queries[:3], topk=5, nprobe=2)
    cells = ScanBlock(  # 3 queries x 2 probes, a NaN in query 2's first cell
        np.arange(18).reshape(6, 3), distances[:, :3].copy(),
        np.full((3, 6), 3, dtype=np.int64),
    )

    def merged():
        merger = StreamingMerger(plan)
        rows, positions = np.divmod(np.arange(6), 2)
        merger.fold(PackedPartials((3, 2), rows, positions, cells))
        return merger.results()

    got = merged()
    with numpy_only():
        want = merged()
    for a, b in zip(got, want, strict=True):
        assert a.ids.tobytes() == b.ids.tobytes()
        assert a.distances.tobytes() == b.distances.tobytes()


# -- every declared kernel: its twin, its variants, its boundary ----------------

_KERNELS = {kernel.name: kernel for kernel in native.KERNELS}
#: Every symbol of every declared kernel, each held to its kernel's twin.
VARIANTS = [(kernel.name, symbol)
            for kernel in native.KERNELS for symbol in kernel.symbols]
seeds = st.integers(0, 2**32 - 1)


def _twin(kernel):
    """The numpy function a declaration names as its kernel's twin."""
    module, function = kernel.twin.split(":")
    return getattr(importlib.import_module(module), function)


def _scan_case(case):
    tables, partitions, tombstones = _run_inputs(case)
    codes, ids, dead, n_rows = _run_rows(partitions, tombstones, case["m"])
    return (tables, codes, ids, dead, n_rows, case["cells"], case["topk"])


def _halves_case(case):
    halves, partitions, tombstones = _halves_inputs(case)
    codes, ids, dead, n_rows = _run_rows(partitions, tombstones, case["m"])
    return (halves.r_sq, halves.query_half, halves.rows, halves.cell_half,
            halves.cells, codes, ids, dead, n_rows, case["cells"], case["topk"])


@st.composite
def cross_cases(draw):
    m, dsub = draw(st.sampled_from([1, 2, 4, 8, 16])), draw(st.integers(1, 20))
    ksub = draw(st.sampled_from([2, 3, 4, 5, 16, 17, 33, 64, 100, 256]))
    rng = np.random.default_rng(draw(seeds))
    queries = rng.standard_normal((draw(st.integers(1, 40)), m * dsub)) * 40.0
    queries[rng.random(queries.shape) < 0.05] = 0.0
    return queries, rng.standard_normal((m, dsub, ksub)) * 25.0


def _route_case(case, with_distances=True):
    queries, codebook, nprobe = case
    distances = np.empty((len(queries), len(codebook))) if with_distances else None
    return (queries, codebook, np.einsum("id,id->i", codebook, codebook), nprobe,
            distances)


#: Valid inputs of each declared kernel, drawn across its shapes.
CASES = {
    "naive_scan": runs().map(_scan_case),
    "naive_scan_halves": halves_runs().map(_halves_case),
    "cross_tables": cross_cases(),
    "route": routings().map(_route_case),
    "select_rows": blocks(),
}


def _written(kernel, inputs):
    return [getattr(spec, "written", False) and value is not None
            for spec, value in zip(kernel.inputs, inputs)]


def _held_to_twin(kernel, inputs, variant=None):
    """``kernel`` on ``inputs`` at every size; where it answers, its
    outputs and every buffer it writes must be the twin's, byte for
    byte. Whether it answered."""
    theirs = [np.zeros_like(value) if written else value
              for written, value in zip(_written(kernel, inputs), inputs)]
    with mock.patch.object(native, "CROSS_MIN_PRODUCTS", 1):
        got = kernel(*inputs, variant=variant)
    if got is None:
        return False
    want = _twin(kernel)(*theirs)
    got, want = (x if isinstance(x, tuple) else (x,) for x in (got, want))
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    for written, a, b in zip(_written(kernel, inputs), inputs, theirs):
        assert not written or a.tobytes() == b.tobytes()
    return True


def test_every_kernel_is_declared_once_with_a_twin_and_cases():
    symbols = [symbol for kernel in native.KERNELS for symbol in kernel.symbols]
    exported = re.findall(r"^int (repro_\w+)\(", native.SOURCE.read_text(), re.MULTILINE)
    assert sorted(symbols) == sorted(exported) and len(set(symbols)) == len(symbols)
    for kernel in native.KERNELS:
        assert callable(_twin(kernel)), f"{kernel.name} names no numpy twin"
        library = native._LIBRARY.handle()
        for symbol in kernel.symbols:
            assert getattr(library, symbol).argtypes == kernel.argtypes
    assert set(CASES) == set(BOUNDARY_CASES) == set(_KERNELS), (
        "a declared kernel that no identity or boundary test draws"
    )


@pytest.mark.parametrize("name, variant", VARIANTS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_variant_is_its_twins_bytes(name, variant, data):
    answered = _held_to_twin(_KERNELS[name], data.draw(CASES[name]), variant)
    assert answered or variant.endswith("_avx2")  # None: a CPU without AVX2


def _scan_boundary(rng):
    """A fixed run of 1 500 rows of 8x8 codes, two jobs, three cells."""
    codes = rng.integers(0, 256, (1500, 8), dtype=np.uint8)
    dead = rng.random(1500) < 0.1
    return (codes, rng.permutation(10**6)[:1500].astype(np.int64), dead,
            np.array([900, 600]), [1, 2], 20)


#: Valid inputs of each declared kernel at one shape whose arrays are
#: each larger than 1 KiB (numpy serves smaller buffers from a cache, in
#: which an overrun may hit memory that is still allocated).
BOUNDARY_CASES = {
    "naive_scan": lambda rng: (rng.random((3, 8, 256)), *_scan_boundary(rng)),
    "naive_scan_halves": lambda rng: (
        rng.random((160, 16)), rng.random((12, 16, 16)), rng.integers(-12, 12, 160),
        rng.random((6, 16, 16)), np.repeat([4, 1], [60, 100]),
        rng.integers(0, 16, (1500, 16), dtype=np.uint8),
        *_scan_boundary(rng)[1:4], [60, 100], 20,
    ),
    "cross_tables": lambda rng: (
        rng.standard_normal((40, 128)), rng.standard_normal((8, 16, 256)),
    ),
    "route": lambda rng: _route_case(
        (rng.standard_normal((200, 32)), rng.standard_normal((150, 32)), 7),
        with_distances=bool(rng.integers(2)),
    ),
    "select_rows": lambda rng: (
        rng.random((50, 300)), rng.permutation(15000).reshape(50, 300), 10,
    ),
}

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]


def _misaligned(value):
    buffer = np.empty(value.nbytes + 1, dtype=np.uint8)[1:]
    out = buffer.view(value.dtype).reshape(value.shape)
    out[...] = value
    return out


def _read_only_mmap(value, directory):
    path = directory / f"a{len(os.listdir(directory))}.npy"
    np.save(path, value)
    return np.load(path, mmap_mode="r")


def _negative_counts(value):
    value = np.array(value, dtype=np.int64)
    if len(value) < 2:
        return -value - 1
    shift = value[1] + 1 + value[1] // 2
    value[0] += shift   # the same total, one count below zero
    value[1] -= shift
    return value


@st.composite
def malformed(draw, name, directory):
    """A valid boundary case of kernel ``name`` with one input spoiled."""
    kernel = _KERNELS[name]
    inputs = list(BOUNDARY_CASES[name](np.random.default_rng(draw(seeds))))
    at = draw(st.integers(0, len(inputs) - 1))
    spec, value = kernel.inputs[at], inputs[at]
    if isinstance(spec, native.Int):
        inputs[at] = draw(st.sampled_from(
            [-1, 0, 1, 10**4, 2**62, 2**63, 2**70, 1.5, "3", None, np.int32(5)]
        ))
        return inputs
    if value is None:
        inputs[at] = draw(st.sampled_from(
            [np.zeros(1500, dtype=spec.dtype), np.zeros(3)]))
        return inputs
    value = np.asarray(value)
    how = draw(st.sampled_from([
        "dtype", "fortran", "reversed", "zero stride", "offset", "misaligned",
        "empty", "empty last axis", "read-only mmap", "negative counts", "huge count",
    ]))
    if how == "dtype":
        value = value.astype(draw(st.sampled_from(
            [dtype for dtype in DTYPES if dtype != value.dtype])))
    elif how == "fortran":
        value = np.asfortranarray(value)
    elif how == "reversed":
        value = value[::-1]
    elif how == "zero stride" and len(value):
        value = np.broadcast_to(value[:1], value.shape)
    elif how == "offset":
        value = np.concatenate([value[:1], value])[1:]
    elif how == "misaligned":
        value = _misaligned(value)
    elif how == "empty":
        value = value[:0]
    elif how == "empty last axis" and value.ndim:
        value = value[..., :0]
    elif how == "read-only mmap":
        value = _read_only_mmap(value, directory)
    elif how == "negative counts" and isinstance(spec, native.Count):
        value = _negative_counts(value)
    elif how == "huge count" and isinstance(spec, native.Count):
        value = value.astype(np.int64) + 2**62
    inputs[at] = value
    return inputs


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_every_boundary_case_is_answered(name):
    case = BOUNDARY_CASES[name](np.random.default_rng(7))
    assert _held_to_twin(_KERNELS[name], case)


@pytest.fixture(scope="module")
def spool(tmp_path_factory):
    return tmp_path_factory.mktemp("mmaps")


@pytest.mark.parametrize("name", sorted(_KERNELS))
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_malformed_input_gets_numpys_bytes_or_goes_to_numpy(name, spool, data):
    """Every call with one input spoiled answers with its twin's bytes,
    returns None (numpy runs) or raises a ``ReproError``: never a crash,
    a read past an array or a silently wrong row."""
    inputs = data.draw(malformed(name, spool))
    try:
        _held_to_twin(_KERNELS[name], inputs)
    except ReproError:
        pass


def test_a_negative_job_count_goes_to_numpy():
    """Counts that sum to their extent but are not all >= 0 never reach
    C: a job of -2000 rows or -1 cells would read past the codes or the
    tables."""
    rng = np.random.default_rng(6)
    tables = rng.random((2, 8, 256))
    codes = rng.integers(0, 256, (3000, 8), dtype=np.uint8)
    ids = np.arange(3000)
    assert native.naive_scan(tables, codes, ids, None, [1000, 2000], [1, 1], 10)
    assert native.naive_scan(tables, codes, ids, None, [5000, -2000], [1, 1], 10) is None
    assert native.naive_scan(tables, codes, ids, None, [1000, 2000], [3, -1], 10) is None
    halves = (rng.random((2, 8)), rng.random((2, 8, 256)), None,
              rng.random((3, 8, 256)), np.array([2, 0]))
    assert native.naive_scan_halves(*halves, codes, ids, None, [1000, 2000], [1, 1], 10)
    for n_rows, n_cells in (([5000, -2000], [1, 1]), ([1000, 2000], [3, -1])):
        assert native.naive_scan_halves(
            *halves, codes, ids, None, n_rows, n_cells, 10) is None
    partitions = [Partition(codes[:500], ids[:500]),
                  Partition(codes[500:1000], ids[500:1000])]
    assert NaiveScanner().scan_halves(
        TableHalves(*halves), partitions, [3, -1], 10, [NO_IDS, NO_IDS]
    ) is None


# -- when the kernels run, and when the compiler runs ---------------------------


def _script(path, body):
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def _engine_answers(index, queries):
    with Engine(index, EngineConfig(scanner="naive", nprobe=2)) as engine:
        return engine.search(queries, k=20)


def _same_answers(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.ids.tobytes() == b.ids.tobytes()
        assert a.distances.tobytes() == b.distances.tobytes()


@pytest.fixture(scope="module")
def answers(index, dataset):
    """A naive engine's answers with the kernels running."""
    return _engine_answers(index, dataset.queries)


def test_a_fused_call_that_gives_up_scans_combined_tables(monkeypatch, index, dataset,
                                                          answers):
    monkeypatch.setattr(NaiveScanner, "scan_halves", lambda *args: None)
    _same_answers(_engine_answers(index, dataset.queries), answers)


@pytest.mark.parametrize("fault", ["no compiler", "cache not writable", "REPRO_NATIVE=0"])
def test_a_fallback_gives_the_same_bytes(monkeypatch, tmp_path, index, dataset,
                                         answers, fault):
    if fault == "no compiler":
        library = native.NativeLibrary(tmp_path, compiler="no-such-cc")
        expect = "no C compiler"
    elif fault == "cache not writable":
        (tmp_path / "file").write_text("")
        library = native.NativeLibrary(tmp_path / "file" / "native")
        expect = "not writable"
    else:
        library = native.NativeLibrary(tmp_path)
        monkeypatch.setenv(native.ENV_VAR, "0")
        expect = "REPRO_NATIVE=0"
    monkeypatch.setattr(native, "_LIBRARY", library)
    _same_answers(_engine_answers(index, dataset.queries), answers)
    assert not native.available()
    assert expect in native.reason()
    assert not native.build()  # a failure is never retried into success
    if fault == "cache not writable":
        assert not (tmp_path / "file").is_dir()


def test_a_hung_compiler_is_killed_within_its_timeout(tmp_path):
    compiler = _script(tmp_path / "cc", "exec sleep 30")
    library = native.NativeLibrary(tmp_path / "cache", compiler=compiler, timeout_s=0.5)
    start = time.monotonic()
    assert library.handle(build=True) is None
    assert time.monotonic() - start < 10
    assert "took longer" in library.reason
    assert os.listdir(tmp_path / "cache") == []    # no temp file left


def test_a_failed_build_leaves_nothing_and_says_why(tmp_path):
    compiler = _script(tmp_path / "cc", "echo broken >&2; exit 3")
    library = native.NativeLibrary(tmp_path / "cache", compiler=compiler)
    assert library.handle(build=True) is None
    assert "exit 3" in library.reason and "broken" in library.reason
    assert os.listdir(tmp_path / "cache") == []


def _no_process(*args, **kwargs):
    raise AssertionError(f"a process was started: {args}")


def test_only_build_compiles_and_a_warm_cache_starts_no_process(monkeypatch, tmp_path):
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    cold = native.NativeLibrary(tmp_path)
    assert cold.handle() is None                   # a lookup never compiles
    assert "not built yet" in cold.reason
    monkeypatch.undo()
    assert cold.handle(build=True) is not None
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]   # no temp left
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    warm = native.NativeLibrary(tmp_path)
    assert warm.handle() is not None and warm.reason is None
    assert native.NativeLibrary(tmp_path).handle(build=True) is not None


@pytest.mark.parametrize("config, builds", [
    (dict(scanner="fastpq"), False),
    (dict(scanner="naive"), True),
    (dict(scanner="fastpq", mutable=True), True),
])
def test_only_naive_and_mutable_engines_compile(monkeypatch, tmp_path, index,
                                                config, builds):
    library = native.NativeLibrary(tmp_path)
    monkeypatch.setattr(native, "_LIBRARY", library)
    with Engine(index, EngineConfig(**config)):
        pass
    assert (library.reason is None) == builds
    assert any(tmp_path.iterdir()) == builds
