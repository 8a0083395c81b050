"""Tests for the Quick ADC 4-bit scanner family.

Covers the nibble-packed layout, the numpy scanner (sample phase,
candidate selection, exact rerank, prepared cache), byte-identity
between the scanner and the simulated kernel, the engine/spec wiring
and the executor equivalence grid — byte-identity against quickadc's
own one-shard thread engine, one query at a time, at the oracle's
distances.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import NaiveScanner, PQFastScanner, ProductQuantizer
from repro.core.quantization import DistanceQuantizer
from repro.engine import SCANNER_KINDS, Engine, EngineConfig
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InvariantViolation,
    NotFittedError,
)
from repro.ivf.partition import Partition
from repro.parallel import ScannerSpec
from repro.pq.adc import adc_distances
from repro.core.sanitize import check_saturation_invariant
from repro.scan import (
    NibblePartition,
    QuickADCResult,
    QuickADCScanner,
    nibble_block_layout,
    nibble_lower_bounds,
    pack_nibbles,
    select_topk,
    unpack_nibbles,
)
from repro.scan import quickadc as quickadc_module
from repro.simd import fastscan_kernel, quickadc_kernel

from .oracle import holds_oracle_distances

pytestmark = pytest.mark.usefixtures("no_process_left")


@pytest.fixture(scope="module")
def scanner4(pq4):
    return QuickADCScanner(pq4, keep=0.01)


@pytest.fixture(scope="module")
def routed4(index4bit, dataset):
    query = dataset.queries[0]
    pid = index4bit.route(query)[0]
    return index4bit.partitions[pid], index4bit.distance_tables_for(query, pid)


@pytest.fixture(scope="module")
def batch_queries4(dataset):
    base = np.tile(dataset.queries, (3, 1))
    jitter = np.random.default_rng(99).normal(scale=2.0, size=base.shape)
    return np.vstack([dataset.queries, base + jitter])


class TestNibbleLayout:
    def test_pack_unpack_roundtrip(self, rng):
        codes = rng.integers(0, 16, size=(37, 16), dtype=np.uint8)
        packed = pack_nibbles(codes)
        assert packed.shape == (37, 8)
        np.testing.assert_array_equal(unpack_nibbles(packed, 16), codes)

    def test_roundtrip_odd_m(self, rng):
        codes = rng.integers(0, 16, size=(10, 5), dtype=np.uint8)
        packed = pack_nibbles(codes)
        assert packed.shape == (10, 3)
        # The padding high nibble of the last byte is zero.
        assert int((packed[:, -1] >> 4).max()) == 0
        np.testing.assert_array_equal(unpack_nibbles(packed, 5), codes)

    def test_nibble_order_matches_kernel_extraction(self):
        codes = np.array([[0x3, 0xA]], dtype=np.uint8)
        packed = pack_nibbles(codes)
        # Even component in the low nibble, odd in the high nibble.
        assert packed[0, 0] == 0x3 | (0xA << 4)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ConfigurationError):
            pack_nibbles(np.full((4, 8), 16, dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ConfigurationError):
            pack_nibbles(np.zeros((4, 8), dtype=np.int64))

    def test_block_layout_pads_tail(self, rng):
        codes = rng.integers(0, 16, size=(21, 8), dtype=np.uint8)
        blocks, n = nibble_block_layout(codes)
        assert n == 21
        assert blocks.shape == (2, 4, 16)
        packed = pack_nibbles(codes)
        # Slice s, lane l of block b is packed byte s of vector b*16+l;
        # padding lanes repeat the last vector.
        assert blocks[1, 0, 4] == packed[20, 0]
        assert blocks[1, 2, 15] == packed[20, 2]
        assert blocks[0, 3, 7] == packed[7, 3]

    def test_lower_bounds_match_scalar_reference(self, rng):
        m = 16
        codes = rng.integers(0, 16, size=(120, m), dtype=np.uint8)
        tables = rng.uniform(0.1, 8.0, size=(m, 16))
        quantizer = DistanceQuantizer.from_tables(tables, float(np.median(
            adc_distances(tables, codes)
        )))
        q_tables = quantizer.quantize_table(tables)
        bounds = nibble_lower_bounds(pack_nibbles(codes), q_tables)
        reference = np.minimum(
            sum(
                q_tables[j].astype(np.int64)[codes[:, j]] for j in range(m)
            ),
            127,
        )
        np.testing.assert_array_equal(bounds, reference)

    def test_lower_bounds_rejects_mismatched_m(self, rng):
        packed = pack_nibbles(rng.integers(0, 16, size=(8, 16), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            nibble_lower_bounds(packed, np.zeros((6, 16), dtype=np.int8))


class TestQuickADCScanner:
    def test_rejects_8bit_quantizer(self, pq):
        with pytest.raises(ConfigurationError):
            QuickADCScanner(pq)

    def test_rejects_unfitted_quantizer(self):
        with pytest.raises(NotFittedError):
            QuickADCScanner(ProductQuantizer(m=16, bits=4))

    def test_rejects_bad_keep(self, pq4):
        with pytest.raises(ConfigurationError):
            QuickADCScanner(pq4, keep=1.5)

    def test_reported_distances_are_exact(self, scanner4, routed4):
        """Whatever rows Quick ADC selects, their distances are exact ADC."""
        partition, tables = routed4
        result = scanner4.scan(tables, partition, topk=10)
        assert isinstance(result, QuickADCResult)
        by_id = {int(i): d for i, d in zip(partition.ids, adc_distances(
            tables, partition.codes
        ))}
        for i, d in zip(result.ids, result.distances):
            assert d == by_id[int(i)]

    def test_recall_against_exhaustive_scan(self, scanner4, routed4):
        """Approximate at the margin, but not by much on a real workload."""
        partition, tables = routed4
        result = scanner4.scan(tables, partition, topk=20)
        exact = NaiveScanner().scan(tables, partition, topk=20)
        overlap = len(np.intersect1d(result.ids, exact.ids))
        assert overlap >= 15
        # The single nearest neighbor always survives selection: its
        # bound cannot exceed any cutoff that keeps topk candidates.
        assert result.ids[0] == exact.ids[0]
        assert result.distances[0] == exact.distances[0]

    def test_accounting_adds_up(self, scanner4, routed4):
        partition, tables = routed4
        result = scanner4.scan(tables, partition, topk=10)
        n = len(partition)
        assert result.n_scanned == n
        assert result.n_sample >= 10
        assert result.n_candidates >= 0
        assert result.n_sample + result.n_candidates + result.n_pruned == n
        assert result.n_pruned > 0  # real pruning on the test workload
        assert result.qmax > result.qmin

    def test_sample_shortcut_is_exact(self, pq4, routed4):
        """topk >= partition size: the sample covers everything."""
        partition, tables = routed4
        small = Partition(partition.codes[:8], partition.ids[:8], 0)
        result = QuickADCScanner(pq4).scan(tables, small, topk=8)
        exact = NaiveScanner().scan(tables, small, topk=8)
        np.testing.assert_array_equal(result.ids, exact.ids)
        assert result.distances.tobytes() == exact.distances.tobytes()
        assert result.n_pruned == 0 and result.n_sample == 8

    def test_scan_batch_matches_scan(self, scanner4, index4bit, dataset):
        pid = 1
        partition = index4bit.partitions[pid]
        tables = index4bit.distance_tables_for_batch(dataset.queries, pid)
        batch = scanner4.scan_batch(tables, partition, topk=10)
        for row, result in zip(tables, batch):
            single = scanner4.scan(row, partition, topk=10)
            np.testing.assert_array_equal(result.ids, single.ids)
            assert result.distances.tobytes() == single.distances.tobytes()
            assert result.n_pruned == single.n_pruned

    def test_scan_batch_rejects_2d_tables(self, scanner4, routed4):
        partition, tables = routed4
        with pytest.raises(DimensionMismatchError):
            scanner4.scan_batch(tables, partition, topk=5)

    def test_empty_partition(self, pq4, routed4):
        _, tables = routed4
        empty = Partition(
            np.empty((0, 16), dtype=np.uint8), np.empty(0, dtype=np.int64), 0
        )
        result = QuickADCScanner(pq4).scan(tables, empty, topk=3)
        assert len(result.ids) == 0 and result.n_scanned == 0

    def test_prepared_cache_hits_and_warm(self, pq4, routed4):
        partition, _ = routed4
        scanner = QuickADCScanner(pq4)
        assert scanner.warm([partition]) == 1
        assert scanner.prepared_misses == 1
        scanner.prepared(partition)
        assert scanner.prepared_hits == 1
        assert scanner.warm([partition]) == 0  # already cached

    def test_prepare_packs_nibbles(self, scanner4, routed4):
        partition, _ = routed4
        layout = scanner4.prepare(partition)
        assert layout.packed.shape == (8, len(partition))
        assert layout.packed.flags.c_contiguous
        np.testing.assert_array_equal(
            unpack_nibbles(layout.packed.T, 16), partition.codes
        )
        np.testing.assert_array_equal(
            layout.id_order, np.argsort(partition.ids, kind="stable")
        )


def fingerprint(result):
    """Everything a QuickADCResult carries, arrays as bytes."""
    return (
        result.ids.tobytes(), result.distances.tobytes(), result.n_scanned,
        result.n_pruned, result.n_sample, result.n_candidates,
        result.n_saturated, result.qmin, result.qmax,
    )


def reference_scan(tables, part, topk, keep):
    """The Quick ADC pipeline spelled out from the reference pieces:
    ``nibble_lower_bounds`` over the row-major packed codes,
    ``adc_distances`` and ``select_topk``."""
    n, m = part.codes.shape
    n_sample = min(n, max(int(np.ceil(keep * n)), topk))
    sample = np.argsort(part.ids, kind="stable")[:n_sample]
    ids, dists = select_topk(
        adc_distances(tables, part.codes[sample]), part.ids[sample], topk
    )
    if n_sample == n:
        return QuickADCResult(ids=ids, distances=dists, n_scanned=n, n_sample=n)
    quantizer = DistanceQuantizer.from_tables(tables, dists[-1])
    bounds = nibble_lower_bounds(
        pack_nibbles(part.codes), quantizer.quantize_table(tables)
    )
    cutoff = min(
        quantizer.quantize_threshold(dists[-1], components=m),
        int(np.sort(bounds)[topk - 1]),
    )
    rest = np.setdiff1d(np.flatnonzero(bounds <= cutoff), sample)
    ids, dists = select_topk(
        np.concatenate((dists, adc_distances(tables, part.codes[rest]))),
        np.concatenate((ids, part.ids[rest])),
        topk,
    )
    return QuickADCResult(
        ids=ids, distances=dists, n_scanned=n,
        n_pruned=n - n_sample - len(rest), n_sample=n_sample,
        n_candidates=len(rest), n_saturated=int((bounds >= 127).sum()),
        qmin=quantizer.qmin, qmax=quantizer.qmax,
    )


@pytest.fixture(scope="module")
def pq4_by_m():
    """Sub-quantizer counts incl. an odd one; the scanner reads only
    the quantizer's shape, the tables come from the test."""
    rng = np.random.default_rng(7)
    return {
        m: ProductQuantizer.from_codebooks(rng.normal(size=(m, 16, 2)))
        for m in (5, 8, 16)
    }


class TestEqualsReferencePipeline:
    """The prepared-layout scan against the reference pieces, byte for byte."""

    @given(
        m=st.sampled_from((5, 8, 16)),
        topk=st.sampled_from((1, 10, 100)),
        keep=st.sampled_from((0.0, 0.005, 1.0)),
        size=st.sampled_from(("1", "k-1", "k", "k+1", "2k", "s-1", "s+1", "5000")),
        sanitize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_result_bytes_and_counters(
        self, pq4_by_m, monkeypatch, m, topk, keep, size, sanitize, seed
    ):
        rng = np.random.default_rng(seed)
        # "s" is where ceil(keep * n) overtakes topk as the sample size.
        s = int(topk / keep) if 0.0 < keep < 1.0 else 3 * topk
        sizes = {"k-1": topk - 1, "k": topk, "k+1": topk + 1, "2k": 2 * topk,
                 "s-1": s - 1, "s+1": s + 1}
        n = sizes[size] if size in sizes else int(size)
        # Few distinct codes: distance and bound ties are the rule; ids
        # shuffled and sparse: id order is not storage order.
        pool = rng.integers(0, 16, size=(rng.choice((4, n // 3 + 1)), m), dtype=np.uint8)
        part = Partition(pool[rng.integers(0, len(pool), size=n)], rng.permutation(n) * 3)
        tables = rng.random((3, m, 16)) * rng.choice([1e-3, 1.0, 1e4])
        monkeypatch.setenv("REPRO_SANITIZE", "1" if sanitize else "0")
        scanner = QuickADCScanner(pq4_by_m[m], keep=keep)
        batch = scanner.scan_batch(tables, part, topk)
        for row, got in zip(tables, batch):
            assert fingerprint(got) == fingerprint(reference_scan(row, part, topk, keep))
            assert fingerprint(got) == fingerprint(scanner.scan(row, part, topk))
            assert got.n_sample + got.n_candidates + got.n_pruned == got.n_scanned == n

    @given(
        m=st.sampled_from((1, 5, 8, 16)),
        n=st.sampled_from((0, 1, 15, 16, 17, 1000)),
        b=st.sampled_from((1, 3, 16)),
        ceiling=st.sampled_from((1, 9, 40, 128)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_table_bounds_are_the_nibble_bounds(self, m, n, b, ceiling, seed):
        """One lookup per packed byte reads what two nibble lookups sum
        to, from no saturation (ceiling 1) to nearly all rows at 127:
        row ``i`` of a stack's block is the bounds of table ``i``, and
        one table is a stack of one."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 16, size=(n, m), dtype=np.uint8)
        q_tables = rng.integers(0, ceiling, size=(b, m, 16)).astype(np.int8)
        layout = NibblePartition(codes, np.arange(n))
        block = layout.lower_bounds(q_tables)
        assert block.shape == (b, n)
        for row, tables in zip(block, q_tables):
            reference = nibble_lower_bounds(pack_nibbles(codes), tables)
            assert row.dtype == reference.dtype
            np.testing.assert_array_equal(row, reference)
        single = layout.lower_bounds(q_tables[0])
        assert single.shape == (n,)
        assert single.tobytes() == block[0].tobytes()

    @pytest.mark.parametrize("m", [5, 16])
    def test_stacked_bounds_saturate_past_the_last_block(self, m, rng):
        """Rows past the last full 16-row block, and bounds clamped at 127
        next to unclamped ones in the same block."""
        n = 3 * 16 + 5
        codes = rng.integers(0, 16, size=(n, m), dtype=np.uint8)
        q_tables = np.stack([
            np.full((m, 16), 127, dtype=np.int8),
            rng.integers(0, 127, size=(m, 16)).astype(np.int8),
            np.zeros((m, 16), dtype=np.int8),
        ])
        block = NibblePartition(codes, np.arange(n)).lower_bounds(q_tables)
        reference = np.stack([
            nibble_lower_bounds(pack_nibbles(codes), tables) for tables in q_tables
        ])
        np.testing.assert_array_equal(block, reference)
        assert (block[0] == 127).all() and (block[2] == 0).all()

    def test_lower_bounds_rejects_mismatched_tables(self, rng):
        layout = NibblePartition(
            rng.integers(0, 16, size=(8, 16), dtype=np.uint8), np.arange(8)
        )
        with pytest.raises(ConfigurationError):
            layout.lower_bounds(np.zeros((6, 16), dtype=np.int8))

    @pytest.mark.parametrize("shape", [(2, 6, 16), (16,), (1, 2, 16, 16)])
    def test_lower_bounds_rejects_mismatched_stacks(self, rng, shape):
        layout = NibblePartition(
            rng.integers(0, 16, size=(8, 16), dtype=np.uint8), np.arange(8)
        )
        with pytest.raises(ConfigurationError):
            layout.lower_bounds(np.zeros(shape, dtype=np.int8))

    def test_layout_is_rebuilt_per_worker_not_shipped(self, pq4, routed4):
        """What crosses to a worker process is the ScannerSpec: it holds
        no layout, and the scanner built from it prepares its own."""
        partition, tables = routed4
        scanner = QuickADCScanner(pq4, keep=0.01)
        scanner.warm([partition])
        shipped = pickle.dumps(ScannerSpec.for_scanner(scanner))
        assert len(shipped) < partition.codes.nbytes // 100
        rebuilt = pickle.loads(shipped).build(pq4)
        assert len(rebuilt._prepared) == 0
        result = rebuilt.scan(tables, partition, topk=10)
        assert rebuilt.prepared_misses == 1
        assert fingerprint(result) == fingerprint(scanner.scan(tables, partition, topk=10))
        # The layout itself is plain arrays and would survive the trip.
        layout = pickle.loads(pickle.dumps(scanner.prepared(partition)))
        np.testing.assert_array_equal(layout.packed, scanner.prepared(partition).packed)


class TestBatchEqualsSingle:
    """``scan_batch(stack)[i]`` is ``scan(stack[i])`` in every
    ``QuickADCResult`` field, however many queries share the bound block
    and however many runs it is built in."""

    @pytest.fixture(scope="class")
    def stack(self, index4bit, batch_queries4):
        pid = 1
        partition = index4bit.partitions[pid]
        return partition, index4bit.distance_tables_for_batch(batch_queries4[:16], pid)

    @staticmethod
    def _assert_batch_is_single(scanner, tables, partition, topk):
        batch = scanner.scan_batch(tables, partition, topk)
        assert len(batch) == len(tables)
        for row, got in zip(tables, batch):
            assert fingerprint(got) == fingerprint(scanner.scan(row, partition, topk))
        return batch

    @pytest.mark.parametrize("topk", [1, 10, 100])
    @pytest.mark.parametrize("b", [1, 16])
    def test_one_run(self, scanner4, stack, b, topk):
        partition, tables = stack
        batch = self._assert_batch_is_single(scanner4, tables[:b], partition, topk)
        assert all(r.n_sample < len(partition) for r in batch)

    @pytest.mark.parametrize("per_run", [1, 3])
    def test_bound_block_in_several_runs(self, scanner4, stack, monkeypatch, per_run):
        partition, tables = stack
        blocks = []
        real_bounds = NibblePartition.lower_bounds

        def recording_bounds(layout, q_tables):
            blocks.append(np.shape(q_tables))
            return real_bounds(layout, q_tables)

        whole = scanner4.scan_batch(tables, partition, 10)
        monkeypatch.setattr(
            quickadc_module, "_BOUND_RUN_CELLS", per_run * len(partition)
        )
        monkeypatch.setattr(NibblePartition, "lower_bounds", recording_bounds)
        runs = self._assert_batch_is_single(scanner4, tables, partition, 10)
        assert [fingerprint(r) for r in runs] == [fingerprint(r) for r in whole]
        sizes = [shape[0] for shape in blocks[: -len(tables)]]  # the batch's runs
        assert sizes == [min(per_run, 16 - i) for i in range(0, 16, per_run)]

    def test_partition_shorter_than_topk(self, pq4, stack):
        """The ``n_sample == n`` branch: the sample is the whole scan."""
        partition, tables = stack
        short = Partition(partition.codes[:8], partition.ids[:8], 0)
        batch = self._assert_batch_is_single(QuickADCScanner(pq4), tables, short, 10)
        assert all(r.n_sample == 8 and len(r.ids) == 8 for r in batch)

    def test_empty_partition(self, pq4, stack):
        _, tables = stack
        empty = Partition(
            np.empty((0, 16), dtype=np.uint8), np.empty(0, dtype=np.int64), 0
        )
        batch = self._assert_batch_is_single(QuickADCScanner(pq4), tables, empty, 5)
        assert all(r.n_scanned == 0 and len(r.ids) == 0 for r in batch)


class TestKernelScannerIdentity:
    @pytest.fixture(scope="class")
    def workload(self, pq4, rng):
        codes = rng.integers(0, 16, size=(210, 16), dtype=np.uint8)
        ids = np.arange(210, dtype=np.int64)
        tables = rng.uniform(0.1, 9.0, size=(16, 16))
        return tables, Partition(codes, ids, 0)

    def test_kernel_byte_identical_to_scanner(self, pq4, workload):
        tables, partition = workload
        scanner = QuickADCScanner(pq4, keep=0.05)
        result = scanner.scan(tables, partition, topk=10)
        run = quickadc_kernel(
            "haswell", tables, partition.codes, partition.ids,
            topk=10, keep=0.05,
        )
        np.testing.assert_array_equal(run.topk_ids, result.ids)
        assert run.topk_distances.tobytes() == result.distances.tobytes()
        assert run.n_pruned == result.n_pruned

    def test_kernel_results_platform_independent(self, workload):
        tables, partition = workload
        reference = quickadc_kernel(
            "haswell", tables, partition.codes, partition.ids, topk=5, keep=0.05
        )
        for platform in ("avx512", "graviton2", "neon", "nehalem"):
            run = quickadc_kernel(
                platform, tables, partition.codes, partition.ids,
                topk=5, keep=0.05,
            )
            np.testing.assert_array_equal(run.topk_ids, reference.topk_ids)
            assert (
                run.topk_distances.tobytes()
                == reference.topk_distances.tobytes()
            )

    def test_avx512_amortizes_byte_ops(self, workload):
        """The 512-bit cost model runs the same stream in fewer cycles."""
        tables, partition = workload
        haswell = quickadc_kernel(
            "haswell", tables, partition.codes, partition.ids, topk=5, keep=0.05
        )
        avx512 = quickadc_kernel(
            "avx512", tables, partition.codes, partition.ids, topk=5, keep=0.05
        )
        assert avx512.counters.instructions == haswell.counters.instructions
        assert avx512.counters.cycles < haswell.counters.cycles

    def test_threshold_override_bounds_pruning(self, workload):
        tables, partition = workload
        tight = quickadc_kernel(
            "haswell", tables, partition.codes, partition.ids,
            keep=0.05, threshold_override=-1,
        )
        loose = quickadc_kernel(
            "haswell", tables, partition.codes, partition.ids,
            keep=0.05, threshold_override=127,
        )
        assert tight.n_pruned == tight.n_vectors
        assert loose.n_pruned == 0
        assert loose.counters.cycles > tight.counters.cycles

    def test_kernel_rejects_bad_shapes(self, workload):
        from repro.exceptions import SimulationError

        tables, partition = workload
        with pytest.raises(SimulationError):
            quickadc_kernel("haswell", tables[:, :8], partition.codes)
        with pytest.raises(SimulationError):
            quickadc_kernel("haswell", tables, partition.codes[:, :8])


class TestCycleGateAtEqualBudget:
    """The Quick ADC claim in its own currency: at one 64-bit code budget
    (16x4 vs 8x8) the 4-bit kernel costs strictly fewer simulated AVX-512
    cycles per code than PQ Fast Scan. Simulated cycles are deterministic,
    so this is an exact comparison, not a timing."""

    def test_quickadc_beats_fastscan_on_avx512_cycles_per_code(
        self, dataset, pq, pq4
    ):
        rows, query, keep, topk = dataset.base[:2048], dataset.queries[0], 0.005, 100
        ids = np.arange(len(rows), dtype=np.int64)

        quick = quickadc_kernel(
            "avx512", pq4.distance_tables(query), pq4.encode(rows), ids,
            topk=topk, keep=keep,
        )
        fast_scanner = PQFastScanner(pq, keep=keep, seed=0)
        grouped = fast_scanner.prepare(Partition(pq.encode(rows), ids, 0))
        fast = fastscan_kernel(
            "avx512",
            fast_scanner.assignment.remap_tables(pq.distance_tables(query)),
            grouped, topk=topk, keep=keep,
        )

        assert quick.n_vectors == fast.n_vectors
        quick_cpc = quick.counters.cycles / quick.n_vectors
        fast_cpc = fast.counters.cycles / fast.n_vectors
        assert quick_cpc < fast_cpc


class TestEngineAndSpecWiring:
    def test_config_rejects_quickadc_with_8bit_codes(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(scanner="quickadc", bits=8)

    def test_engine_builds_and_searches(self, dataset):
        config = EngineConfig(
            m=16, bits=4, scanner="quickadc", n_partitions=4,
            max_iter=4, coarse_max_iter=4, nprobe=2, seed=0,
        )
        with Engine.build(dataset.base[:4000], config) as engine:
            results = engine.search(dataset.queries, k=10)
            assert len(results) == len(dataset.queries)
            assert all(len(r.ids) == 10 for r in results)

    def test_scanner_spec_roundtrip(self, pq4):
        scanner = QuickADCScanner(pq4, keep=0.02)
        spec = ScannerSpec.for_scanner(scanner)
        assert spec.kind == "quickadc"
        rebuilt = spec.build(pq4)
        assert isinstance(rebuilt, QuickADCScanner)
        assert rebuilt.keep == 0.02

    @pytest.mark.parametrize("kind", SCANNER_KINDS)
    def test_every_engine_kind_round_trips_through_spec(
        self, kind, pq, routed, pq4, routed4
    ):
        """One vocabulary, one ladder: the scanner ``EngineConfig`` builds
        reduces to a spec of the same kind, and the scanner rebuilt from
        that spec answers a partition byte-identically."""
        fourbit = kind == "quickadc"
        quantizer = pq4 if fourbit else pq
        partition, tables = routed4 if fourbit else routed
        config = EngineConfig(
            scanner=kind, keep=0.02, bits=quantizer.bits, m=quantizer.m
        )
        built = config.scanner_factory(quantizer)()
        spec = ScannerSpec.for_scanner(built)
        assert spec.kind == kind
        assert ScannerSpec.for_scanner(spec.build(quantizer)) == spec
        ours = built.scan(tables, partition, topk=10)
        theirs = spec.build(quantizer).scan(tables, partition, topk=10)
        assert ours.ids.tobytes() == theirs.ids.tobytes()
        assert ours.distances.tobytes() == theirs.distances.tobytes()
        assert (ours.n_scanned, ours.n_pruned) == (
            theirs.n_scanned, theirs.n_pruned
        )


class TestExecutorEquivalence:
    """quickadc is approximate at the margin, so its reference is the
    one-shard thread engine, one query at a time: every executor answers
    like it byte for byte, and every distance it returns is the
    oracle's distance for that id."""

    def _assert_identical(self, a, b):
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ids, rb.ids)
            assert ra.distances.tobytes() == rb.distances.tobytes()
            assert ra.n_scanned == rb.n_scanned
            assert ra.n_pruned == rb.n_pruned
            assert ra.probed == rb.probed

    def _sequential(self, engine_over, index4bit, queries, nprobe):
        engine = engine_over(index4bit, "quickadc")
        seq = [engine.search(query, k=10, nprobe=nprobe) for query in queries]
        assert holds_oracle_distances(seq, index4bit, queries, nprobe)
        return seq

    @pytest.mark.parametrize("nprobe", [1, 2])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_batch_identical_to_sequential(
        self, index4bit, batch_queries4, nprobe, n_shards, engine_over
    ):
        """The thread engine, on one shard or several."""
        seq = self._sequential(engine_over, index4bit, batch_queries4, nprobe)
        engine = engine_over(index4bit, "quickadc", n_shards=n_shards)
        self._assert_identical(seq, engine.search(batch_queries4, k=10, nprobe=nprobe))

    @pytest.mark.parametrize("nprobe", [1, 2])
    def test_process_identical_to_sequential(
        self, index4bit, batch_queries4, nprobe, engine_over
    ):
        seq = self._sequential(engine_over, index4bit, batch_queries4, nprobe)
        engine = engine_over(index4bit, "quickadc", executor="process", n_workers=2)
        self._assert_identical(seq, engine.search(batch_queries4, k=10, nprobe=nprobe))

    def test_sharded_identical_to_sequential(
        self, index4bit, batch_queries4, engine_over
    ):
        """Two process shards."""
        seq = self._sequential(engine_over, index4bit, batch_queries4, 2)
        engine = engine_over(index4bit, "quickadc", executor="process", n_shards=2)
        self._assert_identical(seq, engine.search(batch_queries4, k=10, nprobe=2))


class TestSanitizer:
    def test_corrupt_codes_rejected_at_packing(self, pq4, routed4):
        """Fresh corruption is caught by the layout's own validation."""
        partition, tables = routed4
        corrupt_codes = partition.codes.copy()
        corrupt_codes[3, 2] = 99  # not a nibble
        corrupt = Partition(corrupt_codes, partition.ids.copy(), 0)
        with pytest.raises(ConfigurationError, match="sub-indexes"):
            QuickADCScanner(pq4, keep=0.01).scan(tables, corrupt, topk=5)

    def test_nibble_invariant_catches_corruption_after_packing(
        self, pq4, routed4, monkeypatch
    ):
        """Codes corrupted *after* the layout was prepared and cached —
        the scenario only the runtime sanitizer can see."""
        partition, tables = routed4
        codes = partition.codes.copy()
        mutable = Partition(codes, partition.ids.copy(), 0)
        scanner = QuickADCScanner(pq4, keep=0.01)
        assert scanner.warm([mutable]) == 1  # packs the still-valid codes
        codes[3, 2] = 99  # not a nibble
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(InvariantViolation, match="nibble range"):
            scanner.scan(tables, mutable, topk=5)

    def test_wrapped_table_entry_is_caught(self):
        check_saturation_invariant(np.array([[0, 127]], dtype=np.int8))
        with pytest.raises(InvariantViolation, match="wrapped"):
            check_saturation_invariant(
                np.array([[5, -128]], dtype=np.int8), context="quickadc partition 0"
            )

    def test_clean_scan_passes_under_sanitizer(
        self, pq4, routed4, monkeypatch
    ):
        partition, tables = routed4
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        scanner = QuickADCScanner(pq4, keep=0.01)
        result = scanner.scan(tables, partition, topk=5)
        monkeypatch.delenv("REPRO_SANITIZE")
        unsanitized = scanner.scan(tables, partition, topk=5)
        np.testing.assert_array_equal(result.ids, unsanitized.ids)
        assert result.distances.tobytes() == unsanitized.distances.tobytes()
