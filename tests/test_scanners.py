"""One suite over ``SCANNER_KINDS``: every exact kind answers like
``NaiveScanner`` byte for byte, through every entry point of the contract.
Figure 17's quantization-only scanner, no engine kind, is held to the
same contract where it has one: the scan itself."""

import numpy as np
import pytest

from repro import Partition
from repro.engine import SCANNER_KINDS
from repro.exceptions import DimensionMismatchError
from repro.parallel import ScannerSpec
from repro.scan import NaiveScanner, PartitionScanner, ScanBlock
from repro.scan.base import NO_IDS
from repro.shard import ScatterGatherExecutor, ShardedIndex

from .conftest import build_scanner
from .oracle import oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")

#: quickadc scans 4-bit codes and is approximate at the margin: its
#: reference is its own one-shard engine, in tests/test_quickadc.py and
#: tests/test_oracle.py.
EXACT_KINDS = [kind for kind in SCANNER_KINDS if kind != "quickadc"]
#: The exact kinds, and Figure 17's quantization-only scanner, which is
#: exact too but no engine kind.
EXACT_SCANNERS = [*EXACT_KINDS, "qonly"]


def assert_same_bytes(got, reference):
    assert len(got) == len(reference)
    for ours, theirs in zip(got, reference):
        assert ours.ids.dtype == theirs.ids.dtype
        assert ours.ids.tobytes() == theirs.ids.tobytes()
        assert ours.distances.tobytes() == theirs.distances.tobytes()
        assert ours.n_scanned == theirs.n_scanned


class _ScanBatchOnly(PartitionScanner):
    """What a user-defined scanner is: ``scan_batch`` and nothing else."""

    name = "scan-batch-only"

    def scan_batch(self, tables, partition, topk=1, tombstones=NO_IDS):
        return [NaiveScanner().scan(row, partition, topk, tombstones) for row in tables]


class _Recording(NaiveScanner):
    """A subclass that overrides ``scan_batch`` and nothing else."""

    def __init__(self):
        self.calls = 0

    def scan_batch(self, tables, partition, topk=1, tombstones=NO_IDS):
        self.calls += 1
        return super().scan_batch(tables, partition, topk, tombstones)


class TestScannerRegistry:
    def test_kinds_are_the_names_the_spec_builds(self, pq, pq4):
        built = [
            ScannerSpec(kind).build(pq4 if kind == "quickadc" else pq)
            for kind in SCANNER_KINDS
        ]
        assert [scanner.name for scanner in built] == list(SCANNER_KINDS)
        assert SCANNER_KINDS == ("naive", "fastpq", "quickadc")

    def test_scan_batch_only_subclass_gets_scan_and_warm(self, index, dataset):
        scanner = _ScanBatchOnly()
        assert scanner.warm(index.partitions) == 0
        query = dataset.queries[0]
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        assert_same_bytes(
            [scanner.scan(tables, index.partitions[pid], topk=10)],
            [NaiveScanner().scan(tables, index.partitions[pid], topk=10)],
        )
        got = TestOneQueryPath._run_shards(index, scanner, dataset.queries, n_shards=1)
        assert same_as_oracle(got.results, oracle_search(index, dataset.queries, 5, 2))


class TestOneQueryPath:
    """``scan_batch`` is the scanner: the one-query ``scan`` and every
    search path run a subclass's override, whichever method it names."""

    def test_every_path_runs_the_scan_batch_override(self, index, dataset):
        scanner = _Recording()
        query = dataset.queries[0]
        pid = index.route(query)[0]
        scanner.scan(index.distance_tables_for(query, pid), index.partitions[pid])
        assert scanner.calls == 1
        queries = dataset.queries[:3]
        paths = {
            "one shard": lambda: self._run_shards(index, scanner, queries, n_shards=1),
            "thread shards": lambda: self._run_shards(index, scanner, queries),
        }
        for name, search in paths.items():
            before = scanner.calls
            search()
            assert scanner.calls > before, name

    @staticmethod
    def _run_shards(index, scanner, queries, n_shards=2):
        """The pipeline an engine runs, over thread shards: a custom
        scanner has no engine kind."""
        sharded = ShardedIndex.from_index(index, n_shards=n_shards)
        with ScatterGatherExecutor(
            sharded, [scanner] * n_shards, backend="thread"
        ) as executor:
            return executor.run(queries, topk=5, nprobe=2)


class TestMalformedTables:
    @pytest.mark.parametrize("kind", ["fastpq", "qonly", "quickadc"])
    def test_a_stack_of_the_wrong_shape_is_refused(
        self, kind, pq, pq4, index, index4bit, dataset
    ):
        """A stateful scanner knows its ``(m, k*)``: a stack of another
        rank or shape is a :class:`DimensionMismatchError` naming what
        is wrong, before any table is indexed."""
        pq, index = (pq4, index4bit) if kind == "quickadc" else (pq, index)
        scanner = build_scanner(kind, pq)
        query = dataset.queries[0]
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        m, ksub = tables.shape
        cases = {
            "one query's tables": (tables, (3, 2)),
            "narrow tables": (tables[None, :, :10], (m * ksub, m * 10)),
            "too few components": (tables[None, :-1], (m * ksub, (m - 1) * ksub)),
        }
        for name, (stack, (expected, actual)) in cases.items():
            with pytest.raises(DimensionMismatchError) as raised:
                scanner.scan_batch(stack, index.partitions[pid], topk=5)
            assert (raised.value.expected, raised.value.actual) == (
                expected, actual
            ), name


class TestScannerAgreement:
    @pytest.mark.parametrize("name", EXACT_SCANNERS)
    def test_matches_naive(self, name, pq, index, partition, dataset):
        """``scan``, ``scan_batch`` packed as the executors pack it and the scanner
        rebuilt from its spec (a kind's) or built anew (qonly), on ragged
        sizes, with ``topk`` below, at and above the partition size, for a
        batch of 1 and of 5."""
        scanner = build_scanner(name, pq, keep=0.05)
        if name == "qonly":
            rebuilt = build_scanner(name, pq, keep=0.05)
        else:
            rebuilt = ScannerSpec.for_scanner(scanner).build(pq)
        assert type(rebuilt) is type(scanner) and rebuilt is not scanner
        stack = index.distance_tables_for_batch(
            dataset.queries[:5], partition.partition_id
        )
        for n in (0, 1, 7, 9, 200):
            ragged = Partition(partition.codes[:n], partition.ids[:n])
            for topk in sorted({1, max(n, 1), n + 3}):
                reference = [NaiveScanner().scan(t, ragged, topk=topk) for t in stack]
                for one in (scanner, rebuilt):
                    scans = [one.scan(t, ragged, topk=topk) for t in stack]
                    assert_same_bytes(scans, reference)
                for b in (1, 5):
                    block = ScanBlock.pack(scanner.scan_batch(stack[:b], ragged, topk))
                    assert_same_bytes(list(block), reference[:b])

    @pytest.mark.parametrize("topk", [1, 3, 100])
    def test_topk_sizes(self, topk, tables, partition):
        result = NaiveScanner().scan(tables, partition, topk=topk)
        assert len(result.ids) == min(topk, len(partition))
        assert (np.diff(result.distances) >= -1e-12).all()

    def test_scalar_reference_paths(self, tables, partition):
        """The literal Algorithm-1 loop agrees with the vectorized scan."""
        sample = Partition(partition.codes[:200], partition.ids[:200])
        scanner = NaiveScanner()
        fast = scanner.scan(tables, sample, topk=5)
        slow = scanner.scan_scalar(tables, sample, topk=5)
        assert fast.same_neighbors(slow)

    def test_result_distances_are_adc(self, tables, partition, pq):
        from repro.pq.adc import adc_distances

        result = NaiveScanner().scan(tables, partition, topk=5)
        id_to_row = {int(i): r for r, i in enumerate(partition.ids)}
        rows = [id_to_row[int(i)] for i in result.ids]
        expected = adc_distances(tables, partition.codes[rows])
        np.testing.assert_allclose(result.distances, expected, rtol=1e-12)

    def test_empty_partition(self, tables, pq):
        empty = Partition(np.zeros((0, 8), dtype=np.uint8), np.zeros(0))
        for kind in EXACT_SCANNERS:
            result = build_scanner(kind, pq).scan(tables, empty, topk=5)
            assert len(result.ids) == 0, kind
            assert result.n_scanned == 0
