"""One suite over ``SCANNER_KINDS``: every exact kind answers like
``NaiveScanner`` byte for byte, through every entry point of the contract."""

import numpy as np
import pytest

from repro import BatchExecutor, Partition
from repro.engine import SCANNER_KINDS
from repro.parallel import ScannerSpec
from repro.scan import LibpqScanner, NaiveScanner, PartitionScanner
from repro.search import _scan_block

#: quickadc scans 4-bit codes and is approximate at the margin: its
#: reference is its own sequential scan, in tests/test_quickadc.py.
EXACT_KINDS = [kind for kind in SCANNER_KINDS if kind != "quickadc"]


def assert_same_bytes(got, reference):
    assert len(got) == len(reference)
    for ours, theirs in zip(got, reference):
        assert ours.ids.dtype == theirs.ids.dtype
        assert ours.ids.tobytes() == theirs.ids.tobytes()
        assert ours.distances.tobytes() == theirs.distances.tobytes()
        assert ours.n_scanned == theirs.n_scanned


class _ScanOnly(PartitionScanner):
    """What a user-defined scanner is: ``scan`` and nothing else."""

    name = "scan-only"

    def scan(self, tables, partition, topk=1):
        return NaiveScanner().scan(tables, partition, topk=topk)


class TestScannerRegistry:
    def test_kinds_are_the_names_the_spec_builds(self, pq, pq4):
        built = [
            ScannerSpec(kind).build(pq4 if kind == "quickadc" else pq)
            for kind in SCANNER_KINDS
        ]
        assert [scanner.name for scanner in built] == list(SCANNER_KINDS)
        assert len(set(SCANNER_KINDS)) == 5

    def test_scan_only_subclass_inherits_the_contract(self, index, dataset):
        scanner = _ScanOnly()
        assert scanner.warm(index.partitions) == 0
        with BatchExecutor(index, scanner) as ours, BatchExecutor(
            index, NaiveScanner()
        ) as reference:
            assert_same_bytes(
                ours.run(dataset.queries, topk=10, nprobe=2),
                reference.run(dataset.queries, topk=10, nprobe=2),
            )


class TestScannerAgreement:
    @pytest.mark.parametrize("name", EXACT_KINDS)
    def test_matches_naive(self, name, pq, index, partition, dataset):
        """``scan``, ``scan_batch`` through ``_scan_block`` and the scanner
        rebuilt from its spec, on ragged sizes, with ``topk`` below, at
        and above the partition size, for a batch of 1 and of 5."""
        scanner = ScannerSpec(name, keep=0.05).build(pq)
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
                    block = _scan_block(scanner, stack[:b], ragged, topk)
                    assert_same_bytes(list(block), reference[:b])

    @pytest.mark.parametrize("topk", [1, 3, 100])
    def test_topk_sizes(self, topk, tables, partition):
        result = NaiveScanner().scan(tables, partition, topk=topk)
        assert len(result.ids) == min(topk, len(partition))
        assert (np.diff(result.distances) >= -1e-12).all()

    def test_scalar_reference_paths(self, tables, partition):
        """The literal Algorithm-1 loops agree with the vectorized scans."""
        sample = Partition(partition.codes[:200], partition.ids[:200])
        for scanner in (NaiveScanner(), LibpqScanner()):
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
        for kind in EXACT_KINDS:
            result = ScannerSpec(kind).build(pq).scan(tables, empty, topk=5)
            assert len(result.ids) == 0, kind
            assert result.n_scanned == 0
