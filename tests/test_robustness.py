"""Robustness and failure-injection tests across the pipeline."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    DistanceQuantizer,
    Partition,
    PQFastScanner,
    ProductQuantizer,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.scan import LibpqScanner, NaiveScanner


class TestAdversarialInputs:
    def test_nan_tables_rejected_by_quantizer(self):
        tables = np.full((8, 256), np.nan)
        with pytest.raises(ConfigurationError):
            DistanceQuantizer.from_tables(tables, qmax=1.0)

    def test_all_identical_codes(self, pq, tables):
        """A degenerate partition where every vector is the same code."""
        codes = np.tile(np.arange(8, dtype=np.uint8), (500, 1))
        part = Partition(codes, np.arange(500))
        ref = NaiveScanner().scan(tables, part, topk=10)
        scanner = PQFastScanner(pq, keep=0.01, group_components=2, seed=0)
        got = scanner.scan(tables, part, topk=10)
        assert got.same_neighbors(ref)
        # Ties resolved by id: the 10 smallest ids win.
        np.testing.assert_array_equal(ref.ids, np.arange(10))

    def test_zero_distance_tables(self, pq):
        """All-zero tables: every distance is 0; exactness must hold."""
        tables = np.zeros((8, 256))
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 256, (300, 8)).astype(np.uint8)
        part = Partition(codes, np.arange(300))
        scanner = PQFastScanner(pq, keep=0.02, group_components=1, seed=0)
        ref = NaiveScanner().scan(tables, part, topk=7)
        assert scanner.scan(tables, part, topk=7).same_neighbors(ref)

    def test_extreme_magnitude_tables(self, pq):
        """Huge dynamic range stresses the 8-bit quantization."""
        rng = np.random.default_rng(1)
        tables = rng.uniform(0, 1, (8, 256))
        tables[0, :16] = 1e12  # one catastrophic portion
        codes = rng.integers(0, 256, (400, 8)).astype(np.uint8)
        part = Partition(codes, np.arange(400))
        scanner = PQFastScanner(pq, keep=0.02, group_components=2, seed=0)
        ref = NaiveScanner().scan(tables, part, topk=5)
        assert scanner.scan(tables, part, topk=5).same_neighbors(ref)

    def test_topk_equals_partition_size(self, tables, partition, pq):
        small = Partition(partition.codes[:50], partition.ids[:50])
        scanner = PQFastScanner(pq, keep=0.1, group_components=1, seed=0)
        ref = NaiveScanner().scan(tables, small, topk=50)
        got = scanner.scan(tables, small, topk=50)
        assert got.same_neighbors(ref)
        assert len(got.ids) == 50

    def test_topk_larger_than_partition(self, tables, partition, pq):
        small = Partition(partition.codes[:20], partition.ids[:20])
        for cls in (NaiveScanner, LibpqScanner):
            result = cls().scan(tables, small, topk=100)
            assert len(result.ids) == 20, cls.name


class TestConcurrency:
    def test_concurrent_scans_are_exact(self, pq, tables, partition):
        """The scanner is shared across threads in the bandwidth
        benchmark; concurrent use must not corrupt results (the
        prepared-partition cache is the shared state)."""
        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        expected = scanner.scan(tables, partition, topk=20)

        def run(_):
            return scanner.scan(tables, partition, topk=20)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(8)))
        for result in results:
            assert result.same_neighbors(expected)


class TestErrorHierarchy:
    def test_every_raise_is_reproerror(self, pq):
        """Library call sites raise subclasses of ReproError so callers
        can catch one type."""
        failures = [
            lambda: PQFastScanner(ProductQuantizer()),
            lambda: DistanceQuantizer(qmin=2.0, qmax=1.0),
            lambda: Partition(np.zeros((2, 8), dtype=np.uint8), np.zeros(3)),
            lambda: PQFastScanner(pq, keep=7.0),
        ]
        for fail in failures:
            with pytest.raises(ReproError):
                fail()
