"""Unit tests for the IVFADC index (Section 2.2, Algorithm 1 steps 1-2)."""

import numpy as np
import pytest

from repro import ANNSearcher, IVFADCIndex, PQFastScanner, ProductQuantizer
from repro.exceptions import ConfigurationError, DatasetError, NotFittedError
from repro.ivf.inverted_index import as_database_ids
from repro.ivf.partition import Partition
from repro.pq.adc import adc_distances


class TestPartition:
    def test_length_and_m(self):
        p = Partition(np.zeros((10, 8), dtype=np.uint8), np.arange(10))
        assert len(p) == 10
        assert p.m == 8
        assert p.nbytes == 80

    def test_take_prefix(self):
        codes = np.arange(80, dtype=np.uint8).reshape(10, 8)
        p = Partition(codes, np.arange(10), partition_id=3)
        prefix = p.take(4)
        assert len(prefix) == 4
        assert prefix.partition_id == 3
        np.testing.assert_array_equal(prefix.codes, codes[:4])

    def test_rejects_mismatched_ids(self):
        with pytest.raises(DatasetError):
            Partition(np.zeros((5, 8), dtype=np.uint8), np.arange(4))

    def test_rejects_1d_codes(self):
        with pytest.raises(DatasetError):
            Partition(np.zeros(5, dtype=np.uint8), np.arange(5))


class TestIVFADCIndex:
    def test_partitions_cover_database(self, index, dataset):
        sizes = index.partition_sizes()
        assert sizes.sum() == len(dataset.base)
        assert len(index) == len(dataset.base)

    def test_ids_are_disjoint_and_complete(self, index, dataset):
        all_ids = np.concatenate([p.ids for p in index.partitions])
        assert len(all_ids) == len(dataset.base)
        assert len(np.unique(all_ids)) == len(all_ids)

    def test_route_returns_nearest_cell(self, index, query):
        pid = index.route(query)[0]
        dists = index.coarse.distances_to_codebook(query)
        assert pid == int(np.argmin(dists))

    def test_route_nprobe_ordering(self, index, query):
        pids = index.route(query, nprobe=2)
        dists = index.coarse.distances_to_codebook(query)
        assert dists[pids[0]] <= dists[pids[1]]

    def test_route_rejects_bad_nprobe(self, index, query):
        with pytest.raises(ConfigurationError):
            index.route(query, nprobe=0)
        with pytest.raises(ConfigurationError):
            index.route(query, nprobe=99)

    def test_route_batch_matches_per_query_route(self, index, dataset):
        """The vectorized router is bitwise-equal to per-query routing."""
        probed = index.route_batch(dataset.queries, nprobe=2)
        assert probed.shape == (len(dataset.queries), 2)
        assert probed.dtype == np.int64
        for query, row in zip(dataset.queries, probed):
            assert index.route(query, nprobe=2) == [int(p) for p in row]

    def test_route_batch_rejects_bad_input(self, index, dataset):
        with pytest.raises(ConfigurationError):
            index.route_batch(dataset.queries, nprobe=0)
        with pytest.raises(ConfigurationError):
            index.route_batch(dataset.queries, nprobe=99)

    def test_distance_tables_batch_matches_per_query(self, index, dataset):
        """Batched residual tables are bitwise rows of the per-query call."""
        queries = dataset.queries[:4]
        for pid in range(index.n_partitions):
            batch = index.distance_tables_for_batch(queries, pid)
            assert batch.shape[0] == len(queries)
            for i, query in enumerate(queries):
                single = index.distance_tables_for(query, pid)
                assert batch[i].tobytes() == single.tobytes()

    def test_residual_tables_give_true_adc(self, index, pq, dataset, query):
        """Distance tables shifted per cell: ADC equals the distance to
        the residual reconstruction plus nothing else (exact ADC)."""
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        part = index.partitions[pid]
        adc = adc_distances(tables, part.codes[:50])
        residual_query = query - index.coarse.codebook[pid]
        recon = pq.decode(part.codes[:50])
        expected = np.sum((recon - residual_query) ** 2, axis=1)
        np.testing.assert_allclose(adc, expected, rtol=1e-9)

    def test_non_residual_mode(self, pq, dataset, query):
        idx = IVFADCIndex(pq, n_partitions=2, encode_residuals=False, seed=2)
        idx.add(dataset.base[:2000])
        pid = idx.route(query)[0]
        t1 = idx.distance_tables_for(query, pid)
        t2 = pq.distance_tables(query)
        np.testing.assert_allclose(t1, t2)

    def test_requires_fitted_pq(self):
        with pytest.raises(NotFittedError):
            IVFADCIndex(ProductQuantizer(), n_partitions=2)

    def test_partitions_before_add_raises(self, pq):
        idx = IVFADCIndex(pq, n_partitions=2)
        with pytest.raises(NotFittedError):
            _ = idx.partitions

    def test_custom_ids(self, pq, dataset):
        ids = np.arange(1000, 3000)
        idx = IVFADCIndex(pq, n_partitions=2, seed=2).add(dataset.base[:2000], ids)
        all_ids = np.concatenate([p.ids for p in idx.partitions])
        assert set(all_ids.tolist()) == set(ids.tolist())

    def test_ids_length_mismatch(self, pq, dataset):
        with pytest.raises(ConfigurationError):
            IVFADCIndex(pq, n_partitions=2).add(
                dataset.base[:100], np.arange(99)
            )

    def test_encode_is_the_builds_own_step(self, index, dataset):
        # add() ends in encode(): every row sits in the partition encode()
        # routes it to and carries the code encode() gives it.
        labels, codes = index.encode(dataset.base[:500])
        for pid, part in enumerate(index.partitions):
            rows = np.flatnonzero(labels == pid)
            at = np.searchsorted(part.ids, rows)  # built with ids = arange
            assert np.array_equal(part.ids[at], rows)
            assert np.array_equal(np.asarray(part.codes)[at], codes[rows])

    def test_from_parts_wraps_what_already_exists(self, index):
        rebuilt = IVFADCIndex.from_parts(
            index.pq, index.coarse, index.partitions[::-1], generation=3
        )
        assert rebuilt.partitions[0] is index.partitions[1]
        assert len(rebuilt) == len(index)
        assert (rebuilt.n_partitions, rebuilt.generation) == (2, 3)
        half = index.with_partitions(
            [index.partitions[0], index.partitions[1].take(0)]
        )
        assert len(half) == len(index.partitions[0])
        assert half.coarse is index.coarse and half.seed == index.seed
        assert half.generation == index.generation


class TestOutsideInputRefusedAtTheDoor:
    """Ids are checked, not cast; rows and queries must be finite."""

    @pytest.mark.parametrize(
        "ids",
        [np.array([1.5]), np.array([2.0]), np.array(["7"]), np.array([True]),
         [0.5]],
        ids=["float", "integral-float", "str", "bool", "list-of-float"],
    )
    def test_ids_that_are_not_integers(self, pq, dataset, ids):
        with pytest.raises(ConfigurationError, match="integers, got dtype"):
            as_database_ids(ids)
        with pytest.raises(ConfigurationError, match="integers, got dtype"):
            IVFADCIndex(pq, n_partitions=1).add(dataset.base[:1], ids)

    @pytest.mark.parametrize(
        "ids", [[3, 1], np.array([3, 1], np.uint8), np.array([[3], [1]]), []],
        ids=["list", "uint8", "column", "empty-float"],
    )
    def test_integer_ids_pass_as_flat_int64(self, ids):
        out = as_database_ids(ids)
        assert out.dtype == np.int64 and out.ndim == 1
        assert out.tolist() == np.asarray(ids).reshape(-1).tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_not_encoded(self, index, dataset, bad):
        rows = dataset.base[:3].copy()
        rows[1, 5] = bad
        with pytest.raises(ConfigurationError, match="vectors must be finite"):
            index.encode(rows)
        with pytest.raises(ConfigurationError, match="vectors must be finite"):
            index.with_partitions(index.partitions).add(rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries_are_not_routed(self, index, pq, dataset, bad):
        queries = dataset.queries[:3].copy()
        queries[2, 0] = bad
        with pytest.raises(ConfigurationError, match="queries must be finite"):
            index.route_batch(queries, nprobe=2)
        with pytest.raises(ConfigurationError, match="queries must be finite"):
            index.route(queries[2])
        # The per-query loop routes through route(): IndexError at the
        # parent on fastpq, PAD_ID as a neighbour on naive.
        with ANNSearcher(index, PQFastScanner(pq, keep=0.01)) as searcher:
            for executor in ("sequential", "batch"):
                with pytest.raises(ConfigurationError, match="must be finite"):
                    searcher.search(queries, topk=5, executor=executor)
            with pytest.raises(ConfigurationError, match="must be finite"):
                searcher.search(queries[2], topk=5)
