"""Unit tests for the IVFADC index (Section 2.2, Algorithm 1 steps 1-2)."""

import numpy as np
import pytest

from repro import (
    ANNSearcher,
    Engine,
    EngineConfig,
    IVFADCIndex,
    PQFastScanner,
    ProductQuantizer,
    ShardedIndex,
)
from repro.exceptions import (
    ConfigurationError,
    DatasetError,
    DimensionMismatchError,
    NotFittedError,
)
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


class TestStepTwoInTwoHalves:
    """Step 2 is a query half (built per block), a cell half (built per
    index) and a combine; every table the library scans comes out of
    that one combine, whatever block the query half was built over."""

    @pytest.fixture(
        scope="class",
        params=[(8, True), (8, False), (4, True), (4, False)],
        ids=["8x8-residual", "8x8-raw", "16x4-residual", "16x4-raw"],
    )
    def built(self, request, dataset, pq, pq4):
        bits, residuals = request.param
        index = IVFADCIndex(
            pq if bits == 8 else pq4,
            n_partitions=6,
            encode_residuals=residuals,
            coarse_max_iter=3,
            seed=4,
        ).add(dataset.base[:1500])
        rng = np.random.default_rng(7)
        queries = dataset.base[2000:2128] + rng.normal(scale=3.0, size=(128, 128))
        return index, queries

    @staticmethod
    def layouts(queries):
        """The same 128 rows as blocks a caller may hand in."""
        wide = np.repeat(queries, 2, axis=0)
        perm = np.random.default_rng(3).permutation(len(queries))
        return {
            "contiguous": queries,
            "sliced": wide[::2],
            "gathered": queries[perm][np.argsort(perm)],
            "fortran": np.asfortranarray(queries),
            "columns": np.repeat(queries, 2, axis=1)[:, ::2],
        }

    @pytest.mark.parametrize("b", [1, 2, 5, 33, 128])
    def test_rows_of_a_larger_block_equal_the_block_of_those_rows(self, built, b):
        index, queries = built
        rng = np.random.default_rng(b)
        rows = rng.permutation(len(queries))[:b]
        for pid in (0, index.n_partitions - 1):
            expected = index.distance_tables_for_batch(queries[rows], pid)
            assert expected.dtype == np.float64
            assert expected.shape == (b, index.pq.m, index.pq.ksub)
            assert expected.flags.c_contiguous
            single = index.distance_tables_for(queries[rows[-1]], pid)
            assert single.tobytes() == expected[-1].tobytes()
            for name, block in self.layouts(queries).items():
                half = index.query_half(block)
                got = index.tables_from_halves(block, half, rows, pid)
                assert got.tobytes() == expected.tobytes(), name
                assert (
                    index.distance_tables_for_batch(block[rows], pid).tobytes()
                    == expected.tobytes()
                ), name

    def test_float32_blocks_give_the_tables_of_their_float64_values(self, built):
        index, queries = built
        narrow = queries.astype(np.float32)
        rows = np.array([5, 77, 3])
        expected = index.distance_tables_for_batch(narrow.astype(np.float64)[rows], 2)
        for block in (narrow, np.asfortranarray(narrow)):
            got = index.tables_from_halves(block, index.query_half(block), rows, 2)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()

    def test_the_numbers_are_the_definitions(self, built):
        """Without residuals the PQ-only tables bit for bit; with them
        the tables of the shifted query, to the last few ulps of the
        largest entry (the three terms are summed in another order)."""
        index, queries = built
        for pid in range(index.n_partitions):
            tables = index.distance_tables_for_batch(queries, pid)
            assert (tables >= 0).all()
            if not index.encode_residuals:
                raw = index.pq.distance_tables_batch(queries)
                assert tables.tobytes() == raw.tobytes()
                continue
            definition = index.pq.distance_tables_batch(
                queries - index.coarse.codebook[pid]
            )
            assert np.abs(tables - definition).max() <= 1e-12 * definition.max()

    def test_the_cell_half_is_not_stale(self, built, dataset):
        index, queries = built
        pq = ProductQuantizer.from_codebooks(index.pq.codebooks)
        mine = IVFADCIndex.from_parts(
            pq, index.coarse, index.partitions,
            encode_residuals=index.encode_residuals, coarse_max_iter=2,
        )
        before = mine.distance_tables_for_batch(queries[:4], 1)
        cells = mine.cell_half
        assert mine.cell_half is cells  # built once, not per call
        order = np.random.default_rng(0).permutation(pq.ksub)
        pq.permute_subquantizer(1, order)
        permuted = mine.distance_tables_for_batch(queries[:4], 1)
        assert permuted[:, 1].tobytes() == before[:, 1][:, order].tobytes()
        assert permuted[:, 0].tobytes() == before[:, 0].tobytes()
        mine.train_coarse(dataset.base[3000:4000])
        fresh = IVFADCIndex.from_parts(
            pq, mine.coarse, index.partitions,
            encode_residuals=index.encode_residuals,
        )
        retrained = mine.distance_tables_for_batch(queries[:4], 1)
        assert retrained.tobytes() == fresh.distance_tables_for_batch(
            queries[:4], 1
        ).tobytes()
        assert (retrained.tobytes() != permuted.tobytes()) == index.encode_residuals

    def test_one_cell_half_per_pair_of_quantizers(self, built):
        """Derived indexes share it by identity: compaction epochs, the
        shards of one index and their global view."""
        index, queries = built
        cells = index.cell_half
        assert cells.shape == (index.n_partitions, index.pq.m, index.pq.ksub)
        assert cells.dtype == np.float64
        assert index.with_partitions(index.partitions[::-1]).cell_half is cells
        sharded = ShardedIndex.from_index(index, n_shards=3)
        assert sharded.global_view.cell_half is cells
        assert all(shard.index.cell_half is cells for shard in sharded.shards)
        config = EngineConfig(
            scanner="naive", mutable=True, nprobe=2,
            encode_residuals=index.encode_residuals,
            m=index.pq.m, bits=index.pq.bits, n_partitions=index.n_partitions,
        )
        with Engine(index.with_partitions(index.partitions), config) as engine:
            engine.add(queries[:3], np.array([10**6, 10**6 + 1, 10**6 + 2]))
            engine.delete(np.array([0, 1]))
            engine.compact()
            assert engine.index.generation == index.generation + 1
            assert engine.index.cell_half is cells
            engine.search(queries[:4], k=3)

    def test_the_door(self, built):
        """-1 answered with the last cell's tables at the parent, the
        cell count raised numpy's IndexError, a wrong width numpy's
        broadcast error."""
        index, queries = built
        sharded = ShardedIndex.from_index(index, n_shards=2)
        for pid in (-1, index.n_partitions, index.n_partitions + 7):
            for tables_for in (
                index.distance_tables_for_batch,
                sharded.distance_tables_for_batch,
            ):
                with pytest.raises(
                    ConfigurationError,
                    match=rf"partition_id must be in \[0, {index.n_partitions}\)",
                ):
                    tables_for(queries[:2], pid)
            with pytest.raises(ConfigurationError, match="partition_id must be in"):
                index.distance_tables_for(queries[0], pid)
        for tables_for in (
            index.distance_tables_for_batch,
            sharded.distance_tables_for_batch,
        ):
            with pytest.raises(DimensionMismatchError, match="expected 128, got 64"):
                tables_for(queries[:2, :64], 0)
        with pytest.raises(DimensionMismatchError, match="expected 128, got 64"):
            index.distance_tables_for(queries[0, :64], 0)
        with pytest.raises(DimensionMismatchError, match="expected 128, got 64"):
            index.query_half(queries[:, :64])
