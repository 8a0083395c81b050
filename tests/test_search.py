"""Tests for the high-level ANN search API (route + scan + merge)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ANNSearcher, NaiveScanner, PQFastScanner
from repro.exceptions import ConfigurationError, DimensionMismatchError

from .oracle import oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")


@pytest.fixture(scope="module")
def searcher(index, pq):
    return ANNSearcher(index, scanner=PQFastScanner(pq, keep=0.01, seed=0))


@pytest.fixture(scope="module")
def reference(index):
    return ANNSearcher(index, scanner=NaiveScanner())


class TestANNSearcher:
    """The per-query loop, checked against the brute-force oracle; it
    refuses every executor but its own, naming the engine."""

    @pytest.mark.parametrize("executor", ["batch", "sequential"])
    @pytest.mark.parametrize("shape", ["1-D query", "empty batch"])
    def test_checks_run_before_any_shape_branch(
        self, searcher, index, shape, executor
    ):
        """``topk``, ``executor`` and the query width are refused for
        every shape, an empty batch too, as ``Engine.search`` refuses
        them; a batch executor is refused with the engine's name."""
        make = {
            "1-D query": lambda width: np.zeros(width),
            "empty batch": lambda width: np.empty((0, width)),
        }[shape]
        d = index.pq.d
        with pytest.raises(ConfigurationError, match="topk"):
            searcher.search(make(d), topk=0, executor=executor)
        if executor == "batch":
            with pytest.raises(ConfigurationError, match=r"Engine\(index, config\)"):
                searcher.search(make(d), topk=10, executor=executor)
        else:
            with pytest.raises(DimensionMismatchError):
                searcher.search(make(d // 2), topk=10, executor=executor)
        with pytest.raises(ConfigurationError, match="per-query loop only"):
            searcher.search(make(d), topk=10, executor=f"{executor}-bogus")

    def test_single_probe_matches_partition_scan(
        self, searcher, index, dataset
    ):
        query = dataset.queries[0]
        result = searcher.search(query, topk=10, nprobe=1)
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        direct = searcher.scanner.scan(tables, index.partitions[pid], topk=10)
        np.testing.assert_array_equal(result.ids, direct.ids)
        assert result.probed == (pid,)

    def test_fast_equals_reference_for_all_nprobe(
        self, searcher, reference, dataset, index
    ):
        for nprobe in (1, 2):
            expected = oracle_search(index, dataset.queries, 10, nprobe)
            for shim in (searcher, reference):
                got = shim.search(dataset.queries, topk=10, nprobe=nprobe)
                assert same_as_oracle(got, expected), (shim.scanner.name, nprobe)

    def test_more_probes_never_worse(self, reference, dataset, index):
        """nprobe=all is exhaustive: distances only improve with probes."""
        query = dataset.queries[1]
        one = reference.search(query, topk=5, nprobe=1)
        both = reference.search(query, topk=5, nprobe=index.n_partitions)
        assert both.distances[0] <= one.distances[0] + 1e-12
        assert both.n_scanned >= one.n_scanned

    def test_full_probe_matches_brute_force_adc(self, reference, dataset, index):
        """Probing every partition = ADC over the whole database."""
        got = reference.search(dataset.queries[2], topk=10, nprobe=index.n_partitions)
        expected = oracle_search(index, dataset.queries[2], 10, index.n_partitions)
        assert same_as_oracle([got], expected)

    def test_merged_results_sorted(self, searcher, dataset):
        result = searcher.search(dataset.queries[3], topk=20, nprobe=2)
        assert (np.diff(result.distances) >= -1e-12).all()
        assert len(result.ids) == 20

    def test_pruning_stats_aggregate(self, searcher, dataset):
        result = searcher.search(dataset.queries[0], topk=10, nprobe=2)
        assert result.n_scanned > 0
        assert 0 <= result.pruned_fraction <= 1

    def test_batch_search(self, searcher, dataset):
        """A batch is a loop over its rows: the per-row answers."""
        results = searcher.search(dataset.queries[:3], topk=5)
        assert len(results) == 3
        for query, r in zip(dataset.queries, results):
            assert len(r.ids) == 5
            single = searcher.search(query, topk=5)
            assert same_as_oracle([r], [(single.ids, single.distances)])

    def test_rejects_bad_topk(self, searcher, dataset):
        with pytest.raises(ConfigurationError):
            searcher.search(dataset.queries[0], topk=0)


class TestExtensionPlatforms:
    def test_neon_platform_registered(self):
        from repro.simd import get_platform

        neon = get_platform("neon")
        assert neon.name == "cortex-a72"
        assert not neon.has_gather

    def test_fastscan_runs_on_neon(self, pq, tables, partition):
        from repro import Partition
        from repro.simd import fastscan_kernel

        scanner = PQFastScanner(pq, keep=0.01, group_components=1, seed=0)
        sample = Partition(partition.codes[:800], partition.ids[:800])
        grouped = scanner.prepare(sample)
        tables_r = scanner.assignment.remap_tables(tables)
        run = fastscan_kernel("neon", tables_r, grouped, topk=5, keep=0.01)
        ref = NaiveScanner().scan(tables, sample, topk=5)
        np.testing.assert_array_equal(run.topk_ids, ref.ids)


class TestReranking:
    """``Engine.search(..., rerank=)`` is the one re-ranking step."""

    def test_rerank_improves_rank1_recall(self, index, dataset, engine_over):
        from repro import exact_neighbors

        engine = engine_over(index, "fastpq", vectors=dataset.base)
        truth, _ = exact_neighbors(dataset.base, dataset.queries, k=1)
        plain = engine.search(dataset.queries, k=1, nprobe=2)
        reranked = engine.search(dataset.queries, k=1, nprobe=2, rerank=50)
        plain_hits = sum(int(r.ids[0] == t) for r, t in zip(plain, truth[:, 0]))
        rerank_hits = sum(int(r.ids[0] == t) for r, t in zip(reranked, truth[:, 0]))
        assert rerank_hits >= plain_hits

    def test_rerank_distances_are_exact(self, index, dataset, engine_over):
        engine = engine_over(index, vectors=dataset.base)
        query = dataset.queries[0]
        result = engine.search(query, k=5, nprobe=1, rerank=30)
        expected = np.sum((dataset.base[result.ids] - query) ** 2, axis=1)
        np.testing.assert_allclose(result.distances, expected, rtol=1e-9)
        assert (np.diff(result.distances) >= -1e-12).all()

    def test_rerank_requires_vectors(self, index, engine_over):
        with pytest.raises(ConfigurationError, match="keep_vectors"):
            engine_over(index).search(np.zeros(128), k=1, rerank=10)

    def test_rerank_shortlist_must_cover_topk(self, index, dataset, engine_over):
        engine = engine_over(index, vectors=dataset.base)
        with pytest.raises(ConfigurationError, match="shortlist"):
            engine.search(dataset.queries[0], k=10, rerank=5)


class TestTablesIgnoreTheCallersLayout:
    """A batch and its rows one at a time agree, and equal the oracle,
    whatever strides the caller's query block has: a row is a strided
    view, the batch path gathers a C-ordered copy."""

    @pytest.mark.parametrize("encode_residuals", [True, False])
    def test_sequential_equals_batch_for_any_query_layout(
        self, dataset, pq, encode_residuals, engine_over
    ):
        from repro import IVFADCIndex, VectorDataset

        index = IVFADCIndex(
            pq, n_partitions=4, encode_residuals=encode_residuals, seed=2
        ).add(dataset.base[:2000])
        queries = VectorDataset.synthetic(256, 256, 64, seed=5).queries
        wide = np.repeat(queries, 2, axis=1)
        layouts = {
            "c": np.ascontiguousarray(queries),
            "fortran": np.asfortranarray(queries),
            "strided": wide[:, ::2],
        }
        engine = engine_over(index)
        expected = oracle_search(index, queries, 10, 3)
        for name, block in layouts.items():
            assert same_as_oracle(engine.search(block, k=10, nprobe=3), expected), name
            one_by_one = [engine.search(row, k=10, nprobe=3) for row in block]
            assert same_as_oracle(one_by_one, expected), name


class TestPlanInversion:
    """One stable argsort gives the jobs the per-partition passes gave."""

    @staticmethod
    def jobs_per_partition_pass(probed):
        """The inversion this replaced: one ``probed == pid`` pass per
        distinct partition."""
        jobs = {}
        for pid in np.unique(probed):
            hit = probed == pid
            rows = np.flatnonzero(hit.any(axis=1))
            jobs[int(pid)] = (rows, hit[rows].argmax(axis=1))
        return jobs

    class _Routed:
        """As much of an index as the planner reads."""

        def __init__(self, probed, n_partitions):
            self.probed = probed
            self.partitions = [range(3 * (pid % 5)) for pid in range(n_partitions)]

        def route_batch(self, queries, nprobe=1):
            return self.probed

    @pytest.mark.parametrize("seed", range(8))
    def test_same_jobs_on_random_probes(self, seed):
        from repro.search import BatchPlanner

        rng = np.random.default_rng(seed)
        n_queries, n_partitions = int(rng.integers(1, 70)), int(rng.integers(1, 40))
        nprobe = int(rng.integers(1, n_partitions + 1))
        # A query probes distinct partitions, as routing guarantees.
        probed = np.stack(
            [rng.permutation(n_partitions)[:nprobe] for _ in range(n_queries)]
        ).astype(np.int64)
        index = self._Routed(probed, n_partitions)
        plan = BatchPlanner(index).plan(
            np.zeros((n_queries, 4)), topk=3, nprobe=nprobe
        )
        expected = self.jobs_per_partition_pass(probed)
        assert sorted(job.partition_id for job in plan.jobs) == sorted(expected)
        for job in plan.jobs:
            rows, positions = expected[job.partition_id]
            np.testing.assert_array_equal(job.query_rows, rows)
            np.testing.assert_array_equal(job.probe_positions, positions)
            assert job.query_rows.dtype == rows.dtype
            assert job.cost == len(rows) * max(len(index.partitions[job.partition_id]), 1)
        costs = [(-job.cost, job.partition_id) for job in plan.jobs]
        assert costs == sorted(costs)


class TestPackedMerge:
    """``StreamingMerger`` over packed parts is ``merge_partials`` over
    the union list grid, byte for byte."""

    @staticmethod
    def fingerprint(results):
        return [
            (r.ids.tobytes(), r.distances.tobytes(), r.ids.dtype, r.distances.dtype,
             r.n_scanned, r.n_pruned, r.probed)
            for r in results
        ]

    @staticmethod
    def plan_of(n_queries, nprobe, topk, rng):
        from repro.search import BatchPlan

        probed = np.stack(
            [rng.permutation(nprobe + 3)[:nprobe] for _ in range(n_queries)]
        ).astype(np.int64)
        return BatchPlan(
            queries=np.zeros((n_queries, 2)), topk=topk, nprobe=nprobe,
            probed=probed, jobs=(),
        )

    @staticmethod
    def cells(plan, rng, ids, *, share, n_values, empty_row):
        """A random list grid: each position holds a cell with
        probability ``share``, of 0..topk candidates drawn from the
        shared ``ids`` pool (database ids are unique), integer-valued
        distances (ties), sorted by (distance, id) like any scan."""
        from repro.scan import ScanResult, select_topk

        grid = [[None] * plan.nprobe for _ in range(plan.n_queries)]
        for row in range(plan.n_queries):
            if row == empty_row:
                continue
            for position in range(plan.nprobe):
                if rng.random() >= share:
                    continue
                n = int(rng.integers(0, plan.topk + 1))
                own = np.array([ids.pop() for _ in range(n)], dtype=np.int64)
                distances = rng.integers(0, n_values, n).astype(np.float64)
                cell_ids, cell_distances = select_topk(distances, own, max(n, 1))
                grid[row][position] = ScanResult(
                    cell_ids, cell_distances,
                    n_scanned=n + int(rng.integers(0, 9)),
                    n_pruned=int(rng.integers(0, 9)),
                )
        return grid

    @staticmethod
    def split(grid, n_parts, rng):
        """``grid``'s cells dealt over ``n_parts`` disjoint list grids."""
        parts = [[[None] * len(row) for row in grid] for _ in range(n_parts)]
        for r, row in enumerate(grid):
            for p, cell in enumerate(row):
                if cell is not None:
                    parts[int(rng.integers(n_parts))][r][p] = cell
        return parts

    @staticmethod
    def union(base, extras):
        """The list grid a barrier merge sees: an extra cell joins the
        base cell of its position (or stands alone where none landed)."""
        from repro.scan import ScanResult

        out = [list(row) for row in base]
        for extra in extras:
            for r, row in enumerate(extra):
                for p, more in enumerate(row):
                    held = out[r][p]
                    if more is None:
                        continue
                    out[r][p] = more if held is None else ScanResult(
                        np.concatenate([held.ids, more.ids]),
                        np.concatenate([held.distances, more.distances]),
                        held.n_scanned + more.n_scanned,
                        held.n_pruned + more.n_pruned,
                    )
        return out

    @given(
        n_queries=st.integers(1, 9),
        nprobe=st.integers(1, 5),
        topk=st.integers(1, 7),
        n_parts=st.integers(1, 4),
        n_extras=st.integers(0, 2),
        share=st.sampled_from([1.0, 1.0, 0.7, 0.3]),
        n_values=st.integers(1, 4),
        packed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_fold_order_equals_the_barrier_merge(
        self, n_queries, nprobe, topk, n_parts, n_extras, share, n_values, packed, seed
    ):
        from repro.exceptions import SimulationError
        from repro.search import PackedPartials, StreamingMerger, merge_partials

        rng = np.random.default_rng(seed)
        plan = self.plan_of(n_queries, nprobe, topk, rng)
        # Unique ids, the largest int64 among them: nothing may read a
        # candidate's validity off its id.
        pool = rng.permutation(4 * n_queries * nprobe * (topk + 1)).tolist()
        pool.insert(int(rng.integers(len(pool))), 2**63 - 1)
        empty_row = int(rng.integers(-1, n_queries))  # -1: none
        base = self.cells(plan, rng, pool, share=share, n_values=n_values,
                          empty_row=empty_row)
        extras = [
            self.cells(plan, rng, pool, share=0.4, n_values=n_values, empty_row=-1)
            for _ in range(n_extras)
        ]
        complete = all(cell is not None for row in base for cell in row)
        reference = self.fingerprint(
            merge_partials(plan, self.union(base, extras), require_complete=False)
        )

        folds = [(part, True) for part in self.split(base, n_parts, rng)]
        folds += [(extra, False) for extra in extras]
        folds += [folds[int(rng.integers(n_parts))]]  # one part delivered twice
        for _ in range(3):
            order = [folds[i] for i in rng.permutation(len(folds))]
            merger = StreamingMerger(plan)
            for grid, covers in order:
                merger.fold(PackedPartials.of_grid(grid) if packed else grid,
                            covers=covers)
            assert merger.complete == complete
            assert self.fingerprint(merger.results(require_complete=False)) == reference
            if complete:
                assert self.fingerprint(merger.results()) == reference
            else:
                with pytest.raises(SimulationError, match="unscanned probes") as ours:
                    merger.results()
                with pytest.raises(SimulationError) as theirs:
                    merge_partials(plan, base)
                assert str(ours.value) == str(theirs.value)

    def test_packed_grid_indexes_like_the_list_grid(self):
        import pickle

        from repro.search import PackedPartials

        rng = np.random.default_rng(7)
        plan = self.plan_of(5, 3, 4, rng)
        grid = self.cells(plan, rng, list(range(200)), share=0.6, n_values=3,
                          empty_row=2)
        packed = pickle.loads(pickle.dumps(PackedPartials.of_grid(grid)))
        assert len(packed) == 5 and packed.shape == (5, 3)
        assert PackedPartials.of_grid(packed) is packed
        for row, cells in enumerate(packed):
            assert len(cells) == 3
            for position, cell in enumerate(cells):
                want = grid[row][position]
                assert (cell is None) == (want is None)
                if want is not None:
                    assert cell.ids.tobytes() == want.ids.tobytes()
                    assert cell.distances.tobytes() == want.distances.tobytes()
                    assert (cell.n_scanned, cell.n_pruned) == (want.n_scanned, want.n_pruned)
        with pytest.raises(IndexError):
            packed[5]
