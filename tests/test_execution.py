"""Tests for the partition-major batch execution engine.

The engine's contract is *byte-identity*: for any scanner, nprobe and
worker count, the batched ``search`` executor returns exactly what the
sequential per-query loop returns — same ids, bit-identical distances,
same stats.
These tests pin that contract plus the planner's structural invariants
and the per-worker accounting.
"""

import numpy as np
import pytest

from repro import (
    ANNSearcher,
    BatchExecutor,
    BatchPlanner,
    IVFADCIndex,
    NaiveScanner,
    PQFastScanner,
)
from repro.exceptions import ConfigurationError
from repro.scan import LibpqScanner


@pytest.fixture(scope="module")
def index4(pq, dataset):
    """A 4-partition index so plans have real partition-major structure."""
    return IVFADCIndex(pq, n_partitions=4, seed=3).add(dataset.base)


@pytest.fixture(scope="module")
def batch_queries(dataset, rng):
    """More queries than the dataset ships with, to get partition overlap."""
    base = np.tile(dataset.queries, (3, 1))
    jitter = np.random.default_rng(99).normal(scale=2.0, size=base.shape)
    return np.vstack([dataset.queries, base + jitter])


#: Tier-1 turns the GIL advisory into an error; the tests below ask for
#: thread ``n_workers>1`` on purpose.
gil_bound_on_purpose = pytest.mark.filterwarnings(
    "ignore:BatchExecutor with n_workers:RuntimeWarning"
)


def _scanners(pq):
    return {
        "naive": NaiveScanner(),
        "libpq": LibpqScanner(),
        "fastpq": PQFastScanner(pq, keep=0.01, seed=0),
    }


def _assert_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.ids, rb.ids)
        assert ra.distances.tobytes() == rb.distances.tobytes()
        assert ra.n_scanned == rb.n_scanned
        assert ra.n_pruned == rb.n_pruned
        assert ra.probed == rb.probed


class TestBatchEquivalence:
    @gil_bound_on_purpose
    @pytest.mark.parametrize("scanner_name", ["naive", "libpq", "fastpq"])
    @pytest.mark.parametrize("nprobe", [1, 2])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_byte_identical_to_sequential(
        self, index4, pq, batch_queries, scanner_name, nprobe, n_workers
    ):
        scanner = _scanners(pq)[scanner_name]
        searcher = ANNSearcher(index4, scanner=scanner)
        seq = searcher.search(
            batch_queries, topk=10, nprobe=nprobe, executor="sequential"
        )
        bat = searcher.search(
            batch_queries, topk=10, nprobe=nprobe, n_workers=n_workers
        )
        _assert_identical(seq, bat)

    @gil_bound_on_purpose
    def test_rerank_equivalence(self, index4, pq, dataset, batch_queries):
        searcher = ANNSearcher(
            index4, scanner=NaiveScanner(), vectors=dataset.base
        )
        seq = searcher.search(
            batch_queries, topk=5, nprobe=2, rerank=20, executor="sequential"
        )
        bat = searcher.search(
            batch_queries, topk=5, nprobe=2, rerank=20, n_workers=2
        )
        _assert_identical(seq, bat)

    def test_matches_per_query_search(self, index4, batch_queries):
        searcher = ANNSearcher(index4, scanner=NaiveScanner())
        bat = searcher.search(batch_queries, topk=10, nprobe=2)
        for query, result in zip(batch_queries, bat):
            single = searcher.search(query, topk=10, nprobe=2)
            np.testing.assert_array_equal(single.ids, result.ids)
            assert single.distances.tobytes() == result.distances.tobytes()

    def test_empty_batch(self, index4):
        searcher = ANNSearcher(index4, scanner=NaiveScanner())
        assert searcher.search(np.empty((0, 128))) == []

    def test_single_row_batch_matches_1d(self, index4, dataset):
        searcher = ANNSearcher(index4, scanner=NaiveScanner())
        results = searcher.search(
            dataset.queries[0][None, :], topk=10, nprobe=2
        )
        assert len(results) == 1
        single = searcher.search(dataset.queries[0], topk=10, nprobe=2)
        np.testing.assert_array_equal(results[0].ids, single.ids)


class TestBatchPlanner:
    def test_plan_covers_every_probe_once(self, index4, batch_queries):
        plan = BatchPlanner(index4).plan(batch_queries, topk=10, nprobe=2)
        assert plan.probed.shape == (len(batch_queries), 2)
        covered = np.zeros_like(plan.probed, dtype=bool)
        for job in plan.jobs:
            assert len(job.query_rows) == len(job.probe_positions)
            for row, position in zip(job.query_rows, job.probe_positions):
                assert plan.probed[row, position] == job.partition_id
                assert not covered[row, position]
                covered[row, position] = True
        assert covered.all()

    def test_jobs_partition_major(self, index4, batch_queries):
        """One job per distinct probed partition, largest cost first."""
        plan = BatchPlanner(index4).plan(batch_queries, topk=10, nprobe=2)
        pids = [job.partition_id for job in plan.jobs]
        assert len(pids) == len(set(pids))
        assert set(pids) == set(np.unique(plan.probed).tolist())
        costs = [job.cost for job in plan.jobs]
        assert costs == sorted(costs, reverse=True)

    def test_routing_matches_sequential_route(self, index4, batch_queries):
        plan = BatchPlanner(index4).plan(batch_queries, topk=10, nprobe=3)
        for query, probed in zip(batch_queries, plan.probed):
            assert index4.route(query, nprobe=3) == [int(p) for p in probed]

    def test_rejects_bad_topk(self, index4, batch_queries):
        with pytest.raises(ConfigurationError):
            BatchPlanner(index4).plan(batch_queries, topk=0)


class TestBatchExecutor:
    def test_report_accounts_all_scans(self, index4, batch_queries):
        with pytest.warns(RuntimeWarning, match="GIL-bound"):
            executor = BatchExecutor(index4, NaiveScanner(), n_workers=2)
        results, report = executor.run_with_report(
            batch_queries, topk=10, nprobe=2
        )
        assert report.n_queries == len(batch_queries)
        assert report.n_jobs == len(
            np.unique(BatchPlanner(index4).plan(batch_queries, nprobe=2).probed)
        )
        totals = report.totals
        assert totals.n_scans == len(batch_queries) * 2
        assert totals.n_vectors_scanned == sum(r.n_scanned for r in results)
        assert totals.n_jobs == report.n_jobs
        assert report.wall_time_s > 0
        assert report.queries_per_second > 0

    def test_worker_stats_cover_all_workers(self, index4, batch_queries):
        with pytest.warns(RuntimeWarning, match="GIL-bound"):
            executor = BatchExecutor(index4, NaiveScanner(), n_workers=2)
        _, report = executor.run_with_report(batch_queries, topk=5, nprobe=2)
        assert [s.worker_id for s in report.worker_stats] == [0, 1]
        assert sum(s.n_jobs for s in report.worker_stats) == report.n_jobs

    def test_fast_scanner_pruning_stats_preserved(
        self, index4, pq, batch_queries
    ):
        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        executor = BatchExecutor(index4, scanner, n_workers=1)
        results, report = executor.run_with_report(
            batch_queries, topk=10, nprobe=2
        )
        assert report.totals.n_vectors_pruned == sum(
            r.n_pruned for r in results
        )
        assert report.totals.n_vectors_pruned > 0

    def test_warms_fast_scanner_cache(self, index4, pq, batch_queries):
        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        executor = BatchExecutor(index4, scanner, n_workers=1)
        executor.run(batch_queries, topk=10, nprobe=2)
        first_misses = scanner.prepared_misses
        assert first_misses > 0
        executor.run(batch_queries, topk=10, nprobe=2)
        assert scanner.prepared_misses == first_misses  # all hits now
        assert scanner.prepared_hits > 0

    def test_rejects_bad_workers(self, index4):
        with pytest.raises(ConfigurationError):
            BatchExecutor(index4, NaiveScanner(), n_workers=0)


class TestQueryHalfOncePerPlan:
    """Step 2's multiplications are paid once per plan, bundle or query,
    never once per job: counted, not timed."""

    N_QUERIES, NPROBE = 128, 8

    @pytest.fixture(scope="class")
    def index16(self, pq, dataset):
        return IVFADCIndex(pq, n_partitions=16, coarse_max_iter=3, seed=3).add(
            dataset.base[:3000]
        )

    @pytest.fixture(scope="class")
    def queries(self, dataset):
        noise = np.random.default_rng(5).normal(scale=3.0, size=(self.N_QUERIES, 128))
        return dataset.base[4000 : 4000 + self.N_QUERIES] + noise

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Rows handed to each ``IVFADCIndex.query_half`` call, any index."""
        seen = []
        real = IVFADCIndex.query_half

        def counted(index, block):
            seen.append(len(block))
            return real(index, block)

        monkeypatch.setattr(IVFADCIndex, "query_half", counted)
        return seen

    @gil_bound_on_purpose
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_scan_plan_builds_it_once(self, index16, queries, calls, n_workers):
        with BatchExecutor(index16, NaiveScanner(), n_workers=n_workers) as executor:
            plan = executor.planner.plan(queries, topk=5, nprobe=self.NPROBE)
            assert len(plan.jobs) > self.NPROBE
            executor.scan_plan(plan)
            assert calls == [self.N_QUERIES]
            executor.run(queries, topk=5, nprobe=self.NPROBE)
            assert calls == [self.N_QUERIES] * 2

    def test_a_worker_builds_it_once_per_bundle(self, index16, queries, calls, monkeypatch):
        from repro.parallel import worker
        from repro.search import PackedPartials, StreamingMerger

        monkeypatch.setitem(worker._STATE, "index", index16)
        monkeypatch.setitem(worker._STATE, "scanner", NaiveScanner())
        plan = BatchPlanner(index16).plan(queries, topk=5, nprobe=self.NPROBE)
        merger = StreamingMerger(plan)
        expected_calls = []
        for jobs in (plan.jobs[0::2], plan.jobs[1::2]):
            rows = np.concatenate([job.query_rows for job in jobs])
            # nprobe 8 over 16 cells: a query sits in several of the
            # bundle's jobs and is still multiplied once.
            assert len(np.unique(rows)) < len(rows)
            expected_calls.append(len(np.unique(rows)))
            _, cells, busy_s = worker._run_bundle(
                worker.WorkerBundle(
                    queries=plan.queries,
                    partition_ids=tuple(job.partition_id for job in jobs),
                    query_rows=rows,
                    job_sizes=tuple(len(job.query_rows) for job in jobs),
                    topk=plan.topk,
                    tombstones=tuple(job.tombstones for job in jobs),
                )
            )
            assert len(busy_s) == len(jobs)
            merger.fold(PackedPartials.of_jobs(plan, jobs, [cells]))
        assert calls == expected_calls
        with BatchExecutor(index16, NaiveScanner()) as executor:
            _assert_identical(
                merger.results(), executor.run(queries, topk=5, nprobe=self.NPROBE)
            )

    def test_the_sequential_loop_builds_it_once_per_query(
        self, index16, queries, calls
    ):
        with ANNSearcher(index16, NaiveScanner()) as searcher:
            searcher.search(
                queries, topk=5, nprobe=self.NPROBE, executor="sequential"
            )
        assert calls == [1] * self.N_QUERIES

    def test_the_public_per_job_call_is_one_call_for_its_rows(
        self, index16, queries, calls
    ):
        index16.distance_tables_for_batch(queries[:9], 3)
        index16.distance_tables_for(queries[0], 3)
        assert calls == [9, 1]

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_a_dirty_plan_builds_it_once(self, dataset, queries, calls, n_shards):
        """Overlay fold and executor share the plan's: added rows and
        deleted rows both sit in probed partitions."""
        from repro import Engine

        with Engine.build(
            dataset.base[:3000], mutable=True, scanner="naive", n_partitions=16,
            nprobe=self.NPROBE, max_iter=2, coarse_max_iter=3,
            n_shards=n_shards, executor="thread",
        ) as engine:
            clean = engine.search(queries, k=5)
            assert calls == [self.N_QUERIES]
            new_ids = np.arange(10**6, 10**6 + 16)
            engine.add(queries[:16], new_ids)
            engine.delete(np.array([result.ids[0] for result in clean[16:48]]))
            del calls[:]
            dirty = engine.search(queries, k=5)
            assert calls == [self.N_QUERIES]
            # Both halves of the overlay ran: the added rows answer
            # their own queries, the deleted ones are gone.
            assert all(new in r.ids for new, r in zip(new_ids, dirty[:16]))
            for before, after in zip(clean[16:48], dirty[16:48]):
                assert before.ids[0] not in after.ids
