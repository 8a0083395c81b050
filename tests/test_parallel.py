"""Tests for the zero-copy process-pool executor (repro.parallel)."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    IVFADCIndex,
    NaiveScanner,
    PQFastScanner,
    save_index,
)
from repro.core import QuantizationOnlyScanner
from repro.engine import SCANNER_KINDS, Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.parallel import ProcessBatchExecutor, ScannerSpec
from repro.scan.base import PartitionScanner
from repro.search import BatchExecutor, BatchPlanner
from repro.shard import ScatterGatherExecutor, ShardedIndex

from .oracle import holds_oracle_distances, oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")


def _scanner_for(name, idx):
    if name == "naive":
        return NaiveScanner()
    return PQFastScanner(idx.pq, keep=0.01, seed=0)


def _assert_results_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.ids.tobytes() == rb.ids.tobytes()
        assert ra.distances.tobytes() == rb.distances.tobytes()
        assert ra.n_scanned == rb.n_scanned
        assert ra.n_pruned == rb.n_pruned
        assert ra.probed == rb.probed


def _one_shard(index, scanner, **options) -> ScatterGatherExecutor:
    """The one-shard split of ``index``, as an unsharded engine runs it."""
    return ScatterGatherExecutor(
        ShardedIndex.from_index(index, n_shards=1), [scanner], **options
    )


@pytest.fixture(scope="module")
def index_artifact(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "index.npz"
    save_index(index, path)
    return path


class TestScannerSpec:
    def test_fastpq_round_trip(self, pq):
        scanner = PQFastScanner(pq, keep=0.02, seed=3, qmax_bound="naive")
        spec = ScannerSpec.for_scanner(scanner)
        rebuilt = spec.build(pq)
        assert isinstance(rebuilt, PQFastScanner)
        assert rebuilt.keep == scanner.keep
        assert rebuilt.seed == scanner.seed
        assert rebuilt.qmax_bound == scanner.qmax_bound

    def test_quantization_only_cannot_be_reconstructed(self, pq):
        """Figure 17's instrument is built directly, not by a worker."""
        with pytest.raises(ConfigurationError, match="cannot be reconstructed"):
            ScannerSpec.for_scanner(QuantizationOnlyScanner(pq, keep=0.03))

    def test_registry_scanner_round_trip(self, pq):
        rebuilt = ScannerSpec.for_scanner(NaiveScanner()).build(pq)
        assert isinstance(rebuilt, NaiveScanner)

    def test_unsupported_scanner_rejected(self):
        class Custom(PartitionScanner):
            name = "custom"

            def scan_batch(self, tables, partition, topk):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="reconstructed"):
            ScannerSpec.for_scanner(Custom())

    def test_unknown_kind_rejected(self, pq):
        with pytest.raises(ConfigurationError, match="unknown scanner kind"):
            ScannerSpec(kind="nope").build(pq)

    @pytest.mark.parametrize("kind", ["libpq", "qonly"])
    def test_kinds_that_left_the_engine_are_unknown(self, pq, kind):
        """Refused like any unknown name, naming the kinds there are."""
        with pytest.raises(ConfigurationError, match="unknown scanner kind") as raised:
            ScannerSpec(kind=kind).build(pq)
        assert str(SCANNER_KINDS) in str(raised.value)

    def test_specs_are_picklable(self, pq):
        import pickle

        spec = ScannerSpec.for_scanner(PQFastScanner(pq, keep=0.01))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestProcessExecutorEquivalence:
    @pytest.mark.parametrize("scanner_name", ["naive", "fastpq"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_byte_identical_to_sequential(
        self, index, dataset, index_artifact, scanner_name, n_workers
    ):
        with _one_shard(
            index, _scanner_for(scanner_name, index), backend="thread"
        ) as thread, _one_shard(
            index,
            _scanner_for(scanner_name, index),
            n_workers=n_workers,
            artifact_dir=index_artifact,
        ) as executor:
            results = executor.run(dataset.queries, topk=10, nprobe=2).results
            assert same_as_oracle(
                results, oracle_search(index, dataset.queries, 10, 2)
            )
            # the scan statistics too, which the oracle does not keep
            _assert_results_equal(
                thread.run(dataset.queries, topk=10, nprobe=2).results, results
            )

    def test_byte_identical_to_thread_executor(
        self, index, dataset, index_artifact
    ):
        with _one_shard(
            index, NaiveScanner(), backend="thread"
        ) as thread, _one_shard(
            index, NaiveScanner(), artifact_dir=index_artifact
        ) as executor:
            _assert_results_equal(
                thread.run(dataset.queries, topk=10, nprobe=2).results,
                executor.run(dataset.queries, topk=10, nprobe=2).results,
            )

    def test_results_stable_across_repeated_runs(
        self, index, dataset, index_artifact
    ):
        with _one_shard(
            index, NaiveScanner(), n_workers=2, artifact_dir=index_artifact
        ) as executor:
            first = executor.run(dataset.queries, topk=10, nprobe=2)
            second = executor.run(dataset.queries, topk=10, nprobe=2)
            _assert_results_equal(first.results, second.results)


class TestProcessExecutorLifecycle:
    def test_report_and_worker_stats(self, index, dataset, index_artifact):
        with _one_shard(
            index, NaiveScanner(), n_workers=2, artifact_dir=index_artifact
        ) as executor:
            response = executor.run(dataset.queries, topk=10, nprobe=2)
            results = response.results
            assert len(results) == len(dataset.queries)
            assert response.n_queries == len(dataset.queries)
            (shard,) = executor._executors
            assert shard.n_workers == 2
            assert len(response.worker_stats) == shard.pool_size
            total_scans = sum(s.n_scans for s in response.worker_stats)
            assert total_scans == sum(len(r.probed) for r in results)
            assert sum(s.busy_time_s for s in response.worker_stats) > 0.0

    def test_pool_size_clamped_to_cpus(self, index, index_artifact):
        import os

        cpus = len(os.sched_getaffinity(0))
        with ProcessBatchExecutor(
            index_artifact, NaiveScanner(), n_workers=cpus + 7, index=index
        ) as executor:
            assert executor.n_workers == cpus + 7
            assert executor.pool_size == cpus

    def test_invalid_n_workers(self, index, index_artifact):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ProcessBatchExecutor(
                index_artifact, NaiveScanner(), n_workers=0, index=index
            )

    def test_closed_executor_rejects_runs(self, index, dataset, index_artifact):
        executor = ProcessBatchExecutor(
            index_artifact, NaiveScanner(), index=index
        )
        executor.close()
        executor.close()  # idempotent
        plan = BatchPlanner(index).plan(dataset.queries, topk=5, nprobe=1)
        with pytest.raises(ConfigurationError, match="closed"):
            executor.scan_plan(plan)


def _process_engine(index, vectors=None):
    """The engine over ``index`` that serves with worker processes."""
    config = EngineConfig(
        m=index.pq.m, n_partitions=index.n_partitions, scanner="naive",
        executor="process",
    )
    return Engine(index, config, vectors=vectors)


class TestSearcherProcessExecutor:
    """Worker processes are the engine's: a process engine answers what
    the thread engine and the oracle do, re-ranked or not."""

    def test_search_executor_process_matches_batch(self, index, dataset, engine_over):
        thread = engine_over(index).search(dataset.queries, k=10, nprobe=2)
        assert same_as_oracle(thread, oracle_search(index, dataset.queries, 10, 2))
        with _process_engine(index) as engine:
            _assert_results_equal(thread, engine.search(dataset.queries, k=10, nprobe=2))

    def test_process_rerank_matches_batch_rerank(self, index, dataset, engine_over):
        thread = engine_over(index, vectors=dataset.base)
        with _process_engine(index, vectors=dataset.base) as engine:
            _assert_results_equal(
                thread.search(dataset.queries, k=5, nprobe=2, rerank=20),
                engine.search(dataset.queries, k=5, nprobe=2, rerank=20),
            )

    def test_executor_pool_reused_across_searches(self, index, dataset):
        with _process_engine(index) as engine:
            engine.search(dataset.queries, k=5)
            (shard,) = engine._executor._executors
            pids = shard.worker_pids
            engine.search(dataset.queries, k=5)
            assert shard.worker_pids == pids and pids

    def test_unknown_executor_rejected(self, index, engine_over):
        with pytest.raises(ConfigurationError, match="executor must be"):
            engine_over(index, executor="fibers")


class TestThreadExecutorWarning:
    """One thread worker runs silently; more are refused, not warned about."""

    def test_multi_worker_threads_refused(self, index):
        with pytest.raises(ConfigurationError, match="process backend"):
            BatchExecutor(index, NaiveScanner(), n_workers=4)

    def test_single_worker_does_not_warn(self, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BatchExecutor(index, NaiveScanner(), n_workers=1)


class TestPreparedCacheBound:
    """The cache holds one layout per live partition, and no fewer."""

    def test_unbounded_cache(self, pq, index):
        scanner = PQFastScanner(pq, keep=0.01)
        for partition in index.partitions:
            scanner.prepared(partition)
        assert len(scanner._prepared) == len(index.partitions)

    @pytest.mark.parametrize("kind", ["fastpq", "quickadc"])
    def test_each_layout_is_built_once_past_256_partitions(
        self, dataset, pq, pq4, kind
    ):
        # More partitions than the 256-layout cap this cache once had:
        # under it, two full-probe batches built 1 088 layouts.
        n_partitions = 272
        index = IVFADCIndex(
            pq4 if kind == "quickadc" else pq,
            n_partitions=n_partitions,
            coarse_max_iter=2,
            seed=4,
        ).add(dataset.base)
        config = EngineConfig(
            scanner=kind, n_partitions=n_partitions, nprobe=n_partitions,
            executor="thread", **(dict(m=16, bits=4) if kind == "quickadc" else {}),
        )
        queries = dataset.queries
        with Engine(index, config) as engine:
            (scanner,) = engine._executor.scanners
            first = engine.search(queries, k=10)
            second = engine.search(queries, k=10)
            assert scanner.prepared_misses == n_partitions
        _assert_results_equal(first, second)
        # a fresh scanner, which builds every layout anew, scans the same
        with _one_shard(
            index, config.scanner_factory(index.pq)(), backend="thread"
        ) as fresh:
            _assert_results_equal(
                fresh.run(queries, topk=10, nprobe=n_partitions).results, first
            )
        if kind == "quickadc":
            assert holds_oracle_distances(first, index, queries, n_partitions)
        else:
            assert same_as_oracle(first, oracle_search(index, queries, 10, n_partitions))


class TestShardedProcessBackend:
    def test_process_backend_matches_thread(self, index, dataset):
        sharded = ShardedIndex.from_index(index, n_shards=2)
        thread = ScatterGatherExecutor(
            sharded, NaiveScanner, n_workers=1, backend="thread"
        )
        with ScatterGatherExecutor(
            sharded, NaiveScanner, n_workers=1, backend="process"
        ) as process:
            a = thread.run(dataset.queries, topk=10, nprobe=2)
            b = process.run(dataset.queries, topk=10, nprobe=2)
        assert not a.partial and not b.partial
        _assert_results_equal(a.results, b.results)

    def test_invalid_backend_rejected(self, index):
        sharded = ShardedIndex.from_index(index, n_shards=2)
        with pytest.raises(ConfigurationError, match="backend"):
            ScatterGatherExecutor(sharded, NaiveScanner, backend="mpi")

    def test_close_removes_temp_artifacts(self, index, dataset):
        import pathlib

        sharded = ShardedIndex.from_index(index, n_shards=2)
        executor = ScatterGatherExecutor(
            sharded, NaiveScanner, backend="process"
        )
        tempdir = executor._tempdir
        assert tempdir is not None
        executor.run(dataset.queries, topk=5, nprobe=1)
        executor.close()
        assert not pathlib.Path(tempdir.name).exists()


class TestSanitizerPropagation:
    """REPRO_SANITIZE set in the parent must reach pool workers.

    Worker processes fork before (or with a different) environment, so
    the parent forwards its current gate with every bundle. The tests
    patch the invariant check to raise unconditionally *before* the pool
    forks (workers inherit the patched module), then toggle the gate
    only in the parent — the patched check firing in a worker proves the
    gate crossed the process boundary at run time, not at fork time.
    """

    def _patched_executor(self, index, index_artifact, monkeypatch):
        from repro.core import fast_scan
        from repro.exceptions import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("sanitizer ran in worker")

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.setattr(fast_scan, "check_lower_bound_invariant", boom)
        return ProcessBatchExecutor(
            index_artifact,
            PQFastScanner(index.pq, keep=0.01, seed=0),
            n_workers=1,
            index=index,
        )

    def test_sanitize_env_reaches_workers(
        self, index, dataset, index_artifact, monkeypatch
    ):
        from repro.exceptions import InvariantViolation

        with self._patched_executor(index, index_artifact, monkeypatch) as ex:
            # Enabled only after the workers forked: propagation has to
            # happen per bundle for the worker-side check to fire.
            monkeypatch.setenv("REPRO_SANITIZE", "1")
            with pytest.raises(InvariantViolation, match="sanitizer ran"):
                ex.scan_plan(BatchPlanner(index).plan(dataset.queries, topk=5))

    def test_sanitize_off_skips_worker_checks(
        self, index, dataset, index_artifact, monkeypatch
    ):
        with self._patched_executor(index, index_artifact, monkeypatch) as ex:
            partials, _ = ex.scan_plan(
                BatchPlanner(index).plan(dataset.queries, topk=5)
            )
            assert len(partials) == len(dataset.queries)


class TestEngineProcessExecutor:
    def test_config_executor_validated(self):
        with pytest.raises(ConfigurationError, match="executor"):
            EngineConfig(executor="threads-but-fast")

    def test_engine_process_matches_thread(self, index, dataset):
        from dataclasses import replace

        config = EngineConfig(
            m=index.pq.m, n_partitions=index.n_partitions, nprobe=2,
            scanner="naive",
        )
        with Engine(index, config) as thread_engine, Engine(
            index, replace(config, executor="process")
        ) as process_engine:
            a = thread_engine.search(dataset.queries, k=10)
            b = process_engine.search(dataset.queries, k=10)
        _assert_results_equal(a, b)


class TestScanPlanCellForCell:
    """The process executor's packed partials are the thread executor's,
    cell for cell, for every scanner family (hypothesis over the batch,
    ``topk`` and ``nprobe``; one pool per scanner for the whole class)."""

    KINDS = ("naive", "fastpq", "quickadc")

    @pytest.fixture(scope="class")
    def executors(self, dataset, pq, tmp_path_factory):
        from repro import IVFADCIndex, ProductQuantizer, QuickADCScanner

        pq4 = ProductQuantizer(m=16, bits=4, max_iter=3, seed=4).fit(dataset.learn)
        built = {}
        for kind in self.KINDS:
            quantizer = pq4 if kind == "quickadc" else pq
            # 12 cells over 1500 rows: some partitions are shorter than
            # the largest topk drawn below, so block widths differ.
            index = IVFADCIndex(quantizer, n_partitions=12, seed=5).add(
                dataset.base[:1500]
            )
            path = tmp_path_factory.mktemp(f"cells-{kind}") / "index.npz"
            save_index(index, path)
            make = {
                "naive": NaiveScanner,
                "fastpq": lambda: PQFastScanner(quantizer, keep=0.02, seed=0),
                "quickadc": lambda: QuickADCScanner(quantizer, keep=0.02),
            }[kind]
            built[kind] = (
                BatchExecutor(index, make()),
                ProcessBatchExecutor(path, make(), n_workers=2, index=index),
            )
        yield built
        for thread, process in built.values():
            thread.close()
            process.close()

    @given(
        kind=st.sampled_from(KINDS),
        rows=st.lists(st.integers(0, 7), min_size=1, max_size=12),
        topk=st.sampled_from([1, 5, 40, 200]),
        nprobe=st.integers(1, 5),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_process_cells_equal_thread_cells(
        self, executors, dataset, kind, rows, topk, nprobe
    ):
        self.assert_cell_for_cell(executors[kind], dataset.queries[rows], topk, nprobe)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_query_in_several_jobs_of_one_bundle(self, executors, dataset, kind):
        """nprobe 8 over 12 cells and two workers: every bundle reads a
        query's row of the bundle-wide query half from several jobs."""
        thread, process = executors[kind]
        queries = dataset.queries[[0, 3, 3, 5, 7, 1]]
        plan = BatchPlanner(thread.index).plan(queries, topk=5, nprobe=8)
        for jobs in process._bundle_jobs(plan):
            rows = np.concatenate([job.query_rows for job in jobs])
            assert len(jobs) > 1 and len(np.unique(rows)) < len(rows)
        self.assert_cell_for_cell(executors[kind], queries, 5, 8)

    @staticmethod
    def assert_cell_for_cell(pair, queries, topk, nprobe):
        thread, process = pair
        rows = range(len(queries))
        plan = BatchPlanner(thread.index).plan(queries, topk=topk, nprobe=nprobe)
        near, near_stats = thread.scan_plan(plan)
        far, far_stats = process.scan_plan(plan)
        assert near.shape == far.shape == (len(rows), nprobe)
        cells = {}
        for name, part in (("near", near), ("far", far)):
            assert len(part.cells) == len(rows) * nprobe
            assert (part.cells.lengths <= topk).all()
            for i, (row, position) in enumerate(
                zip(part.rows.tolist(), part.positions.tolist())
            ):
                length = part.cells.lengths[i]
                cells[name, row, position] = (
                    part.cells.ids[i, :length].tobytes(),
                    part.cells.distances[i, :length].tobytes(),
                    int(length),
                    int(part.cells.n_scanned[i]),
                    int(part.cells.n_pruned[i]),
                )
        for row in range(len(rows)):
            for position in range(nprobe):
                assert cells["near", row, position] == cells["far", row, position]
                as_result = far[row][position]
                assert as_result.ids.tobytes() == cells["far", row, position][0]
        for stats in (near_stats, far_stats):
            assert sum(s.n_jobs for s in stats) == len(plan.jobs)
            assert sum(s.n_scans for s in stats) == len(rows) * nprobe
            assert sum(s.n_vectors_scanned for s in stats) == int(
                near.cells.n_scanned.sum()
            )
            assert sum(s.n_vectors_pruned for s in stats) == int(
                near.cells.n_pruned.sum()
            )
            assert all(s.busy_time_s >= 0 for s in stats)
