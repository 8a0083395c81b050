"""Integration tests for PQ Fast Scan (the paper's core algorithm)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Engine,
    EngineConfig,
    IVFADCIndex,
    Partition,
    PQFastScanner,
    ProductQuantizer,
    VectorDataset,
)
from repro.core import QuantizationOnlyScanner
from repro.core.fast_scan import best_first_pass
from repro.core.quantization import DistanceQuantizer
from repro.core.small_tables import SmallTables
from repro.exceptions import ConfigurationError, NotFittedError
from repro.pq.adc import adc_distances
from repro.scan import NaiveScanner, select_topk


@pytest.fixture(scope="module")
def fast_scanner(pq):
    return PQFastScanner(pq, keep=0.01, seed=0)


class TestExactness:
    @pytest.mark.parametrize("topk", [1, 10, 100])
    def test_same_results_as_pq_scan(self, fast_scanner, index, dataset, topk):
        """Section 5.1: PQ Fast Scan returns exactly PQ Scan's results."""
        naive = NaiveScanner()
        for query in dataset.queries:
            pid = index.route(query)[0]
            tables = index.distance_tables_for(query, pid)
            part = index.partitions[pid]
            ref = naive.scan(tables, part, topk=topk)
            got = fast_scanner.scan(tables, part, topk=topk)
            assert got.same_neighbors(ref)

    def test_exact_across_keep_values(self, pq, index, dataset):
        naive = NaiveScanner()
        query = dataset.queries[1]
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        part = index.partitions[pid]
        ref = naive.scan(tables, part, topk=20)
        for keep in (0.0, 0.001, 0.05, 0.5):
            scanner = PQFastScanner(pq, keep=keep, seed=0)
            assert scanner.scan(tables, part, topk=20).same_neighbors(ref)

    def test_exact_with_arbitrary_assignment(self, pq, index, dataset):
        scanner = PQFastScanner(pq, keep=0.01, assignment="arbitrary")
        query = dataset.queries[2]
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        part = index.partitions[pid]
        ref = NaiveScanner().scan(tables, part, topk=10)
        assert scanner.scan(tables, part, topk=10).same_neighbors(ref)

    @pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
    def test_exact_for_all_group_components(self, pq, index, dataset, c):
        scanner = PQFastScanner(pq, keep=0.01, group_components=c, seed=0)
        query = dataset.queries[3]
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        part = index.partitions[pid]
        ref = NaiveScanner().scan(tables, part, topk=10)
        assert scanner.scan(tables, part, topk=10).same_neighbors(ref)


GROUP_COMPONENTS = (0, 1, 2, 3, 4, None)


@pytest.fixture(scope="module")
def scanners_by_c(pq):
    return {
        c: PQFastScanner(pq, keep=0.01, group_components=c, seed=0)
        for c in GROUP_COMPONENTS
    }


def tied_partition(rng, n):
    """``n`` rows drawn from 4 or ``n // 3 + 1`` distinct codes, ids
    shuffled: distance ties are the rule (with 4 codes the topk-th
    distance is shared by rows of every stride and group), and id order
    is not storage order."""
    pool = rng.integers(0, 256, size=(rng.choice((4, n // 3 + 1)), 8), dtype=np.uint8)
    return Partition(pool[rng.integers(0, len(pool), size=n)], rng.permutation(n))


def assert_same_bytes(got, ref):
    assert got.ids.tobytes() == ref.ids.tobytes()
    assert got.distances.tobytes() == ref.distances.tobytes()


class TestEqualsNaiveScan:
    """The whole-partition query path against plain PQ Scan, byte for byte."""

    @given(
        c=st.sampled_from(GROUP_COMPONENTS),
        topk=st.sampled_from((1, 10, 100)),
        size=st.sampled_from(("1", "k-1", "k", "k+1", "1023", "1024", "1025", "5000")),
        sanitize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_ids_and_distance_bytes(
        self, scanners_by_c, monkeypatch, c, topk, size, sanitize, seed
    ):
        rng = np.random.default_rng(seed)
        around_k = {"k-1": topk - 1, "k": topk, "k+1": topk + 1}
        n = around_k[size] if size in around_k else int(size)
        part = tied_partition(rng, n)
        tables = rng.random((8, 256)) * rng.choice([1e-3, 1.0, 1e4])
        monkeypatch.setenv("REPRO_SANITIZE", "1" if sanitize else "0")
        got = scanners_by_c[c].scan(tables, part, topk=topk)
        ref = NaiveScanner().scan(tables, part, topk=topk)
        assert_same_bytes(got, ref)
        assert got.n_keep + got.n_exact + got.n_pruned == got.n_scanned == n

    @pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
    def test_partition_bounds_are_the_per_group_bounds(self, scanners_by_c, routed, c):
        """One ``take`` per sub-quantizer over the lookup rows reads the
        entries Figure 13's per-group portions hold."""
        partition, tables = routed
        scanner = scanners_by_c[c]
        grouped = scanner.prepare(partition)
        tables_r = scanner.assignment.remap_tables(tables)
        exact = adc_distances(tables_r, grouped.codes)
        quantizer = DistanceQuantizer.from_tables(tables_r, float(exact.min()))
        small = SmallTables(tables_r, c, quantizer)
        per_group = np.concatenate(
            [small.lower_bounds(grouped, group) for group in grouped.groups]
        )
        whole = small.partition_lower_bounds(grouped)
        assert whole.dtype == per_group.dtype == np.int8
        np.testing.assert_array_equal(whole, per_group)
        assert whole.min() < whole.max() == 127  # saturation is exercised

    def test_partition_smaller_than_k(self, dataset):
        """Regression: ``qmax=inf`` when a probed partition held < k rows."""
        answers = {}
        for scanner in ("fastpq", "naive"):
            config = EngineConfig(
                m=8, bits=8, n_partitions=64, scanner=scanner,
                max_iter=2, coarse_max_iter=2, seed=0,
            )
            with Engine.build(dataset.base[:400], config) as engine:
                assert min(len(p) for p in engine.index.partitions) < 10
                answers[scanner] = engine.search(dataset.queries, k=10, nprobe=4)
        for got, ref in zip(answers["fastpq"], answers["naive"]):
            assert_same_bytes(got, ref)


@pytest.fixture(params=["0", "1"], ids=["plain", "sanitize"])
def sanitize(request, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", request.param)


@pytest.fixture(scope="module")
def exact_scanners(pq):
    """The two scanners that end in :func:`best_first_pass`."""
    return {
        "fastpq": PQFastScanner(pq, keep=0.005, seed=0),
        "qonly": QuantizationOnlyScanner(pq, keep=0.005),
    }


@pytest.mark.usefixtures("sanitize")
@pytest.mark.parametrize("kind", ["fastpq", "qonly"])
class TestBestFirstPassEqualsNaive:
    """Byte equality where a visiting order could show: ties, bounds that
    discard nothing, and the sizes the early return guards."""

    @pytest.mark.parametrize("topk", [1, 10, 100])
    def test_ties(self, exact_scanners, kind, topk):
        rng = np.random.default_rng(topk)
        pool = rng.integers(0, 256, size=(50, 8), dtype=np.uint8)
        part = Partition(np.tile(pool, (40, 1)), rng.permutation(2000))
        tables = rng.random((8, 256))
        got = exact_scanners[kind].scan(tables, part, topk=topk)
        assert_same_bytes(got, NaiveScanner().scan(tables, part, topk=topk))
        assert got.n_keep + got.n_exact + got.n_pruned == got.n_scanned == 2000

    @pytest.mark.parametrize("weak", ["naive-qmax", "flat-tables"])
    def test_weak_bounds(self, pq, exact_scanners, kind, weak):
        rng = np.random.default_rng(5)
        part = Partition(
            rng.integers(0, 256, size=(3000, 8), dtype=np.uint8), rng.permutation(3000)
        )
        scanner, tables = exact_scanners[kind], rng.random((8, 256))
        if weak == "flat-tables":
            tables = np.full((8, 256), 0.25)  # qmin == qmax: zero bin width
        elif kind == "fastpq":
            scanner = PQFastScanner(pq, keep=0.005, qmax_bound="naive", seed=0)
        got = scanner.scan(tables, part, topk=10)
        assert_same_bytes(got, NaiveScanner().scan(tables, part, topk=10))
        assert got.n_keep + got.n_exact + got.n_pruned == got.n_scanned

    @pytest.mark.parametrize("keep", [0.0, 0.005, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11])
    def test_degenerate_sizes(self, pq, kind, keep, n):
        rng = np.random.default_rng(n)
        part = Partition(
            rng.integers(0, 256, size=(n, 8), dtype=np.uint8), rng.permutation(n)
        )
        tables = rng.random((8, 256))
        scanner = {"fastpq": PQFastScanner, "qonly": QuantizationOnlyScanner}[kind](
            pq, keep=keep
        )
        got = scanner.scan(tables, part, topk=10)
        assert_same_bytes(got, NaiveScanner().scan(tables, part, topk=10))
        assert got.n_keep + got.n_exact + got.n_pruned == got.n_scanned == n


@pytest.fixture(scope="module")
def one_partition_16k():
    """16 384 synthetic rows under PQ 8x8 in one partition, 16 queries."""
    ds = VectorDataset.synthetic(3000, 16384, 16, seed=7)
    pq = ProductQuantizer(m=8, bits=8, max_iter=4, seed=1).fit(ds.learn)
    index = IVFADCIndex(pq, n_partitions=1, seed=2).add(ds.base)
    return pq, index.partitions[0], index.distance_tables_for_batch(ds.queries, 0)


@pytest.mark.usefixtures("sanitize")
class TestBestFirstSchedule:
    @pytest.mark.parametrize("topk,floor", [(100, 0.95), (10, 0.97)])
    def test_pruning_floor(self, one_partition_16k, topk, floor):
        """A schedule change that quietly un-prunes fails here (the
        1 024-row strides this pass replaced read 0.72 at ``k=100``)."""
        pq, part, tables = one_partition_16k
        scanner = PQFastScanner(pq, keep=0.005, seed=0)
        results = scanner.scan_batch(tables, part, topk=topk)
        assert np.mean([r.pruned_fraction for r in results]) >= floor

    def test_scores_each_survivor_once_and_stops_early(self):
        """On its own inputs: bounds floor-quantized from a float that
        under-estimates each distance, one component."""
        rng = np.random.default_rng(3)
        n, k = 16384, 100
        dists = rng.random(n)
        ids = rng.permutation(n)
        keep_rows = np.arange(0, n, 128)  # any rows: the pass only skips them
        top = select_topk(dists[keep_rows], ids[keep_rows], k)
        quantizer = DistanceQuantizer(qmin=0.0, qmax=float(top[1][-1]))
        bounds = quantizer.quantize_table(dists * rng.uniform(0.0, 1.0, size=n))
        calls = []

        def exact(rows):
            calls.append(rows)
            return dists[rows]

        top_ids, top_dists, n_exact = best_first_pass(
            bounds, keep_rows, quantizer, top, ids, exact, components=1
        )
        ref_ids, ref_dists = select_topk(dists, ids, k)
        assert top_ids.tobytes() == ref_ids.tobytes()
        assert top_dists.tobytes() == ref_dists.tobytes()
        scored = np.concatenate(calls)
        assert len(scored) == n_exact == len(np.unique(scored))
        assert not np.isin(scored, keep_rows).any()
        # Epochs of 256, 512, ... rows cover n rows in this many calls,
        # and the threshold cut ends the pass well before that.
        assert 2 < len(calls) <= int(np.ceil(np.log2(n / 256 + 1)))
        assert [len(rows) for rows in calls[:-1]] == [256 << i for i in range(len(calls) - 1)]
        assert n_exact < (n - len(keep_rows)) // 2


class TestPruning:
    """Pruning-power behaviour.

    The test workload's partitions (~6-9K vectors) are far below the
    paper's 3.2M minimum for c=4 grouping, so these tests pin c=3 —
    the configuration the benchmark workloads use — where pruning
    behaviour is representative.
    """

    @pytest.fixture(scope="class")
    def tuned_scanner(self, pq):
        return PQFastScanner(pq, keep=0.01, group_components=3, seed=0)

    def test_prunes_majority_of_vectors(self, tuned_scanner, index, dataset):
        fractions = []
        for query in dataset.queries:
            pid = index.route(query)[0]
            tables = index.distance_tables_for(query, pid)
            result = tuned_scanner.scan(tables, index.partitions[pid], topk=1)
            fractions.append(result.pruned_fraction)
            assert (
                result.n_pruned + result.n_exact + result.n_keep
                == result.n_scanned
            )
        assert np.mean(fractions) > 0.6

    def test_lower_topk_prunes_more(self, tuned_scanner, index, dataset):
        """Section 5.4: pruning power decreases with topk (averaged)."""
        deltas = []
        for query in dataset.queries:
            pid = index.route(query)[0]
            tables = index.distance_tables_for(query, pid)
            part = index.partitions[pid]
            p1 = tuned_scanner.scan(tables, part, topk=1).pruned_fraction
            p100 = tuned_scanner.scan(tables, part, topk=100).pruned_fraction
            deltas.append(p1 - p100)
        assert np.mean(deltas) > 0

    def test_optimized_assignment_beats_arbitrary(self, pq, index, dataset):
        """Section 4.3 / the assignment ablation: tighter minima =>
        more pruning (averaged over queries)."""
        opt = PQFastScanner(
            pq, keep=0.01, group_components=3, assignment="optimized", seed=0
        )
        arb = PQFastScanner(
            pq, keep=0.01, group_components=3, assignment="arbitrary", seed=0
        )
        gains = []
        for query in dataset.queries:
            pid = index.route(query)[0]
            tables = index.distance_tables_for(query, pid)
            part = index.partitions[pid]
            po = opt.scan(tables, part, topk=100).pruned_fraction
            pa = arb.scan(tables, part, topk=100).pruned_fraction
            gains.append(po - pa)
        assert np.mean(gains) > 0

    def test_quantization_only_prunes_at_least_as_much(
        self, pq, index, dataset
    ):
        """Figure 17 vs 16: exact 256-entry quantized tables bound
        tighter than 16-entry minimum tables (given comparably fresh
        thresholds)."""
        scanner = PQFastScanner(pq, keep=0.01, group_components=3, seed=0)
        qonly = QuantizationOnlyScanner(pq, keep=0.01)
        diffs = []
        for query in dataset.queries[:4]:
            pid = index.route(query)[0]
            tables = index.distance_tables_for(query, pid)
            part = index.partitions[pid]
            pf = scanner.scan(tables, part, topk=10).pruned_fraction
            pq_only = qonly.scan(tables, part, topk=10).pruned_fraction
            diffs.append(pq_only - pf)
        assert np.mean(diffs) >= 0


class TestQuantizationOnlyScanner:
    def test_exact_results(self, pq, index, dataset):
        qonly = QuantizationOnlyScanner(pq, keep=0.01)
        naive = NaiveScanner()
        for query in dataset.queries[:3]:
            pid = index.route(query)[0]
            tables = index.distance_tables_for(query, pid)
            part = index.partitions[pid]
            assert qonly.scan(tables, part, topk=10).same_neighbors(
                naive.scan(tables, part, topk=10)
            )

    def test_rejects_wide_subquantizers(self, dataset):
        pq16 = ProductQuantizer(m=16, bits=4, max_iter=2, seed=0).fit(dataset.learn)
        with pytest.raises(ConfigurationError):
            QuantizationOnlyScanner(pq16)


class TestConfiguration:
    def test_requires_fitted_pq(self):
        with pytest.raises(NotFittedError):
            PQFastScanner(ProductQuantizer())

    def test_requires_byte_codes(self, dataset):
        pq16 = ProductQuantizer(m=16, bits=4, max_iter=2, seed=0).fit(dataset.learn)
        with pytest.raises(ConfigurationError):
            PQFastScanner(pq16)

    def test_rejects_bad_keep(self, pq):
        with pytest.raises(ConfigurationError):
            PQFastScanner(pq, keep=1.5)

    def test_rejects_unknown_assignment(self, pq):
        with pytest.raises(ConfigurationError):
            PQFastScanner(pq, assignment="magic")

    def test_prepared_cache_reused(self, fast_scanner, partition):
        a = fast_scanner.prepared(partition)
        b = fast_scanner.prepared(partition)
        assert a is b

    def test_prepared_cache_counters(self, pq, partition):
        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        assert (scanner.prepared_hits, scanner.prepared_misses) == (0, 0)
        scanner.prepared(partition)
        assert (scanner.prepared_hits, scanner.prepared_misses) == (0, 1)
        scanner.prepared(partition)
        scanner.prepared(partition)
        assert (scanner.prepared_hits, scanner.prepared_misses) == (2, 1)

    def test_warm_builds_layouts_once(self, pq, index):
        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        built = scanner.warm(index.partitions)
        assert built == len(index.partitions)
        assert scanner.prepared_misses == len(index.partitions)
        # Warming again touches only the cache.
        assert scanner.warm(index.partitions) == 0
        assert scanner.prepared_misses == len(index.partitions)

    def test_prepared_cache_released_on_gc(self, pq, dataset):
        import gc

        from repro import Partition

        scanner = PQFastScanner(pq, keep=0.01, seed=0)
        codes = pq.encode(dataset.base[:600])
        partition = Partition(codes, np.arange(600))
        scanner.prepared(partition)
        assert scanner.prepared_misses == 1
        del partition
        gc.collect()
        # The weakref cache must not keep dead partitions alive: a fresh
        # equivalent partition is a miss, not a stale hit.
        partition2 = Partition(codes, np.arange(600))
        scanner.prepared(partition2)
        assert scanner.prepared_misses == 2

    def test_empty_partition(self, fast_scanner, tables):
        from repro import Partition

        empty = Partition(np.zeros((0, 8), dtype=np.uint8), np.zeros(0))
        result = fast_scanner.scan(tables, empty, topk=5)
        assert result.n_scanned == 0
        assert len(result.ids) == 0

    def test_stats_fields_populated(self, fast_scanner, tables, partition):
        result = fast_scanner.scan(tables, partition, topk=5)
        assert result.qmax >= result.qmin >= 0
        assert result.n_keep >= 5
