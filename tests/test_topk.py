"""Unit tests for top-k candidate management."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.scan import topk as topk_module
from repro.scan.topk import TopKAccumulator, select_topk, select_topk_rows


class TestTopKAccumulator:
    def test_keeps_k_smallest(self):
        acc = TopKAccumulator(3)
        for d, i in [(5.0, 0), (1.0, 1), (3.0, 2), (0.5, 3), (4.0, 4)]:
            acc.offer(d, i)
        ids, dists = acc.result()
        np.testing.assert_array_equal(ids, [3, 1, 2])
        np.testing.assert_allclose(dists, [0.5, 1.0, 3.0])

    def test_threshold_tracks_worst_kept(self):
        acc = TopKAccumulator(2)
        assert acc.threshold == float("inf")
        acc.offer(5.0, 0)
        assert acc.threshold == float("inf")  # not full yet
        acc.offer(3.0, 1)
        assert acc.threshold == 5.0
        acc.offer(1.0, 2)
        assert acc.threshold == 3.0

    def test_tie_break_prefers_smaller_id(self):
        acc = TopKAccumulator(2)
        acc.offer(1.0, 10)
        acc.offer(1.0, 5)
        acc.offer(1.0, 7)
        ids, _ = acc.result()
        np.testing.assert_array_equal(ids, [5, 7])

    def test_offer_returns_kept_flag(self):
        acc = TopKAccumulator(1)
        assert acc.offer(2.0, 0) is True
        assert acc.offer(3.0, 1) is False
        assert acc.offer(1.0, 2) is True

    def test_offer_many_matches_sequential(self, rng):
        dists = rng.uniform(size=100)
        ids = np.arange(100)
        a = TopKAccumulator(10)
        a.offer_many(dists, ids)
        b = TopKAccumulator(10)
        for d, i in zip(dists, ids):
            b.offer(d, i)
        np.testing.assert_array_equal(a.result()[0], b.result()[0])

    def test_offer_many_bulk_path_with_ties(self, rng):
        """The bulk merge must keep exact (distance, id) tie-breaking."""
        dists = np.repeat(rng.uniform(size=40), 5)  # heavy ties
        ids = rng.permutation(len(dists))
        a = TopKAccumulator(15)
        a.offer_many(dists, ids)
        b = TopKAccumulator(15)
        for d, i in zip(dists, ids):
            b.offer(d, i)
        np.testing.assert_array_equal(a.result()[0], b.result()[0])
        np.testing.assert_array_equal(a.result()[1], b.result()[1])

    def test_offer_many_on_prefilled_heap(self, rng):
        """Bulk merging into a heap that already holds candidates."""
        first = rng.uniform(size=50)
        second = rng.uniform(size=200)
        ids1 = np.arange(50)
        ids2 = np.arange(50, 250)
        a = TopKAccumulator(20)
        a.offer_many(first, ids1)
        a.offer_many(second, ids2)
        b = TopKAccumulator(20)
        for d, i in zip(np.concatenate([first, second]),
                        np.concatenate([ids1, ids2])):
            b.offer(d, i)
        np.testing.assert_array_equal(a.result()[0], b.result()[0])
        np.testing.assert_array_equal(a.result()[1], b.result()[1])
        assert a.threshold == b.threshold

    def test_offer_many_small_batches_use_heap_path(self):
        """Below the bulk threshold the per-offer path is equivalent."""
        a = TopKAccumulator(4)
        b = TopKAccumulator(4)
        for start in range(0, 12, 3):  # batches of 3 < _BULK_MIN
            dists = np.array([1.0, 0.5, 2.0]) + start
            ids = np.arange(start, start + 3)
            a.offer_many(dists, ids)
            for d, i in zip(dists, ids):
                b.offer(d, i)
        np.testing.assert_array_equal(a.result()[0], b.result()[0])

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            TopKAccumulator(0)


class TestSelectTopK:
    def test_matches_accumulator(self, rng):
        dists = rng.uniform(size=500)
        ids = rng.permutation(500)
        ids_a, dists_a = select_topk(dists, ids, 20)
        acc = TopKAccumulator(20)
        acc.offer_many(dists, ids)
        ids_b, dists_b = acc.result()
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(dists_a, dists_b)

    def test_boundary_ties_resolved_by_id(self):
        """Regression: argpartition alone returns arbitrary tie members."""
        dists = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 3.0])
        ids = np.array([50, 40, 30, 20, 10, 0])
        chosen, _ = select_topk(dists, ids, 3)
        np.testing.assert_array_equal(chosen, [50, 10, 20])

    def test_k_larger_than_n(self):
        ids, dists = select_topk(np.array([2.0, 1.0]), np.array([7, 8]), 10)
        np.testing.assert_array_equal(ids, [8, 7])

    def test_many_duplicate_distances(self):
        dists = np.zeros(100)
        ids = np.arange(100)[::-1].copy()
        chosen, _ = select_topk(dists, ids, 5)
        np.testing.assert_array_equal(chosen, [0, 1, 2, 3, 4])

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            select_topk(np.zeros(3), np.zeros(4, dtype=np.int64), 2)


class TestSelectTopKRows:
    """The row-wise kernel is the per-row call, byte for byte."""

    @staticmethod
    def assert_rows_equal(distances, ids, k):
        got_ids, got_dists = select_topk_rows(distances, ids, k)
        width = min(k, distances.shape[1])
        assert got_ids.shape == got_dists.shape == (len(distances), width)
        assert got_ids.dtype == np.int64 and got_dists.dtype == np.float64
        for i, row in enumerate(distances):
            want_ids, want_dists = select_topk(row, ids if ids.ndim == 1 else ids[i], k)
            assert got_ids[i].tobytes() == want_ids.tobytes()
            assert got_dists[i].tobytes() == want_dists.tobytes()

    @given(
        b=st.integers(1, 12),
        n=st.one_of(
            st.integers(0, 600),
            # the widths a run of small partitions packs into one block
            st.integers(0, 2000),
            # both sides of the whole-block / partition crossover
            st.integers(-2, 2).map(lambda offset: ("crossover", offset)),
        ),
        k_kind=st.sampled_from(["below", "at", "above", "100"]),
        n_values=st.integers(1, 8),
        own_ids=st.booleans(),
        # the block path a slice of rows at a time
        block_entries=st.sampled_from([topk_module._BLOCK_ENTRIES, 1, 700]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_row_call(
        self, b, n, k_kind, n_values, own_ids, block_entries, seed
    ):
        """Integer-valued distances (ties at the k-th distance are the
        rule), unsorted ids with duplicates, k below, at and above n and
        k = 100, whole blocks and slices of rows."""
        if isinstance(n, tuple):
            n = max(topk_module._WHOLE_BLOCK_SORT_MAX // b + n[1], 0)
        rng = np.random.default_rng(seed)
        distances = rng.integers(0, n_values, size=(b, n)).astype(np.float64)
        ids = rng.integers(0, max(n // 2, 1), size=(b, n) if own_ids else n)
        k = {
            "below": int(rng.integers(1, max(n, 2))),
            "at": max(n, 1),
            "above": n + int(rng.integers(1, 5)),
            "100": 100,
        }[k_kind]
        with mock.patch.object(topk_module, "_BLOCK_ENTRIES", block_entries):
            self.assert_rows_equal(distances, ids, k)

    def test_boundary_ties_resolved_by_id_in_every_row(self):
        distances = np.array([[1.0, 2.0, 2.0, 2.0, 2.0, 3.0], [2.0, 2.0, 0.0, 2.0, 9.0, 2.0]])
        ids = np.array([50, 40, 30, 20, 10, 0])
        chosen, _ = select_topk_rows(distances, ids, 3)
        np.testing.assert_array_equal(chosen, [[50, 10, 20], [30, 0, 20]])

    def test_empty_rows_and_blocks(self):
        for shape in ((0, 5), (3, 0), (1, 0)):
            ids, dists = select_topk_rows(np.empty(shape), np.empty(shape[1], np.int64), 4)
            assert ids.shape == dists.shape == (shape[0], min(4, shape[1]))

    def test_rejects_bad_arguments(self):
        block = np.zeros((2, 3))
        with pytest.raises(ConfigurationError):
            select_topk_rows(block, np.arange(3), 0)
        with pytest.raises(ConfigurationError):
            select_topk_rows(block, np.arange(4), 1)
        with pytest.raises(ConfigurationError):
            select_topk_rows(block[0], np.arange(3), 1)
