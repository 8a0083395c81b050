"""Unit tests for Lloyd k-means (repro.pq.kmeans)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.pq import kmeans
from repro.pq.kmeans import (
    KMeans,
    _kmeanspp_init,
    assign_to_centroids,
    squared_distances,
)


class TestSquaredDistances:
    def test_matches_naive_computation(self, rng):
        points = rng.normal(size=(20, 5))
        centroids = rng.normal(size=(7, 5))
        expected = np.array(
            [[np.sum((p - c) ** 2) for c in centroids] for p in points]
        )
        np.testing.assert_allclose(
            squared_distances(points, centroids), expected, rtol=1e-10
        )

    def test_zero_distance_on_identical_points(self):
        points = np.ones((3, 4))
        d = squared_distances(points, points)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)

    def test_never_negative(self, rng):
        # Large magnitudes provoke float cancellation; must clamp to 0.
        points = rng.normal(loc=1e6, size=(50, 8))
        d = squared_distances(points, points)
        assert (d >= 0.0).all()


class TestAssignToCentroids:
    def test_assigns_to_nearest(self, rng):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        points = np.array([[1.0, 1.0], [9.0, 9.0], [0.2, -0.1]])
        labels, dists = assign_to_centroids(points, centroids)
        assert labels.tolist() == [0, 1, 0]
        np.testing.assert_allclose(dists[0], 2.0)

    def test_blockwise_matches_full(self, rng):
        points = rng.normal(size=(100, 6))
        centroids = rng.normal(size=(9, 6))
        l1, d1 = assign_to_centroids(points, centroids, block=7)
        l2, d2 = assign_to_centroids(points, centroids, block=100000)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_allclose(d1, d2)


def reference_distances(points, centroids):
    """The expansion as one expression over the whole input: what
    ``squared_distances`` computed before it finished in place."""
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d = p_sq + c_sq - 2.0 * points @ centroids.T
    np.maximum(d, 0.0, out=d)
    return d


class TestBlockedAssign:
    """The fused, blocked kernel changes no bit of the unblocked result."""

    BLOCK = kmeans._BLOCK
    DSUB = 16  # one sub-vector of a 128-d vector under m=8

    @pytest.mark.parametrize("layout", ["contiguous", "column-sliced"])
    @pytest.mark.parametrize("k", [1, 16, 256])
    @pytest.mark.parametrize(
        "n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
    )
    def test_bytes_match_unblocked_reference(self, n, k, layout):
        rng = np.random.default_rng(n * 1000 + k)
        wide = rng.normal(size=(n, 2 * self.DSUB)) * 30
        points = wide[:, self.DSUB :]  # how ProductQuantizer.fit slices
        if layout == "contiguous":
            points = np.ascontiguousarray(points)
        centroids = rng.normal(size=(k, self.DSUB)) * 30
        full = reference_distances(points, centroids)
        expected_labels = np.argmin(full, axis=1)
        expected_dists = full[np.arange(n), expected_labels]
        labels, dists = assign_to_centroids(points, centroids)
        assert labels.dtype == expected_labels.dtype
        assert labels.tobytes() == expected_labels.tobytes()
        assert dists.tobytes() == expected_dists.tobytes()
        assert squared_distances(points, centroids).tobytes() == full.tobytes()

    def test_no_rows(self):
        labels, dists = assign_to_centroids(np.empty((0, 4)), np.ones((3, 4)))
        assert labels.shape == dists.shape == (0,)

    def test_callers_of_squared_distances_keep_their_bytes(
        self, rng, monkeypatch
    ):
        """``exact_neighbors`` (the recall oracle) and same-size k-means
        index the matrix ``squared_distances`` returns; its in-place
        finish must hand them the same one."""
        from repro.data import ground_truth
        from repro.pq import same_size_kmeans

        base = rng.normal(size=(700, 12)) * 30
        queries = rng.normal(size=(33, 12)) * 30
        points = rng.normal(size=(64, 6)) * 30

        def outputs():
            idx, dist = ground_truth.exact_neighbors(base, queries, 10, block=8)
            balanced = same_size_kmeans.SameSizeKMeans(k=8, seed=2).fit_predict(points)
            return idx.tobytes(), dist.tobytes(), balanced.tobytes()

        fitted = outputs()
        monkeypatch.setattr(ground_truth, "squared_distances", reference_distances)
        monkeypatch.setattr(same_size_kmeans, "squared_distances", reference_distances)
        assert outputs() == fitted


class TestKMeans:
    def test_recovers_separated_clusters(self, rng):
        centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        points = np.concatenate(
            [c + rng.normal(scale=0.5, size=(40, 2)) for c in centers]
        )
        km = KMeans(k=3, seed=0).fit(points)
        # Each true center should be close to some learned centroid.
        for c in centers:
            dists = np.linalg.norm(km.centroids - c, axis=1)
            assert dists.min() < 2.0

    def test_exact_k_centroids(self, rng):
        points = rng.normal(size=(300, 4))
        km = KMeans(k=16, seed=0).fit(points)
        assert km.centroids.shape == (16, 4)

    def test_deterministic_given_seed(self, rng):
        points = rng.normal(size=(200, 3))
        a = KMeans(k=5, seed=7).fit(points).centroids
        b = KMeans(k=5, seed=7).fit(points).centroids
        np.testing.assert_array_equal(a, b)

    def test_n_redo_keeps_best_inertia(self, rng):
        points = rng.normal(size=(200, 3))
        single = KMeans(k=8, seed=3, n_redo=1).fit(points).result_.inertia
        multi = KMeans(k=8, seed=3, n_redo=4).fit(points).result_.inertia
        assert multi <= single + 1e-9

    def test_inertia_decreases_with_more_clusters(self, rng):
        points = rng.normal(size=(400, 4))
        i4 = KMeans(k=4, seed=0).fit(points).result_.inertia
        i32 = KMeans(k=32, seed=0).fit(points).result_.inertia
        assert i32 < i4

    def test_handles_duplicate_points(self):
        # More clusters than distinct values: empty-cluster reseeding
        # must still return k centroids without crashing.
        points = np.repeat(np.arange(4.0)[:, None], 25, axis=0)
        km = KMeans(k=4, seed=0).fit(points)
        assert km.centroids.shape == (4, 1)
        assert km.result_.inertia < 1e-9

    def test_predict_maps_to_nearest(self, rng):
        points = rng.normal(size=(100, 2))
        km = KMeans(k=4, seed=0).fit(points)
        labels = km.predict(points)
        _, dists = assign_to_centroids(points, km.centroids)
        d_assigned = np.linalg.norm(
            points - km.centroids[labels], axis=1) ** 2
        np.testing.assert_allclose(d_assigned, dists, rtol=1e-9)

    def test_fixed_point_exit_reuses_its_distances(self, rng, monkeypatch):
        """On the labels-unchanged exit the centroids have not moved since
        the last assign, so its distances are the inertia: no extra
        assign, same bits. The other exits still re-assign."""
        points = rng.normal(size=(300, 4))
        calls = []
        real = kmeans.assign_to_centroids

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kmeans, "assign_to_centroids", counting)
        result = KMeans(k=4, seed=3, max_iter=100, tol=0.0).fit(points).result_
        assert result.converged and result.n_iter < 100
        assert len(calls) == result.n_iter
        _, dists = real(points, result.centroids)
        assert result.inertia == float(dists.sum())
        labels, _ = real(points, result.centroids)
        assert labels.tobytes() == result.labels.tobytes()

        calls.clear()
        capped = KMeans(k=4, seed=3, max_iter=2, tol=0.0).fit(points).result_
        assert not capped.converged
        assert len(calls) == capped.n_iter + 1
        _, dists = real(points, capped.centroids)
        assert capped.inertia == float(dists.sum())

    def test_non_finite_points_fail_loudly(self):
        points = np.ones((20, 3))
        points[4, 1] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            KMeans(k=3, seed=0).fit(points)

    def test_rejects_k_above_n(self):
        with pytest.raises(ConfigurationError):
            KMeans(k=10).fit(np.zeros((5, 2)))

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            KMeans(k=0).fit(np.zeros((5, 2)))

    def test_rejects_non_2d_input(self):
        with pytest.raises(ConfigurationError):
            KMeans(k=2).fit(np.zeros(10))

    def test_centroids_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            _ = KMeans(k=2).centroids


class TestKMeansPlusPlusSeeding:
    @staticmethod
    def unhoisted(points, k, rng):
        """The seeding as one ``squared_distances`` call per centroid."""
        n = points.shape[0]
        centroids = np.empty((k, points.shape[1]), dtype=np.float64)
        centroids[0] = points[rng.integers(n)]
        closest = squared_distances(points, centroids[0:1])[:, 0]
        for i in range(1, k):
            total = closest.sum()
            if total <= 0.0:
                idx = rng.integers(n)
            else:
                idx = rng.choice(n, p=closest / total)
            centroids[i] = points[idx]
            d_new = squared_distances(points, centroids[i : i + 1])[:, 0]
            np.minimum(closest, d_new, out=closest)
        return centroids

    @pytest.mark.parametrize(
        "n, d, k", [(4000, 16, 256), (4000, 8, 16), (300, 3, 256), (1000, 1, 7)]
    )
    def test_seed_bytes_match_per_centroid_formula(self, rng, n, d, k):
        """Taking |x|^2 and 2x out of the loop changes no operand."""
        points = rng.normal(size=(n, 2 * d))[:, d:] * 30  # a strided view, as fit passes
        expected = self.unhoisted(points, k, np.random.default_rng(9))
        seeded = _kmeanspp_init(points, k, np.random.default_rng(9))
        assert seeded.tobytes() == expected.tobytes()

    def test_coincident_points_fall_back_to_uniform(self):
        points = np.ones((40, 5))
        expected = self.unhoisted(points, 40, np.random.default_rng(9))
        seeded = _kmeanspp_init(points, 40, np.random.default_rng(9))
        assert seeded.tobytes() == expected.tobytes()

    def test_fitted_codebook_bytes_unchanged(self, rng, monkeypatch):
        points = rng.normal(size=(600, 4))
        fitted = KMeans(k=16, max_iter=3, seed=5).fit(points).centroids
        monkeypatch.setattr(kmeans, "_kmeanspp_init", self.unhoisted)
        reference = KMeans(k=16, max_iter=3, seed=5).fit(points).centroids
        assert fitted.tobytes() == reference.tobytes()
