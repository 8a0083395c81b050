"""Lloyd's k-means, implemented from scratch on numpy.

This is the quantizer-learning substrate of the paper: both the
sub-quantizers of the product quantizer (Section 2.1) and the coarse
quantizer of the IVFADC index (Section 2.2) are Lloyd-optimal quantizers
built with k-means [20].

The implementation favours predictable behaviour over raw speed:

* k-means++ seeding (deterministic given a seed),
* empty clusters are re-seeded from the points farthest from their
  centroid, so the codebook always has exactly ``k`` distinct entries,
* squared-L2 distances computed blockwise to bound peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["KMeans", "KMeansResult", "squared_distances", "assign_to_centroids"]

#: Number of points per block when computing full distance matrices.
_BLOCK = 16384


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Return the ``(n, k)`` matrix of squared L2 distances.

    Uses the expansion ``|x - c|^2 = |x|^2 - 2 x.c + |c|^2`` which turns the
    computation into a single matrix product. Small negative values caused
    by floating-point cancellation are clamped to zero.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d = p_sq + c_sq - 2.0 * points @ centroids.T
    np.maximum(d, 0.0, out=d)
    return d


def assign_to_centroids(
    points: np.ndarray, centroids: np.ndarray, block: int = _BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest centroid.

    Returns ``(labels, distances)`` where ``labels[i]`` is the index of the
    centroid nearest to ``points[i]`` and ``distances[i]`` the squared L2
    distance to it. Processes points in blocks of ``block`` rows so the
    ``(n, k)`` distance matrix never fully materializes.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = squared_distances(points[start:stop], centroids)
        labels[start:stop] = np.argmin(d, axis=1)
        dists[start:stop] = d[np.arange(stop - start), labels[start:stop]]
    return labels, dists


@dataclass
class KMeansResult:
    """Outcome of a k-means run.

    Attributes:
        centroids: ``(k, d)`` array of cluster centers.
        labels: ``(n,)`` assignment of each training point.
        inertia: sum of squared distances of points to assigned centroids.
        n_iter: number of Lloyd iterations actually performed.
        converged: whether the assignment reached a fixed point before
            ``max_iter``.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool


@dataclass
class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Args:
        k: number of clusters (codebook size).
        max_iter: maximum number of Lloyd iterations.
        tol: relative inertia improvement below which we declare
            convergence.
        seed: RNG seed; the whole run is deterministic given the seed.
        n_redo: number of independent restarts; the best inertia wins.
    """

    k: int
    max_iter: int = 25
    tol: float = 1e-4
    seed: int = 0
    n_redo: int = 1
    result_: KMeansResult | None = field(default=None, repr=False)

    def fit(self, points: np.ndarray) -> "KMeans":
        """Cluster ``points`` (shape ``(n, d)``); returns ``self``."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ConfigurationError("k-means expects a 2-D array of points")
        n = points.shape[0]
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if n < self.k:
            raise ConfigurationError(
                f"cannot build {self.k} clusters from {n} points"
            )
        best: KMeansResult | None = None
        for redo in range(max(1, self.n_redo)):
            rng = np.random.default_rng(self.seed + redo)
            result = self._run_once(points, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        self.result_ = best
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def centroids(self) -> np.ndarray:
        """``(k, d)`` codebook; raises if :meth:`fit` was not called."""
        if self.result_ is None:
            from ..exceptions import NotFittedError

            raise NotFittedError("KMeans.fit has not been called")
        return self.result_.centroids

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Map each point to the index of its nearest centroid."""
        labels, _ = assign_to_centroids(points, self.centroids)
        return labels

    # -- internals ---------------------------------------------------------

    def _run_once(self, points: np.ndarray, rng: np.random.Generator) -> KMeansResult:
        centroids = _kmeanspp_init(points, self.k, rng)
        labels = np.full(points.shape[0], -1, dtype=np.int64)
        prev_inertia = np.inf
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            new_labels, dists = assign_to_centroids(points, centroids)
            inertia = float(dists.sum())
            if np.array_equal(new_labels, labels):
                converged = True
                labels = new_labels
                break
            labels = new_labels
            centroids = _update_centroids(points, labels, self.k, dists, rng)
            if prev_inertia - inertia <= self.tol * max(prev_inertia, 1e-30):
                converged = True
                break
            prev_inertia = inertia
        _, dists = assign_to_centroids(points, centroids)
        return KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=float(dists.sum()),
            n_iter=n_iter,
            converged=converged,
        )


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of initial centroids."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    # squared_distances(points, one centroid) with its two point-only
    # terms computed once instead of per centroid; every product and sum
    # has the same operands, so the seeds are bit-identical to calling it.
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    doubled = 2.0 * points

    def distances_to(i: int) -> np.ndarray:
        c = centroids[i : i + 1]
        d = p_sq + np.einsum("ij,ij->i", c, c)[None, :] - doubled @ c.T
        np.maximum(d, 0.0, out=d)
        return d[:, 0]

    first = rng.integers(n)
    centroids[0] = points[first]
    closest = distances_to(0)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; fall
            # back to uniform sampling to keep the codebook full.
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[i] = points[idx]
        np.minimum(closest, distances_to(i), out=closest)
    return centroids


def _update_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    dists: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean update; empty clusters are re-seeded on the farthest points."""
    d = points.shape[1]
    sums = np.zeros((k, d), dtype=np.float64)
    np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    empty = counts == 0
    counts[empty] = 1.0
    centroids = sums / counts[:, None]
    if empty.any():
        # Steal the points currently worst-served by their centroid.
        order = np.argsort(dists)[::-1]
        for centroid_idx, point_idx in zip(np.flatnonzero(empty), order):
            centroids[centroid_idx] = points[point_idx]
    return centroids
