"""Lloyd's k-means, implemented from scratch on numpy.

This is the quantizer-learning substrate of the paper: both the
sub-quantizers of the product quantizer (Section 2.1) and the coarse
quantizer of the IVFADC index (Section 2.2) are Lloyd-optimal quantizers
built with k-means [20].

The implementation favours predictable behaviour over raw speed:

* k-means++ seeding (deterministic given a seed),
* empty clusters are re-seeded from the points farthest from their
  centroid, so the codebook always has exactly ``k`` distinct entries,
* squared-L2 distances computed in L2-sized blocks, which bounds peak
  memory and keeps each block's passes out of main memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["KMeans", "KMeansResult", "squared_distances", "assign_to_centroids"]

#: Rows per block of :func:`assign_to_centroids`. A 1 024 x 256 float64
#: distance block is 2 MiB: it and the ``|x|^2 + |c|^2`` term it is
#: subtracted from stay in L2 while the product, the subtract, the clamp
#: and the argmin pass over them. Measured on 16 384 x 16 against 256
#: centroids: 512 to 2 048 rows read the same, 4 096 is 15 % slower and
#: one 16 384-row block 70 % slower.
_BLOCK = 1024


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
    return _expand(2.0 * points, p_sq, centroids.T, c_sq)


def _expand(
    doubled: np.ndarray, p_sq: np.ndarray, centroids_t: np.ndarray, c_sq: np.ndarray
) -> np.ndarray:
    """``(|x|^2 + |c|^2) - 2x.c`` clamped at zero, finished in the
    product's own buffer. The one place the expansion is written: every
    caller hands it the same operands, so hoisting them changes no bit."""
    d = doubled @ centroids_t
    np.subtract(p_sq + c_sq, d, out=d)
    np.maximum(d, 0.0, out=d)
    return d


def assign_to_centroids(
    points: np.ndarray, centroids: np.ndarray, block: int = _BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest centroid.

    Returns ``(labels, distances)`` where ``labels[i]`` is the index of the
    centroid nearest to ``points[i]`` and ``distances[i]`` the squared L2
    distance to it. The arithmetic is :func:`squared_distances`' (same
    operands in the same order, so the same bits), fused with the argmin:
    ``|x|^2``, ``|c|^2`` and ``c.T`` are taken once, and each block of
    ``block`` rows is finished in place and read (argmin, picked
    distance) before the next one is computed, so the ``(n, k)`` distance
    matrix never exists.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n = points.shape[0]
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    centroids_t = centroids.T
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    # The last block takes the remainder, so no product is shorter than
    # ``block`` rows unless the input is: BLAS picks other kernels (and
    # other roundings) for a handful of rows than for the same rows
    # inside a tall matrix, and a short tail would change their bits.
    n_blocks = max(1, n // block)
    for i in range(n_blocks):
        start = i * block
        stop = n if i == n_blocks - 1 else start + block
        d = _expand(2.0 * points[start:stop], p_sq[start:stop], centroids_t, c_sq)
        nearest = np.argmin(d, axis=1)
        labels[start:stop] = nearest
        dists[start:stop] = d[np.arange(stop - start), nearest]
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
        centroids_moved = True
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            new_labels, dists = assign_to_centroids(points, centroids)
            inertia = float(dists.sum())
            if np.array_equal(new_labels, labels):
                # Fixed point: ``dists`` already belongs to these centroids.
                converged = True
                centroids_moved = False
                break
            labels = new_labels
            centroids = _update_centroids(points, labels, self.k, dists, rng)
            if prev_inertia - inertia <= self.tol * max(prev_inertia, 1e-30):
                converged = True
                break
            prev_inertia = inertia
        if centroids_moved:
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
        c_sq = np.einsum("ij,ij->i", c, c)[None, :]
        return _expand(doubled, p_sq, c.T, c_sq)[:, 0]

    first = rng.integers(n)
    centroids[0] = points[first]
    closest = distances_to(0)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; fall
            # back to uniform sampling to keep the codebook full.
            idx = rng.integers(n)
        elif not np.isfinite(total):
            raise ConfigurationError(
                "k-means++ seeding needs finite points (NaN or inf in the input)"
            )
        else:
            # ``rng.choice(n, p=closest / total)`` without its per-call
            # validation of p: the same cumsum, renormalisation, uniform
            # draw and right-sided search, so the same index.
            cdf = np.cumsum(closest / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
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
