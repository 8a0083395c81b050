"""Top-k candidate management shared by all scanners.

The paper describes scanners returning a single nearest neighbor for
clarity but evaluates with ``topk`` of 100-1000 (Section 5.1). Scanners
here maintain a bounded worst-first heap; its maximum — the distance to
the current topk-th nearest neighbor — is the pruning threshold of PQ
Fast Scan.

Ties are broken by database id so every scanner returns byte-identical
results regardless of scan order, which the exactness tests rely on.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["TopKAccumulator", "select_topk", "select_topk_rows"]


class TopKAccumulator:
    """Bounded collection of the ``k`` smallest ``(distance, id)`` pairs.

    Implemented as a max-heap (negated distances) so the current worst
    kept candidate — the pruning threshold — is O(1) to read.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.k = k
        # Heap of (-distance, -id): the root is the worst kept candidate,
        # with the *largest id* evicted first among equal distances so the
        # final set matches sort-by-(distance, id).
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def threshold(self) -> float:
        """Distance of the current k-th best candidate (inf if not full)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.k

    def offer(self, distance: float, identifier: int) -> bool:
        """Consider one candidate; returns True if it was kept."""
        item = (-float(distance), -int(identifier))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
            return True
        if item > self._heap[0]:
            heapq.heapreplace(self._heap, item)
            return True
        return False

    #: Below this many surviving candidates the per-candidate heap path
    #: beats rebuilding the heap from a bulk top-k selection.
    _BULK_MIN = 8

    def offer_many(self, distances: np.ndarray, identifiers: np.ndarray) -> None:
        """Bulk offer: vectorized pre-filter, then a bulk top-k merge.

        Candidates that survive the threshold filter are merged with the
        current heap contents through :func:`select_topk`, which applies
        the same (distance, id) ordering as per-candidate heap pushes —
        the final kept set is identical either way. Tiny survivor sets
        (a full accumulator's threshold discards most of what a later
        block offers) still use the O(s log k) heap path.
        """
        distances = np.asarray(distances, dtype=np.float64)
        identifiers = np.asarray(identifiers, dtype=np.int64)
        if len(distances) != len(identifiers):
            raise ConfigurationError("distances and identifiers length mismatch")
        keep = distances <= self.threshold
        n_kept = int(keep.sum())
        if n_kept == 0:
            return
        if n_kept < self._BULK_MIN:
            for d, i in zip(distances[keep], identifiers[keep]):
                self.offer(d, i)
            return
        cand_d = distances[keep]
        cand_i = identifiers[keep]
        if self._heap:
            held_d = np.fromiter(
                (-d for d, _ in self._heap), np.float64, count=len(self._heap)
            )
            held_i = np.fromiter(
                (-i for _, i in self._heap), np.int64, count=len(self._heap)
            )
            cand_d = np.concatenate([held_d, cand_d])
            cand_i = np.concatenate([held_i, cand_i])
        ids, dists = select_topk(cand_d, cand_i, self.k)
        self._heap = [(-float(d), -int(i)) for d, i in zip(dists, ids)]
        heapq.heapify(self._heap)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Final ``(ids, distances)`` sorted by (distance, id) ascending."""
        pairs = sorted((-d, -i) for d, i in self._heap)
        ids = np.array([i for _, i in pairs], dtype=np.int64)
        dists = np.array([d for d, _ in pairs], dtype=np.float64)
        return ids, dists


def select_topk(
    distances: np.ndarray, identifiers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized top-k selection with (distance, id) tie-breaking.

    Returns ``(ids, distances)`` of length ``min(k, n)`` sorted ascending.
    """
    distances = np.asarray(distances, dtype=np.float64)
    identifiers = np.asarray(identifiers, dtype=np.int64)
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    n = len(distances)
    if n != len(identifiers):
        raise ConfigurationError("distances and identifiers length mismatch")
    k = min(k, n)
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if k < n:
        # argpartition picks *arbitrary* members among ties at the k-th
        # distance, so widen the candidate set to every element tied with
        # the boundary before breaking ties by id.
        part = np.argpartition(distances, k - 1)[:k]
        kth = distances[part].max()
        candidates = np.flatnonzero(distances <= kth)
        distances, identifiers = distances[candidates], identifiers[candidates]
    order = np.lexsort((identifiers, distances))[:k]
    return identifiers[order], distances[order]


#: Longest row :func:`select_topk_rows` sorts whole. Measured on the
#: 2-core box as one ``lexsort(axis=1)`` over the block against one
#: :func:`select_topk` call per row (normal distances, ``b`` of 2, 4, 8,
#: 16 and 64 rows, 8 to 384 candidates, ``k`` 10 and 100): the block sort
#: takes 0.1-0.75x the time of the calls up to 160 candidates, 0.53-0.93x
#: at 192, 0.6-1.05x at 224, 0.8-1.4x at 256 and 1.0-2.4x from 320 up (a
#: whole sort grows as ``n log n``; a call pays ~10 us, then partitions).
_WHOLE_ROW_SORT_MAX = 192


def select_topk_rows(
    distances: np.ndarray, identifiers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_topk` over every row of a ``(b, n)`` distance block.

    ``identifiers`` is ``(n,)`` (one partition scanned for ``b`` queries)
    or ``(b, n)`` (each row its own candidates). Returns ``(ids,
    distances)`` of shape ``(b, min(k, n))`` whose row ``i`` is byte for
    byte ``select_topk(distances[i], identifiers or identifiers[i], k)``:
    the (distance, id) order is total up to exact duplicates, so sorting
    a short row whole picks what partition-then-widen picks. One row, or
    rows past :data:`_WHOLE_ROW_SORT_MAX`, go through the per-row call.
    """
    distances = np.asarray(distances, dtype=np.float64)
    identifiers = np.asarray(identifiers, dtype=np.int64)
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if distances.ndim != 2 or identifiers.shape[-1:] != distances.shape[1:]:
        raise ConfigurationError("distances and identifiers shape mismatch")
    b, n = distances.shape
    shared = identifiers.ndim == 1
    if b == 1:  # straight to the call: a one-row job pays nothing for blocks
        ids, dists = select_topk(distances[0], identifiers.reshape(n), k)
        return ids[None, :], dists[None, :]
    if n > _WHOLE_ROW_SORT_MAX:
        ids = np.empty((b, min(k, n)), dtype=np.int64)
        dists = np.empty(ids.shape, dtype=np.float64)
        for i in range(b):
            ids[i], dists[i] = select_topk(
                distances[i], identifiers if shared else identifiers[i], k
            )
        return ids, dists
    keys = np.broadcast_to(identifiers, distances.shape)
    order = np.lexsort((keys, distances), axis=1)[:, :k]
    rows = np.arange(b)[:, None]
    ids = identifiers[order] if shared else identifiers[rows, order]
    return ids, distances[rows, order]
