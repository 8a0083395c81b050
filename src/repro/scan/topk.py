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


def keep_size(keep: float, n: int, topk: int) -> int:
    """Rows a keep phase scores exactly before any bound prunes: the
    ``keep`` fraction of ``n`` rounded up, at least ``topk`` (a full
    temporary top-k is what bounds ``qmax``, Section 4.4), at most ``n``."""
    return min(n, max(int(np.ceil(keep * n)), topk))


def dead_rows(ids: np.ndarray, tombstones: np.ndarray) -> np.ndarray | None:
    """Which of ``ids`` a job's ``tombstones`` name, or None for a clean
    job (scanned as is)."""
    return np.isin(ids, tombstones) if len(tombstones) else None


def live_sample(
    order: np.ndarray, keep: float, topk: int, dead: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """The rows a keep (sample) phase scores exactly, and how many rows
    are live: the first :func:`keep_size` of the live rows of ``order``
    (the scanner's sample order). A row a tombstone names (``dead``) is
    never sampled, so the sample holds a full temporary top-k wherever
    the live rows do; with no dead row it is what it always was.
    """
    if dead is not None:
        order = order[~dead[order]]
    return order[: keep_size(keep, len(order), topk)], len(order)


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


#: Largest block :func:`select_topk_rows` sorts whole, in candidates
#: (rows x row length). Measured on a 2-core x86 host, uniform distances,
#: ``b`` of 2 to 128 rows, 16 to 512 candidates, ``k`` 10 and 100: the
#: block path (:func:`_block_topk`) against one ``lexsort(axis=1)`` took
#: 1.2-3.9x the time at 128-768 candidates, 0.6-1.7x at 1 024 and
#: 0.06-0.6x from 1 536 up, except where rows are shorter than ``2k``
#: (0.7-2.1x at any size: most of a row is then a candidate anyway).
_WHOLE_BLOCK_SORT_MAX = 1024

#: Most candidates the block path holds at once: a larger block goes
#: through it a slice of rows at a time, so its temporaries (a copy to
#: partition, the candidates) stay a few hundred KiB however many rows
#: the block has. ``serve-mixed``'s recall check merges 1 024 queries
#: at ``k = 100`` (a ``(1 024, 400)`` block): in one slice its
#: ``peak_rss_mb`` read 203.4 MiB, in slices 201.7.
_BLOCK_ENTRIES = 1 << 15


def select_topk_rows(
    distances: np.ndarray, identifiers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_topk` over every row of a ``(b, n)`` distance block.

    ``identifiers`` is ``(n,)`` (one partition scanned for ``b`` queries)
    or ``(b, n)`` (each row its own candidates). Returns ``(ids,
    distances)`` of shape ``(b, min(k, n))`` whose row ``i`` is byte for
    byte ``select_topk(distances[i], identifiers or identifiers[i], k)``.
    One row goes through that call. A small block (at most
    :data:`_WHOLE_BLOCK_SORT_MAX` candidates, or rows shorter than
    ``2k``) is sorted whole: the (distance, id) order is total up to
    exact duplicates, so that picks what partition-then-widen picks. A
    larger one takes the per-row call's steps for every row at once
    (:func:`_block_topk`), :data:`_BLOCK_ENTRIES` candidates at a time.
    """
    distances = np.asarray(distances, dtype=np.float64)
    identifiers = np.asarray(identifiers, dtype=np.int64)
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if distances.ndim != 2 or identifiers.shape[-1:] != distances.shape[1:]:
        raise ConfigurationError("distances and identifiers shape mismatch")
    b, n = distances.shape
    if b == 1:  # straight to the call: a one-row job pays nothing for blocks
        ids, dists = select_topk(distances[0], identifiers.reshape(n), k)
        return ids[None, :], dists[None, :]
    if n < 2 * k or b * n <= _WHOLE_BLOCK_SORT_MAX:
        return _sorted_rows(distances, identifiers, k)
    step = max(1, _BLOCK_ENTRIES // n)
    ids, dists = zip(*(
        _block_topk(
            distances[i : i + step],
            identifiers if identifiers.ndim == 1 else identifiers[i : i + step],
            k,
        )
        for i in range(0, b, step)
    ))
    return np.concatenate(ids), np.concatenate(dists)


def _sorted_rows(
    distances: np.ndarray, identifiers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` of every row sorted whole by (distance, id)."""
    keys = np.broadcast_to(identifiers, distances.shape)
    order = np.lexsort((keys, distances), axis=1)[:, :k]
    rows = np.arange(len(distances))[:, None]
    ids = identifiers[order] if identifiers.ndim == 1 else identifiers[rows, order]
    return ids, distances[rows, order]


def _block_topk(
    distances: np.ndarray, identifiers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_topk`'s partition, widen and sort, one call each for
    the block (``k < n``).

    Every row's k-th distance comes from one ``partition``; a row's
    candidates are its entries at or under it, ties included, packed
    left in row order behind ``(inf, int64 max)`` padding; one
    ``lexsort`` of the packed block orders them. A row has at least
    ``k`` candidates, so the padding is never picked before one (and
    where a candidate equals it, the bytes are the same).
    """
    kth = np.partition(distances, k - 1, axis=1)[:, k - 1]
    rows, cols = np.divmod(np.flatnonzero(distances <= kth[:, None]), distances.shape[1])
    counts = np.bincount(rows, minlength=len(distances))
    packed = np.arange(int(counts.max())) < counts[:, None]
    ids = np.full(packed.shape, np.iinfo(np.int64).max, dtype=np.int64)
    dists = np.full(packed.shape, np.inf)
    ids[packed] = identifiers[cols] if identifiers.ndim == 1 else identifiers[rows, cols]
    dists[packed] = distances[rows, cols]
    return _sorted_rows(dists, ids, k)
