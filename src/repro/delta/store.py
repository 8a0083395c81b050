"""Delta segments and tombstones: the mutable overlay over a read-only base.

The base IVFADC artifact stays immutable (and mmap-able) exactly as the
read-only engine left it.  Mutations accumulate in a :class:`DeltaStore`,
which holds what the index holds, codes: a pending row costs its ``m``
code bytes plus 16 (id and sequence number), never its raw vector.

* **delta segments** — per-partition arrays of plain PQ codes for rows
  added since the last compaction.  Deltas are small, so they are scanned
  exactly with the naive scanner (no grouping, no min-tables) and merged
  into the same top-k accumulation as the base scan.
* **tombstones** — ids masked out of the *base* at query time.  Every
  ``add`` tombstones its ids first (upsert barrier: a stale base copy of
  a re-added id must never surface) and every ``delete`` tombstones too.
  A tombstone is a filter, not a copy: a base scan it hits runs that
  many rows wider and drops its ids.  Segment rows are removed
  *physically*, so the live segments never contain a deleted id.

Every mutation carries a monotonically increasing sequence number; the
tombstone map remembers the sequence of the mutation that created it.
Compaction drains a :meth:`DeltaStore.snapshot` at sequence ``S`` and
later commits it with :meth:`DeltaStore.commit`, which drops exactly the
state with sequence ``<= S`` — mutations that raced with the (lock-free)
fold survive in the delta and stay correct: a post-snapshot tombstone
masks any copy of its id that compaction folded into the new base.

All arrays are copy-on-write (rebuilt, never mutated in place), so a
:class:`DeltaView` handed to a reader, and a :class:`DeltaSnapshot`
handed to compaction, stay stable while writers keep mutating the store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol

import numpy as np

from ..exceptions import ConfigurationError
from ..ivf.partition import Partition

__all__ = ["DeltaStore", "DeltaView", "DeltaSnapshot"]


class _HasPartitions(Protocol):
    @property
    def partitions(self) -> list[Partition]: ...


@dataclass(frozen=True)
class DeltaView:
    """Immutable snapshot of the mutable overlay, pinned by one query.

    Attributes:
        segments: partition id -> delta segment (plain PQ codes + ids).
        hits: partition id -> sorted ids of its *base* rows a tombstone
            hits, one per row, for the partitions with a hit (their scans
            run that many rows wider and drop these ids); queries probing
            no such partition take the read-only path.
        tombstone_ids: sorted array of all tombstoned ids.
    """

    segments: Mapping[int, Partition]
    hits: Mapping[int, np.ndarray]
    tombstone_ids: np.ndarray

    @property
    def clean(self) -> bool:
        """True when the view changes nothing (no segments, no hits)."""
        return not self.segments and not self.hits


@dataclass(frozen=True)
class DeltaSnapshot:
    """Drained state handed to compaction: everything with ``seq <= seq``.

    Attributes:
        seq: sequence number the snapshot was cut at.
        tombstone_ids: sorted ids tombstoned at or before ``seq``.
        additions: partition id -> (codes, ids) in insertion order, the
            shape :func:`~repro.delta.fold_index` takes.
        n_rows: total rows across ``additions``.
    """

    seq: int
    tombstone_ids: np.ndarray
    additions: Mapping[int, tuple[np.ndarray, np.ndarray]]
    n_rows: int

    @property
    def empty(self) -> bool:
        return self.n_rows == 0 and len(self.tombstone_ids) == 0


@dataclass(frozen=True)
class _PartitionDelta:
    """Per-partition append-only arrays (rebuilt, never mutated in place)."""

    codes: np.ndarray
    ids: np.ndarray
    seqs: np.ndarray


def _without_rows(
    segments: dict[int, _PartitionDelta],
    column: str,
    dropped: Callable[[np.ndarray], np.ndarray],
) -> tuple[dict[int, _PartitionDelta], int]:
    """Segments minus the rows ``dropped`` marks, and how many it marks.

    ``dropped`` sees one column (``"ids"`` or ``"seqs"``) of every
    pending row at once. Only a segment holding a marked row is rebuilt
    (or gone, when emptied); every other one is carried over as is.
    """
    if not segments:
        return {}, 0
    items = list(segments.items())
    lengths = np.array([len(delta.ids) for _, delta in items])
    drop = dropped(np.concatenate([getattr(delta, column) for _, delta in items]))
    starts = np.cumsum(lengths) - lengths
    out = dict(segments)
    for at in np.flatnonzero(np.logical_or.reduceat(drop, starts)).tolist():
        pid, delta = items[at]
        keep = ~drop[starts[at] : starts[at] + lengths[at]]
        if keep.any():
            out[pid] = _PartitionDelta(
                delta.codes[keep], delta.ids[keep], delta.seqs[keep]
            )
        else:
            del out[pid]
    return out, int(np.count_nonzero(drop))


def _with_rows(
    segments: dict[int, _PartitionDelta],
    labels: np.ndarray,
    codes: np.ndarray,
    ids: np.ndarray,
    seq: int,
) -> dict[int, _PartitionDelta]:
    """Segments with the given rows appended to their partitions."""
    out = dict(segments)
    for pid in np.unique(labels).tolist():
        mask = labels == pid
        added = _PartitionDelta(
            codes[mask], ids[mask], np.full(int(mask.sum()), seq, np.int64)
        )
        existing = out.get(pid)
        if existing is not None:
            added = _PartitionDelta(
                np.concatenate([existing.codes, added.codes]),
                np.concatenate([existing.ids, added.ids]),
                np.concatenate([existing.seqs, added.seqs]),
            )
        out[pid] = added
    return out


@dataclass(frozen=True)
class _BaseIds:
    """Every id of one base index, sorted, and the partition it sits in.

    Built on the first cut against a base (one sort of its ids) and
    dropped at :meth:`DeltaStore.commit`, where the base is replaced, so
    a cut finds the rows its tombstones hit with two binary searches
    over the base instead of one ``isin`` per partition.
    """

    index: _HasPartitions
    sorted_ids: np.ndarray
    pids: np.ndarray  # partition of each sorted id

    @classmethod
    def of(cls, index: _HasPartitions) -> "_BaseIds":
        parts = index.partitions
        ids = np.concatenate([part.ids for part in parts])
        pids = np.repeat(np.arange(len(parts)), [len(part.ids) for part in parts])
        order = np.argsort(ids)
        return cls(index, ids[order], pids[order])

    def hits(self, tombstone_ids: np.ndarray) -> dict[int, np.ndarray]:
        """Ids of the base rows the tombstones hit, per partition with a
        hit: sorted, one per row."""
        lo = np.searchsorted(self.sorted_ids, tombstone_ids, side="left")
        hi = np.searchsorted(self.sorted_ids, tombstone_ids, side="right")
        # Every position in [lo, hi) of every tombstone: base ids may repeat.
        counts = hi - lo
        shift = np.repeat(lo + counts - np.cumsum(counts), counts)
        at = np.arange(counts.sum()) + shift
        # A stable sort by partition keeps each partition's ids ascending.
        at = at[np.argsort(self.pids[at], kind="stable")]
        pids, starts = np.unique(self.pids[at], return_index=True)
        return dict(zip(pids.tolist(), np.split(self.sorted_ids[at], starts[1:])))


class DeltaStore:
    """Thread-safe accumulation of adds/deletes over a read-only base.

    The store is deliberately index-agnostic: callers hand it already
    routed and encoded rows (``apply_add``; the raw vectors never get
    here) and it only needs the base index again to cut a
    :class:`DeltaView` (to find the base rows its tombstones hit).
    Coarse and product quantizers never change across compactions, so
    the codes ``add`` made are the codes compaction folds.
    """

    def __init__(self, *, generation: int = 0) -> None:
        self._lock = threading.Lock()
        self._segments: dict[int, _PartitionDelta] = {}
        self._n_rows = 0  # rows across _segments
        self._tombstones: dict[int, int] = {}
        self._seq = 0
        self._generation = int(generation)
        self._view_cache: DeltaView | None = None
        self._base_ids: _BaseIds | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    @property
    def n_rows(self) -> int:
        """Rows currently living in delta segments."""
        with self._lock:
            return self._n_rows

    @property
    def n_tombstones(self) -> int:
        with self._lock:
            return len(self._tombstones)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_add(
        self, labels: np.ndarray, codes: np.ndarray, ids: np.ndarray
    ) -> int:
        """Record already-encoded rows; returns the mutation's sequence.

        Adds are upserts: every id is tombstoned first (masking any base
        copy) and physically replaced inside the delta segments, then the
        new rows are appended to their partitions' segments.
        """
        labels = np.asarray(labels)
        codes = np.asarray(codes)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ConfigurationError("ids must be a 1-D integer array")
        if codes.ndim != 2 or labels.ndim != 1:
            raise ConfigurationError(
                "apply_add expects 2-D codes and 1-D labels"
            )
        if not (len(labels) == len(codes) == len(ids)):
            raise ConfigurationError(
                "labels, codes and ids must have matching lengths"
            )
        if len(np.unique(ids)) != len(ids):
            raise ConfigurationError("ids within one add() call must be unique")
        with self._lock:
            self._seq += 1
            seq = self._seq
            for identifier in ids.tolist():
                self._tombstones[identifier] = seq
            kept, n_dropped = _without_rows(
                self._segments, "ids", lambda held: np.isin(held, ids)
            )
            self._segments = _with_rows(kept, labels, codes, ids, seq)
            self._n_rows += len(ids) - n_dropped
            self._view_cache = None
            return seq

    def apply_delete(self, ids: np.ndarray) -> int:
        """Tombstone ids (masking the base) and drop them from segments.

        Deleting an id the index never held is a harmless no-op mask
        that the next compaction clears.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ConfigurationError("ids must be a 1-D integer array")
        with self._lock:
            self._seq += 1
            seq = self._seq
            for identifier in ids.tolist():
                self._tombstones[identifier] = seq
            self._segments, n_dropped = _without_rows(
                self._segments, "ids", lambda held: np.isin(held, ids)
            )
            self._n_rows -= n_dropped
            self._view_cache = None
            return seq

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def view(self, index: _HasPartitions) -> DeltaView | None:
        """Cut an immutable overlay view against ``index``'s partitions.

        Returns None when the store is empty — callers then take the
        unmodified (byte-identical) read-only code path.  The view is
        cached until the next mutation, so steady-state reads pay an
        attribute read, not a rebuild; a rebuild after a write finds
        the base rows its tombstones hit, per partition, and copies none.
        """
        with self._lock:
            if not self._segments and not self._tombstones:
                return None
            cached = self._view_cache
            if cached is not None:
                return cached
            tombstone_ids = np.array(sorted(self._tombstones), dtype=np.int64)
            hits: dict[int, np.ndarray] = {}
            if len(tombstone_ids):
                base = self._base_ids
                if base is None or base.index is not index:
                    base = self._base_ids = _BaseIds.of(index)
                hits = base.hits(tombstone_ids)
            view = self._view_cache = DeltaView(
                segments={
                    pid: Partition(delta.codes, delta.ids, partition_id=pid)
                    for pid, delta in sorted(self._segments.items())
                },
                hits=hits,
                tombstone_ids=tombstone_ids,
            )
            return view

    # ------------------------------------------------------------------
    # compaction hand-off
    # ------------------------------------------------------------------
    def snapshot(self) -> DeltaSnapshot:
        """Cut the drain snapshot compaction will fold into a new base."""
        with self._lock:
            additions = {
                pid: (delta.codes, delta.ids)
                for pid, delta in sorted(self._segments.items())
            }
            return DeltaSnapshot(
                seq=self._seq,
                tombstone_ids=np.array(sorted(self._tombstones), dtype=np.int64),
                additions=additions,
                n_rows=self._n_rows,
            )

    def commit(self, upto_seq: int, *, generation: int) -> None:
        """Drop state with ``seq <= upto_seq``; adopt the new generation.

        Mutations that arrived after the snapshot (``seq > upto_seq``)
        survive untouched: their segment rows stay live and their
        tombstones keep masking the new base (which may contain a copy
        of a since-deleted or since-re-added id folded in by the
        concurrent compaction).
        """
        with self._lock:
            self._segments, n_dropped = _without_rows(
                self._segments, "seqs", lambda seqs: seqs <= upto_seq
            )
            self._n_rows -= n_dropped
            self._tombstones = {
                identifier: seq
                for identifier, seq in self._tombstones.items()
                if seq > upto_seq
            }
            self._generation = int(generation)
            self._view_cache = None
            self._base_ids = None  # the base it sorted is being replaced
