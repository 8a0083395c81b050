"""The scanner contract shared by the PQ Scan baselines and the fast scanners.

A *scanner* implements Step 3 of Algorithm 1: given the per-query distance
tables and a partition of pqcodes, return the topk nearest candidates.
Every exact implementation returns identical results (the paper's
exactness property); they differ in data movement and, on real hardware,
in speed.

:class:`PartitionScanner` declares what the executors call, and nothing
else: ``scan`` (one query; the one method a scanner must define),
``scan_batch`` (a whole table stack against one partition; by default the
per-row ``scan`` loop, overridden by the scanners that share work across
the batch) and ``warm`` (build whatever is query-independent, ahead of
the scans; by default nothing). The instruction-level behaviour of the
paper's implementations is not declared here: it is measured from the
executed instruction streams of :mod:`repro.simd`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..ivf.partition import Partition

__all__ = [
    "PAD_DISTANCE",
    "PAD_ID",
    "PartitionScanner",
    "ScanBlock",
    "ScanResult",
]


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning one partition for one query.

    Attributes:
        ids: topk database identifiers sorted by (distance, id).
        distances: matching ADC distances, ascending.
        n_scanned: vectors considered by the scanner.
        n_pruned: vectors discarded by a lower bound before their exact
            pqdistance was computed (0 for plain PQ Scan).
    """

    ids: np.ndarray
    distances: np.ndarray
    n_scanned: int
    n_pruned: int = 0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of scanned vectors whose exact distance was skipped."""
        if self.n_scanned == 0:
            return 0.0
        return self.n_pruned / self.n_scanned

    def same_neighbors(self, other: "ScanResult") -> bool:
        """True when both results name the same neighbors in order."""
        return bool(
            np.array_equal(self.ids, other.ids)
            and np.allclose(self.distances, other.distances)
        )


#: What a :class:`ScanBlock` holds past a cell's length: an (id, distance)
#: that sorts after, or is byte-equal to, every real candidate.
PAD_ID, PAD_DISTANCE = np.iinfo(np.int64).max, np.inf


@dataclass(frozen=True, eq=False)
class ScanBlock:
    """The scans of ``c`` (query, partition) cells, packed into arrays.

    What a batch scan hands on instead of ``c`` :class:`ScanResult`
    objects: one selection, one pickle and one scatter per block. Read
    as a sequence it yields the cells' :class:`ScanResult` views.

    Attributes:
        ids: ``(c, w)`` candidate ids, cell ``i`` in row ``i``: its first
            ``lengths[i]`` entries, sorted by (distance, id), then
            :data:`PAD_ID`. How many of a row are candidates comes from
            ``lengths`` alone; the padding lets a merge sort rows whole.
        distances: ``(c, w)`` matching ADC distances, then
            :data:`PAD_DISTANCE`.
        counts: ``(3, c)`` per-cell ``lengths``, ``n_scanned`` (vectors
            considered) and ``n_pruned`` (of those, discarded by a lower
            bound), one row each.
    """

    ids: np.ndarray
    distances: np.ndarray
    counts: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        return self.counts[0]

    @property
    def n_scanned(self) -> np.ndarray:
        return self.counts[1]

    @property
    def n_pruned(self) -> np.ndarray:
        return self.counts[2]

    @classmethod
    def pack(cls, results: "Sequence[ScanResult] | ScanBlock") -> "ScanBlock":
        """The one conversion from per-cell results (a block passes
        through), as wide as the longest of them."""
        if isinstance(results, cls):
            return results
        counts = np.array(
            [(len(r.ids), r.n_scanned, r.n_pruned) for r in results], dtype=np.int64
        ).reshape(len(results), 3).T
        shape = (len(results), int(counts[0].max(initial=0)))
        ids = np.full(shape, PAD_ID, dtype=np.int64)
        distances = np.full(shape, PAD_DISTANCE, dtype=np.float64)
        for i, result in enumerate(results):
            ids[i, : len(result.ids)] = result.ids
            distances[i, : len(result.ids)] = result.distances
        return cls(ids, distances, counts)

    @classmethod
    def concatenate(cls, blocks: Sequence["ScanBlock"]) -> "ScanBlock":
        """``blocks`` end to end, as wide as the widest of them."""
        if len(blocks) <= 1:
            return blocks[0] if blocks else cls.pack(())
        shape = (
            sum(len(block) for block in blocks),
            max(block.ids.shape[1] for block in blocks),
        )
        ids = np.full(shape, PAD_ID, dtype=np.int64)
        distances = np.full(shape, PAD_DISTANCE, dtype=np.float64)
        start = 0
        for block in blocks:
            stop, width = start + len(block), block.ids.shape[1]
            ids[start:stop, :width] = block.ids
            distances[start:stop, :width] = block.distances
            start = stop
        counts = np.concatenate([block.counts for block in blocks], axis=1)
        return cls(ids, distances, counts)

    def __len__(self) -> int:
        return self.counts.shape[1]

    def __getitem__(self, index: int) -> ScanResult:
        length, n_scanned, n_pruned = self.counts[:, index].tolist()
        return ScanResult(
            self.ids[index, :length], self.distances[index, :length],
            n_scanned, n_pruned,
        )

    def select(self, cells: "np.ndarray | slice") -> "ScanBlock":
        """The cells a mask, index array or slice names, still packed."""
        return ScanBlock(self.ids[cells], self.distances[cells], self.counts[:, cells])

    def __iter__(self) -> Iterator[ScanResult]:
        for ids, distances, (length, n_scanned, n_pruned) in zip(
            self.ids, self.distances, self.counts.T.tolist()
        ):
            yield ScanResult(ids[:length], distances[:length], n_scanned, n_pruned)


class PartitionScanner(abc.ABC):
    """Abstract Step-3 scanner."""

    #: The scanner's kind: how ``EngineConfig.scanner`` and
    #: ``ScannerSpec.kind`` spell it, and its ``scanner=`` metric label.
    name: str = "abstract"

    @abc.abstractmethod
    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanResult:
        """Scan ``partition`` with per-query ``tables``; return topk."""

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> Sequence[ScanResult] | ScanBlock:
        """Scan ``partition`` for a whole ``(b, m, k*)`` table stack.

        Result ``i`` is byte-identical to ``scan(tables[i], ...)``, which
        is what this default runs; a scanner overrides it to share
        query-independent work across the batch.
        """
        return [self.scan(row, partition, topk=topk) for row in tables]

    def warm(self, partitions: Iterable[Partition]) -> int:
        """Build the scanner's query-independent state for ``partitions``
        ahead of their scans; returns how many layouts were newly built
        (this default builds none)."""
        return 0
