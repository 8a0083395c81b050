"""The scanner contract shared by the PQ Scan baselines and the fast scanners.

A *scanner* implements Step 3 of Algorithm 1: given the per-query distance
tables and a partition of pqcodes, return the topk nearest candidates.
Every exact implementation returns identical results (the paper's
exactness property); they differ in data movement and, on real hardware,
in speed.

:class:`PartitionScanner` declares what the executors call, and nothing
else: ``scan_run`` (a run of jobs, each a table stack against one
partition minus the rows its tombstones name; the one scan the
executors call, by default each job's ``scan_batch`` in turn),
``scan_batch`` (one job; the one method a scanner must define),
``scan`` (one query: the batch of one, defined here once, so no scanner
has a second query path to keep in step) and ``warm`` (build whatever
is query-independent, ahead of the scans; by default nothing).
The instruction-level behaviour of the paper's implementations is not
declared here: it is measured from the executed instruction streams of
:mod:`repro.simd`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, final

import numpy as np

from ..exceptions import DimensionMismatchError
from ..ivf.partition import Partition
from .topk import dead_rows, select_topk_rows

__all__ = [
    "NO_IDS",
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

#: A clean job's tombstones: no row to skip.
NO_IDS = np.empty(0, dtype=np.int64)
NO_IDS.flags.writeable = False


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
    def exhaustive(
        cls, distances: np.ndarray, ids: np.ndarray, topk: int,
        tombstones: np.ndarray = NO_IDS,
    ) -> "ScanBlock":
        """The topk of every row of a ``(b, n)`` block of exact distances
        to the ``n`` rows ``ids``, every row scanned and none pruned.

        The rows ``tombstones`` name are masked to ``(PAD_DISTANCE,
        PAD_ID)`` in ``distances`` itself before the selection, so they
        sort after every live row and no length counts them."""
        dead = dead_rows(ids, tombstones)
        n_live = len(ids)
        if dead is not None:
            distances[:, dead] = PAD_DISTANCE
            ids = np.where(dead, PAD_ID, ids)
            n_live -= int(np.count_nonzero(dead))
        top_ids, top_distances = select_topk_rows(distances, ids, topk)
        counts = np.array([[min(n_live, topk)], [len(ids)], [0]], dtype=np.int64)
        return cls(top_ids, top_distances, np.repeat(counts, len(distances), axis=1))

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


def table_stack(
    tables: np.ndarray, shape: tuple[int, int] | None = None
) -> np.ndarray:
    """``tables`` as a float64 ``(b, m, k*)`` stack, or a
    :class:`~repro.exceptions.DimensionMismatchError`: for a rank other
    than 3 and, when the scanner knows its ``(m, k*)`` ``shape``, for
    tables of any other shape."""
    tables = np.asarray(tables, dtype=np.float64)
    if tables.ndim != 3:
        raise DimensionMismatchError(3, tables.ndim, what="array rank")
    if shape is not None and tables.shape[1:] != shape:
        raise DimensionMismatchError(
            shape[0] * shape[1], tables.shape[1] * tables.shape[2], what="table"
        )
    return tables


class PartitionScanner(abc.ABC):
    """Abstract Step-3 scanner.

    ``tombstones`` are the ids of a mutable engine's deleted rows that
    the partition still holds (sorted, at most one per row; an id the
    partition does not hold names no row). A scanner skips those rows
    inside its own scan: its result is the topk of the partition
    without them, at most ``topk`` long. A skipped row still
    counts in ``n_scanned`` and never in ``n_pruned``. A custom scanner
    may mask them before its selection (as :meth:`ScanBlock.exhaustive`
    does) or leave them out of every pass that scores rows (as the
    pruning scanners do).
    """

    #: The scanner's kind: how ``EngineConfig.scanner`` and
    #: ``ScannerSpec.kind`` spell it, and its ``scanner=`` metric label.
    name: str = "abstract"

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # A class's own scan_batch, without its own scan_run, scans runs
        # job by job: the executors run an override of either method.
        if "scan_batch" in vars(cls) and "scan_run" not in vars(cls):
            setattr(cls, "scan_run", PartitionScanner.scan_run)

    @abc.abstractmethod
    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1,
        tombstones: np.ndarray = NO_IDS,
    ) -> Sequence[ScanResult] | ScanBlock:
        """Scan ``partition``, minus the rows ``tombstones`` name, for a
        whole ``(b, m, k*)`` table stack; result ``i`` is the topk of
        query ``i``."""

    def scan_run(
        self,
        tables: np.ndarray,
        partitions: Sequence[Partition],
        sizes: Sequence[int],
        topk: int,
        tombstones: Sequence[np.ndarray],
    ) -> ScanBlock:
        """Scan a run of jobs (job ``i``: ``sizes[i]`` consecutive rows
        of the ``(c, m, k*)`` stack against ``partitions[i]``, minus the
        rows ``tombstones[i]`` names), one cell per table row: the one
        scan the executors call. This default is each job's
        :meth:`scan_batch` in turn; a scanner overrides it to amortise a
        run, cells byte-identical to the per-job scans."""
        ends = np.cumsum(sizes).tolist()
        return ScanBlock.concatenate([
            ScanBlock.pack(self.scan_batch(tables[end - size : end], part, topk, dead))
            for size, end, part, dead in zip(sizes, ends, partitions, tombstones)
        ])

    @final
    def scan(
        self, tables: np.ndarray, partition: Partition, topk: int = 1,
        tombstones: np.ndarray = NO_IDS,
    ) -> ScanResult:
        """Scan ``partition`` for one query's ``(m, k*)`` tables: the
        batch of one."""
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 2:
            raise DimensionMismatchError(2, tables.ndim, what="array rank")
        return self.scan_batch(tables[None], partition, topk, tombstones)[0]

    def warm(self, partitions: Iterable[Partition]) -> int:
        """Build the scanner's query-independent state for ``partitions``
        ahead of their scans; returns how many layouts were newly built
        (this default builds none)."""
        return 0
