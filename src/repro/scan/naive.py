"""Naive PQ Scan: direct transliteration of Algorithm 1.

Per scanned vector (PQ 8×8): 8 mem1 loads of byte indexes, 8 mem2 loads
from the distance tables, 8 scalar additions — 16 L1 loads total
(Section 3.1).

Two code paths are provided:

* :meth:`NaiveScanner.scan_run` — one pass over a *run* of jobs (each
  a partition and the queries probing it): one call of the C kernel
  (:mod:`repro.native`), or vectorized numpy where that does not run;
  :meth:`NaiveScanner.scan_batch` is its run of one job and ``scan`` the
  batch of one. This is what benchmarks use for wall-clock runs.
  Numerically it performs exactly the per-vector sum of Equation (3).
* :meth:`NaiveScanner.scan_scalar` — the literal loop of Algorithm 1,
  used by the tests as the semantic reference and kept close to the
  paper's pseudocode line-for-line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .. import native
from ..exceptions import DimensionMismatchError
from ..ivf.partition import Partition
from ..pq.adc import adc_distance_single, adc_distances_batch
from .base import NO_IDS, PAD_DISTANCE, PAD_ID, PartitionScanner, ScanBlock
from .base import ScanResult, table_stack
from .topk import TopKAccumulator, dead_rows, select_topk_rows

if TYPE_CHECKING:  # import cycle: repro.ivf imports repro.scan
    from ..ivf.inverted_index import TableHalves

__all__ = ["NaiveScanner"]


def _run_rows(
    partitions: Sequence[Partition], tombstones: Sequence[np.ndarray], m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """A run's rows end to end: its codes, ids, dead-row mask (None: no
    dead row) and each job's row count. Job ``i``'s mask is its own
    ``tombstones[i]`` against its own rows."""
    if len(partitions) == 1:
        codes, ids = partitions[0].codes, partitions[0].ids
        dead = dead_rows(ids, tombstones[0])
    else:
        codes = np.concatenate([p.codes for p in partitions])
        ids = np.concatenate([p.ids for p in partitions])
        dead = None
        if any(len(dropped) for dropped in tombstones):
            dead = np.concatenate([
                np.isin(p.ids, dropped) for p, dropped in zip(partitions, tombstones)
            ])
    if codes.shape[1] != m:
        raise DimensionMismatchError(m, codes.shape[1], what="code")
    return codes, ids, dead, np.array([len(p) for p in partitions], dtype=np.intp)


def scan_in_numpy(
    tables: np.ndarray,
    codes: np.ndarray,
    ids: np.ndarray,
    dead: np.ndarray | None,
    n_rows: np.ndarray,
    n_cells: Sequence[int],
    topk: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:data:`repro.native.naive_scan`'s twin, the ragged pass of
    :meth:`NaiveScanner.scan_run`: every cell's best ``topk`` live rows,
    ``(ids, distances, lengths)``."""
    n_rows = np.asarray(n_rows)
    distances, ids = NaiveScanner._ragged_block(tables, codes, n_rows, n_cells, ids, dead)
    top_ids, top_distances = select_topk_rows(distances, ids, topk)
    # A cell's live candidates sort before its padding (masked rows are padding).
    return top_ids, top_distances, np.count_nonzero(top_ids != PAD_ID, axis=1)


def scan_halves_in_numpy(
    r_sq: np.ndarray,
    query_half: np.ndarray,
    rows: np.ndarray | None,
    cell_half: np.ndarray,
    cells: np.ndarray,
    *scan: Any,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:data:`repro.native.naive_scan_halves`' twin: :func:`scan_in_numpy`
    of the combined tables."""
    from ..ivf.inverted_index import TableHalves  # import cycle

    tables = TableHalves(r_sq, query_half, rows, cell_half, cells).combine()
    return scan_in_numpy(tables, *scan)


def _block(
    found: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_rows: np.ndarray,
    sizes: Sequence[int],
) -> ScanBlock:
    """The :class:`ScanBlock` of a run's selected ``(ids, distances,
    lengths)``: every cell scanned its partition's rows and pruned none."""
    top_ids, top_distances, lengths = found
    counts = np.zeros((3, len(top_ids)), dtype=np.int64)
    counts[0] = lengths
    counts[1] = np.repeat(n_rows, sizes)
    return ScanBlock(top_ids, top_distances, counts)


class NaiveScanner(PartitionScanner):
    """The paper's baseline PQ Scan (Algorithm 1)."""

    name = "naive"

    def scan_batch(
        self, tables: np.ndarray, partition: Partition, topk: int = 1,
        tombstones: np.ndarray = NO_IDS,
    ) -> ScanBlock:
        """Scan one partition for a whole query batch at once: the run
        of one job of :meth:`scan_run`.

        ``tables`` is the ``(b, m, k*)`` stack of per-query distance
        tables, checked for its rank only: naive also scans the 16x4
        delta segments, so it knows no ``k*``.
        :func:`~repro.pq.adc.adc_distances_batch` gathers the codes once
        per component for the whole batch, summed in
        :func:`~repro.pq.adc.adc_distances`' order, and one
        :func:`~repro.scan.select_topk_rows` selects for every query.
        """
        tables = table_stack(tables)
        # Naive's own run, not self's: a subclass that overrides
        # scan_batch alone scans a run with the per-job scan_run.
        return NaiveScanner.scan_run(
            self, tables, (partition,), (len(tables),), topk, (tombstones,)
        )

    def scan_scalar(
        self, tables: np.ndarray, partition: Partition, topk: int = 1
    ) -> ScanResult:
        """Literal Algorithm 1 loop (pqscan / pqdistance)."""
        acc = TopKAccumulator(topk)
        for i in range(len(partition)):
            p = partition.codes[i]
            d = adc_distance_single(tables, p)
            acc.offer(d, int(partition.ids[i]))
        ids, dists = acc.result()
        return ScanResult(ids=ids, distances=dists, n_scanned=len(partition))

    def scan_run(
        self,
        tables: np.ndarray,
        partitions: Sequence[Partition],
        sizes: Sequence[int],
        topk: int,
        tombstones: Sequence[np.ndarray],
    ) -> ScanBlock:
        """PQ Scan of a run of jobs in one exhaustive pass.

        Job ``i`` is ``sizes[i]`` consecutive rows of the ``(c, m, k*)``
        ``tables`` stack against ``partitions[i]``; the block has one cell
        per table row, job by job. ``tombstones[i]`` are ids of rows of
        ``partitions[i]`` to leave out: they are scanned, counted in
        ``n_scanned`` and masked to ``(PAD_DISTANCE, PAD_ID)`` before the
        selection, so a cell holds at most ``topk`` live candidates.

        Where the native kernels run (:mod:`repro.native`), the run is
        one C call that gathers, sums and selects every cell in one pass
        over its rows. Otherwise numpy scans it: one job is gathered
        dense, ``(b, n)``, one ``take`` per component
        (:func:`~repro.pq.adc.adc_distances_batch`), and selected by
        :meth:`ScanBlock.exhaustive`. Several jobs are one
        ragged gather: every (cell, row) pair of the run end to end, one
        ``take`` per component from the flattened stack, then one
        ``(c, widest partition)`` block padded past each cell's rows. The
        contributions are summed in :func:`~repro.pq.adc.adc_distances`'
        order every way, and the kernel selects each cell in the
        (distance, id) order of the one
        :func:`~repro.scan.select_topk_rows` numpy selects the run with,
        so every cell is byte-identical to scanning its job alone, on
        either path.
        """
        codes, ids, dead, n_rows = _run_rows(partitions, tombstones, tables.shape[1])
        found = native.naive_scan(tables, codes, ids, dead, n_rows, sizes, topk)
        if found is not None:
            return _block(found, n_rows, sizes)
        if len(partitions) == 1:
            return ScanBlock.exhaustive(
                adc_distances_batch(tables, codes), ids, topk, tombstones[0]
            )
        found = scan_in_numpy(tables, codes, ids, dead, n_rows, sizes, topk)
        return _block(found, n_rows, sizes)

    def scan_halves(
        self,
        halves: TableHalves,
        partitions: Sequence[Partition],
        sizes: Sequence[int],
        topk: int,
        tombstones: Sequence[np.ndarray],
    ) -> ScanBlock | None:
        """:meth:`scan_run` of ``halves.combine()`` with no table made:
        one C call (:func:`repro.native.naive_scan_halves`) that combines
        each entry it looks up where it reads it, or None where the
        kernels do not run, and the caller combines the tables.

        ``halves`` has one table row per cell, job by job. The block is
        :meth:`scan_run`'s of the combined tables, byte for byte.
        """
        if not partitions:
            return None
        codes, ids, dead, n_rows = _run_rows(
            partitions, tombstones, halves.query_half.shape[1]
        )
        found = native.naive_scan_halves(
            halves.r_sq, halves.query_half, halves.rows, halves.cell_half,
            halves.cells, codes, ids, dead, n_rows, sizes, topk,
        )
        return None if found is None else _block(found, n_rows, sizes)

    @staticmethod
    def _ragged_block(
        tables: np.ndarray,
        codes: np.ndarray,
        n_rows: np.ndarray,
        sizes: Sequence[int],
        ids: np.ndarray,
        dead: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and ids of every (cell, row) pair of a run, ``(c, w)``:
        cell ``i``'s rows left to right, then ``(PAD_DISTANCE, PAD_ID)``."""
        n_cells = np.asarray(sizes, dtype=np.intp)
        c, m, ksub = tables.shape
        per_cell = np.repeat(n_rows, n_cells)
        # Entry e of cell i reads row e - (cell i's first entry) + (its
        # partition's first row) of the concatenated codes.
        rows = None
        if (n_cells != 1).any():
            shift = np.repeat(np.cumsum(n_rows) - n_rows, n_cells) - (
                np.cumsum(per_cell) - per_cell
            )
            rows = np.arange(int(per_cell.sum())) + np.repeat(shift, per_cell)
            codes, ids = codes.take(rows, axis=0), ids.take(rows)
        # Entry e's table for component j starts at flat[cell * m * ksub + j * ksub].
        flat = np.ascontiguousarray(tables).reshape(-1)
        base = np.repeat(np.arange(0, c * m * ksub, m * ksub), per_cell)
        index = codes[:, 0] + base
        distances = flat.take(index)
        for j in range(1, m):
            np.add(codes[:, j], base, out=index)
            distances += flat[j * ksub :].take(index)
        if dead is not None:
            gone = dead if rows is None else dead.take(rows)
            distances[gone] = PAD_DISTANCE
            ids = np.where(gone, PAD_ID, ids)
        filled = np.arange(int(n_rows.max(initial=0))) < per_cell[:, None]
        block = np.full(filled.shape, PAD_DISTANCE)
        block[filled] = distances
        block_ids = np.full(filled.shape, PAD_ID, dtype=np.int64)
        block_ids[filled] = ids
        return block, block_ids
