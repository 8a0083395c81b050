"""Naive PQ Scan: direct transliteration of Algorithm 1.

Per scanned vector (PQ 8×8): 8 mem1 loads of byte indexes, 8 mem2 loads
from the distance tables, 8 scalar additions — 16 L1 loads total
(Section 3.1).

Two code paths are provided:

* :meth:`NaiveScanner.scan_run` — vectorized over a *run* of jobs (each
  a partition and the queries probing it) with numpy;
  :meth:`NaiveScanner.scan_batch` is its run of one job and ``scan`` the
  batch of one. This is what benchmarks use for wall-clock runs.
  Numerically it performs exactly the per-vector sum of Equation (3).
* :meth:`NaiveScanner.scan_scalar` — the literal loop of Algorithm 1,
  used by the tests as the semantic reference and kept close to the
  paper's pseudocode line-for-line.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DimensionMismatchError
from ..ivf.partition import Partition
from ..pq.adc import adc_distance_single, adc_distances_batch
from .base import NO_IDS, PAD_DISTANCE, PAD_ID, PartitionScanner, ScanBlock
from .base import ScanResult, table_stack
from .topk import TopKAccumulator, dead_rows, select_topk_rows

__all__ = ["NaiveScanner"]


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

        One job is gathered dense, ``(b, n)``, one ``take`` per component
        (:func:`~repro.pq.adc.adc_distances_batch`), and selected by
        :meth:`ScanBlock.exhaustive`. Several jobs are one
        ragged gather: every (cell, row) pair of the run end to end, one
        ``take`` per component from the flattened stack, then one
        ``(c, widest partition)`` block padded past each cell's rows. The
        contributions are summed in :func:`~repro.pq.adc.adc_distances`'
        order either way, and one :func:`~repro.scan.select_topk_rows`
        selects for the run, so every cell is byte-identical to scanning
        its job alone.
        """
        if len(partitions) == 1:
            (partition,) = partitions
            return ScanBlock.exhaustive(
                adc_distances_batch(tables, partition.codes),
                partition.ids,
                topk,
                tombstones[0],
            )
        ids = np.concatenate([p.ids for p in partitions])
        dead = None
        if any(len(dropped) for dropped in tombstones):
            dead = dead_rows(ids, np.concatenate(tombstones))
        n_rows = np.array([len(p) for p in partitions], dtype=np.intp)
        distances, ids = self._ragged_block(tables, partitions, n_rows, sizes, ids, dead)
        top_ids, top_distances = select_topk_rows(distances, ids, topk)
        counts = np.zeros((3, len(top_ids)), dtype=np.int64)
        # A cell's live candidates sort before its padding (masked rows are padding).
        counts[0] = np.count_nonzero(top_ids != PAD_ID, axis=1)
        counts[1] = np.repeat(n_rows, sizes)
        return ScanBlock(top_ids, top_distances, counts)

    @staticmethod
    def _ragged_block(
        tables: np.ndarray,
        partitions: Sequence[Partition],
        n_rows: np.ndarray,
        sizes: Sequence[int],
        ids: np.ndarray,
        dead: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and ids of every (cell, row) pair of a run, ``(c, w)``:
        cell ``i``'s rows left to right, then ``(PAD_DISTANCE, PAD_ID)``."""
        n_cells = np.asarray(sizes, dtype=np.intp)
        codes = np.concatenate([p.codes for p in partitions])
        c, m, ksub = tables.shape
        if codes.shape[1] != m:
            raise DimensionMismatchError(m, codes.shape[1], what="code")
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
