"""Folding a drained delta snapshot into a new base index generation.

Compaction is a pure function over immutable inputs: given the current
base index, the snapshot's tombstoned ids and the delta rows as ``add``
encoded them, :func:`fold_index` builds a *new* :class:`IVFADCIndex` that

* shares the (never-changing) product and coarse quantizers with the old
  base — a row's code is the same in every generation, so the fold
  computes no distance and adds may race with compaction safely;
* drops every base row whose id is tombstoned in the snapshot;
* appends the delta rows to their partitions, base order first then
  insertion order, so the fold is deterministic;
* carries ``generation + 1``, the marker readers and manifests use to
  tell the bases apart.

Partitions untouched by the snapshot share their code arrays with the
old base (zero copy): queries probing them stay byte-identical across
the swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..exceptions import SimulationError
from ..ivf.inverted_index import IVFADCIndex
from ..ivf.partition import Partition

__all__ = ["CompactionReport", "fold_index"]


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :meth:`repro.engine.Engine.compact` call.

    Attributes:
        generation: generation of the published base (unchanged when the
            delta was empty and compaction was a no-op).
        n_folded: delta rows folded into the base.
        n_dropped: base rows removed by tombstones.
        n_total: vectors in the published base.
        wall_time_s: end-to-end compaction time.
        encode_time_s: always 0.0. Compaction folds the codes ``add``
            made and encodes nothing; the field stays because perfbench
            reads it (``delta.compact_encode_s``) and goes when
            ``perfbench/`` is next opened.
    """

    generation: int
    n_folded: int
    n_dropped: int
    n_total: int
    wall_time_s: float
    encode_time_s: float

    @property
    def noop(self) -> bool:
        return self.n_folded == 0 and self.n_dropped == 0


def fold_index(
    index: IVFADCIndex,
    tombstone_ids: np.ndarray,
    additions: Mapping[int, tuple[np.ndarray, np.ndarray]],
) -> IVFADCIndex:
    """Build the next-generation base from ``index`` plus a drained delta.

    Args:
        index: current base (left untouched).
        tombstone_ids: ids masked out of the base.
        additions: partition id -> (codes, ids) to append, already
            encoded against ``index``'s quantizers.
    """
    tombstone_ids = np.asarray(tombstone_ids, dtype=np.int64)
    partitions: list[Partition] = []
    for pid, part in enumerate(index.partitions):
        codes = np.asarray(part.codes)
        ids = part.ids
        if len(tombstone_ids) and len(ids):
            keep = ~np.isin(ids, tombstone_ids)
            if not keep.all():
                codes = np.ascontiguousarray(codes[keep])
                ids = ids[keep]
        extra = additions.get(pid)
        if extra is not None:
            extra_codes, extra_ids = extra
            if len(np.intersect1d(ids, extra_ids)):
                raise SimulationError(
                    "compaction fold would duplicate ids: delta rows for "
                    f"partition {pid} collide with surviving base rows "
                    "(the add-time tombstone barrier was bypassed)"
                )
            codes = np.concatenate(
                [codes, np.asarray(extra_codes, dtype=codes.dtype)]
            )
            ids = np.concatenate([ids, np.asarray(extra_ids, dtype=np.int64)])
        partitions.append(Partition(codes, ids, partition_id=pid))
    return index.with_partitions(partitions, generation=index.generation + 1)
