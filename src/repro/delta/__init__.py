"""Mutable-index overlay: delta segments, tombstones and compaction.

This package implements ROADMAP item 3 (streaming inserts/deletes) as a
strict *overlay* over the read-only IVFADC base: the base artifact never
changes in place, mutations accumulate in a :class:`DeltaStore`, queries
merge the overlay through the standard top-k machinery, and
:func:`fold_index` periodically folds a drained snapshot into a new base
generation.  See :mod:`repro.engine` for the write API
(``Engine.add``/``delete``/``compact``) built on top.
"""

from .compaction import CompactionReport, fold_index
from .store import DeltaSnapshot, DeltaStore, DeltaView

__all__ = [
    "CompactionReport",
    "DeltaSnapshot",
    "DeltaStore",
    "DeltaView",
    "fold_index",
]
