"""Weak-keyed cache of per-partition prepared layouts.

PQ Fast Scan and Quick ADC both reorganize a partition once (grouped
layout, nibble layout) and reuse the result for every query. This is
the cache both scanners keep those layouts in.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterable
from typing import Generic, TypeVar

from ..ivf.partition import Partition
from ..obs import get_observability

__all__ = ["PreparedCache"]

LayoutT = TypeVar("LayoutT")


class PreparedCache(Generic[LayoutT]):
    """Scanner mix-in: :meth:`prepared` caches the scanner's ``prepare``.

    Layouts are keyed by partition object identity and held weakly, so
    the cache holds one layout per live partition the scanner has seen,
    and a layout is released together with the partition it mirrors
    (GC). Scanners are shared across batch-executor worker threads, so
    every mutation happens under ``_cache_lock``.
    """

    def __init__(self) -> None:
        self._prepared: weakref.WeakKeyDictionary[Partition, LayoutT] = (
            weakref.WeakKeyDictionary()
        )
        self._cache_lock = threading.Lock()
        #: Times :meth:`prepared` served a cached layout.
        self.prepared_hits: int = 0
        #: Times :meth:`prepared` had to build a layout.
        self.prepared_misses: int = 0

    def prepare(self, partition: Partition) -> LayoutT:
        """Build the layout of one partition (the scanner's own)."""
        raise NotImplementedError

    def prepared(self, partition: Partition) -> LayoutT:
        """Cached :meth:`prepare`, keyed by partition object identity.

        :attr:`prepared_hits` / :attr:`prepared_misses` count reuse
        across queries (a partition costs one miss for as long as it
        lives); accesses are also exported via
        :meth:`repro.obs.Observability.record_cache_access`.
        """
        built: LayoutT | None = None
        while True:
            with self._cache_lock:
                layout = self._prepared.get(partition, built)
                if layout is not None:
                    hit = layout is not built
                    if hit:
                        # Cached, or a concurrent caller inserted while
                        # this one was building: adopt that layout.
                        self.prepared_hits += 1
                    else:
                        self.prepared_misses += 1
                        self._prepared[partition] = layout
                    break
            # Build outside the lock: prepare() is pure, and a large
            # partition's layout is exactly the work concurrent callers
            # should not serialize on.
            built = self.prepare(partition)
        get_observability().record_cache_access(hit)
        return layout

    def warm(self, partitions: Iterable[Partition]) -> int:
        """Pre-build layouts from the coordinating thread.

        The batch executor calls this before fanning partition jobs
        across workers, so the cache is only *read* concurrently.
        Returns the number of layouts newly built.
        """
        before = self.prepared_misses
        for partition in partitions:
            self.prepared(partition)
        return self.prepared_misses - before
