"""Weak-keyed LRU of per-partition prepared layouts.

PQ Fast Scan and Quick ADC both reorganize a partition once (grouped
layout, nibble layout) and reuse the result for every query. This is
the cache both scanners keep those layouts in.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterable
from typing import Generic, TypeVar

from ..exceptions import ConfigurationError
from ..ivf.partition import Partition
from ..obs import get_observability

__all__ = ["PreparedCache"]

LayoutT = TypeVar("LayoutT")


class PreparedCache(Generic[LayoutT]):
    """Scanner mix-in: :meth:`prepared` caches the scanner's ``prepare``.

    Layouts are keyed by partition object identity and held weakly, so
    a layout is released together with the partition it mirrors (GC);
    an entry whose partition died is pruned silently, not "evicted".
    Beyond ``prepared_cache_size`` live layouts (``None`` = unbounded)
    the least recently used one is evicted — long-running servers
    revisit many partitions, and without a cap the cache grows with
    every distinct partition ever scanned. Scanners are shared across
    batch-executor worker threads, so every mutation happens under
    ``_cache_lock``.
    """

    def __init__(self, prepared_cache_size: int | None) -> None:
        if prepared_cache_size is not None and prepared_cache_size < 1:
            raise ConfigurationError(
                "prepared_cache_size must be >= 1 (or None for unbounded), "
                f"got {prepared_cache_size}"
            )
        self.prepared_cache_size = prepared_cache_size
        self._prepared: weakref.WeakKeyDictionary[Partition, LayoutT] = (
            weakref.WeakKeyDictionary()
        )
        # Recency-ordered weak references, keyed by partition object id.
        self._lru: OrderedDict[int, weakref.ref[Partition]] = OrderedDict()
        self._cache_lock = threading.Lock()
        #: Times :meth:`prepared` served a cached layout.
        self.prepared_hits: int = 0
        #: Times :meth:`prepared` had to build a layout.
        self.prepared_misses: int = 0
        #: Live layouts evicted because the cache exceeded its cap.
        self.prepared_evictions: int = 0

    def prepare(self, partition: Partition) -> LayoutT:
        """Build the layout of one partition (the scanner's own)."""
        raise NotImplementedError

    def prepared(self, partition: Partition) -> LayoutT:
        """Cached :meth:`prepare`, keyed by partition object identity.

        :attr:`prepared_hits` / :attr:`prepared_misses` count reuse
        across queries (a batch over ``q`` queries probing one partition
        should cost one miss and ``q - 1`` hits at most); accesses and
        evictions are also exported via
        :meth:`repro.obs.Observability.record_cache_access` /
        :meth:`~repro.obs.Observability.record_cache_eviction`.
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
                    key = id(partition)
                    self._lru.pop(key, None)
                    self._lru[key] = weakref.ref(partition)
                    evicted = self._evict_over_cap()
                    break
            # Build outside the lock: prepare() is pure, and a large
            # partition's layout is exactly the work concurrent callers
            # should not serialize on.
            built = self.prepare(partition)
        obs = get_observability()
        obs.record_cache_access(hit)
        for _ in range(evicted):
            obs.record_cache_eviction()
        return layout

    def _evict_over_cap(self) -> int:
        """Drop least recently used layouts until the cache fits its cap.

        Caller must hold ``_cache_lock``. Returns how many *live*
        layouts went; a dead reference already released its own.
        """
        cap = self.prepared_cache_size
        evicted = 0
        while cap is not None and len(self._prepared) > cap and self._lru:
            _, ref = self._lru.popitem(last=False)  # reprolint: disable=R6 (caller holds _cache_lock)
            victim = ref()
            if victim is not None and self._prepared.pop(victim, None) is not None:  # reprolint: disable=R6 (caller holds _cache_lock)
                evicted += 1
        self.prepared_evictions += evicted  # reprolint: disable=R6 (caller holds _cache_lock)
        return evicted

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
