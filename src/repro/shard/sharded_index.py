"""Sharded layout of an IVFADC index: partitions spread across shards.

The ROADMAP's serving scenario outgrows a single in-process index; the
scaling step used by real partitioned PQ deployments (PQTable's
multi-structure tables, Quicker-ADC's per-shard inverted lists) is to
spread the coarse cells across *shards* that can be scanned — and
eventually hosted — independently. This module implements the data
layout half of that step:

* :class:`IndexShard` — one shard: a real :class:`IVFADCIndex` that
  *owns* a subset of the coarse partitions (the remaining slots hold
  empty placeholders, so partition ids stay globally valid);
* :class:`ShardedIndex` — the full layout: the shard list plus the
  global routing view (coarse codebook, partition ownership map).

Because every shard shares the *same* product quantizer and coarse
codebook as the unsharded build it came from, routing, residual shifts
and distance tables are bit-identical to the unsharded index — which is
what lets the scatter-gather executor (:mod:`repro.shard.executor`)
return byte-identical results when all shards are healthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..ivf.partition import Partition
from ..pq.product_quantizer import ProductQuantizer

__all__ = ["IndexShard", "ShardedIndex", "empty_partition"]


def empty_partition(pq_m: int, code_dtype: np.dtype, partition_id: int) -> Partition:
    """A zero-vector placeholder partition with the right code layout."""
    return Partition(
        np.empty((0, pq_m), dtype=code_dtype),
        np.empty(0, dtype=np.int64),
        partition_id=partition_id,
    )


@dataclass(frozen=True)
class IndexShard:
    """One shard of a :class:`ShardedIndex`.

    Attributes:
        shard_id: 0-based shard index within the layout.
        index: a real :class:`IVFADCIndex` holding the owned partitions
            (non-owned slots are empty placeholders), sharing the global
            product quantizer and coarse codebook.
        partition_ids: globally-valid ids of the partitions this shard
            owns.
    """

    shard_id: int
    index: IVFADCIndex
    partition_ids: tuple[int, ...]

    def __len__(self) -> int:
        """Vectors stored by this shard."""
        return len(self.index)


class ShardedIndex:
    """An IVFADC build split across shards, with a global routing view.

    :attr:`global_view` is the layout as one real :class:`IVFADCIndex`
    (shared quantizers and partition objects, no copies), built once
    here: what a global partition-major plan is routed and sized
    against before it is scattered, and what unsharded code paths use
    on engines loaded from sharded artifacts. Per-shard scans then run
    against the shards' own indexes.

    Args:
        shards: the shard list (positional-only); shard ids must be
            0..n-1 in order, every partition id must be owned by exactly
            one shard, and all shards must carry bit-identical product
            quantizer codebooks and coarse codebooks.
    """

    def __init__(self, shards: list[IndexShard] | tuple[IndexShard, ...], /):
        shards = tuple(shards)
        if not shards:
            raise ConfigurationError("ShardedIndex requires at least one shard")
        for position, shard in enumerate(shards):
            if shard.shard_id != position:
                raise ConfigurationError(
                    f"shard ids must be 0..{len(shards) - 1} in order, got "
                    f"{shard.shard_id} at position {position}"
                )
        reference = shards[0].index
        n_partitions = reference.n_partitions
        owners = np.full(n_partitions, -1, dtype=np.int64)
        for shard in shards:
            if shard.index.n_partitions != n_partitions:
                raise ConfigurationError(
                    f"shard {shard.shard_id} has {shard.index.n_partitions} "
                    f"partitions, expected {n_partitions}"
                )
            if not np.array_equal(
                shard.index.pq.codebooks, reference.pq.codebooks
            ):
                raise ConfigurationError(
                    f"shard {shard.shard_id} quantizer codebooks differ from "
                    "shard 0 — shards must share one product quantizer"
                )
            if not np.array_equal(
                shard.index.coarse.codebook, reference.coarse.codebook
            ):
                raise ConfigurationError(
                    f"shard {shard.shard_id} coarse codebook differs from "
                    "shard 0 — shards must share one coarse quantizer"
                )
            if shard.index.encode_residuals != reference.encode_residuals:
                raise ConfigurationError(
                    f"shard {shard.shard_id} residual-encoding flag differs "
                    "from shard 0"
                )
            for pid in shard.partition_ids:
                if not 0 <= pid < n_partitions:
                    raise ConfigurationError(
                        f"shard {shard.shard_id} owns invalid partition {pid}"
                    )
                if owners[pid] != -1:
                    raise ConfigurationError(
                        f"partition {pid} owned by both shard {owners[pid]} "
                        f"and shard {shard.shard_id}"
                    )
                owners[pid] = shard.shard_id
        unowned = np.flatnonzero(owners == -1)
        if len(unowned):
            raise ConfigurationError(
                f"partitions {unowned.tolist()} are owned by no shard"
            )
        self.shards = shards
        self._owners = owners
        self.global_view = _global_view(shards, owners)
        #: Directory holding a :func:`~repro.persistence.save_sharded_index`
        #: layout for this exact sharded index, when one is known —
        #: :func:`~repro.persistence.load_sharded_index` records where it
        #: loaded from and ``save_sharded_index`` where it saved to. The
        #: process-backend scatter-gather executor attaches its per-shard
        #: worker pools here instead of saving a temporary copy.
        self.artifact_dir: Path | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_index(
        cls,
        index: IVFADCIndex,
        /,
        *,
        n_shards: int,
        layout: str = "modulo",
    ) -> "ShardedIndex":
        """Split a populated :class:`IVFADCIndex` across ``n_shards``.

        The shards share the original quantizer, coarse codebook and
        partition objects (no copies), so a sharded view of an index is
        cheap and answers byte-identically. Layouts:

        * ``"modulo"`` (default) — partition ``p`` goes to shard
          ``p % n_shards``, interleaving big and small cells;
        * ``"contiguous"`` — consecutive blocks of partitions per shard
          (the layout a range-partitioned deployment would use).
        """
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > index.n_partitions:
            raise ConfigurationError(
                f"n_shards ({n_shards}) cannot exceed n_partitions "
                f"({index.n_partitions})"
            )
        if layout not in ("modulo", "contiguous"):
            raise ConfigurationError(f"unknown shard layout {layout!r}")
        n_partitions = index.n_partitions
        if layout == "modulo":
            owner = [pid % n_shards for pid in range(n_partitions)]
        else:
            per_shard = -(-n_partitions // n_shards)  # ceil
            owner = [min(pid // per_shard, n_shards - 1) for pid in range(n_partitions)]
        shards = []
        for shard_id in range(n_shards):
            owned = tuple(
                pid for pid in range(n_partitions) if owner[pid] == shard_id
            )
            shards.append(_build_shard(index, shard_id, owned))
        return cls(shards)

    # -- global accessors -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_partitions(self) -> int:
        return self.shards[0].index.n_partitions

    @property
    def pq(self) -> ProductQuantizer:
        """The shared product quantizer."""
        return self.shards[0].index.pq

    @property
    def encode_residuals(self) -> bool:
        return self.shards[0].index.encode_residuals

    @property
    def generation(self) -> int:
        """Compaction generation shared by every shard of the layout."""
        return self.shards[0].index.generation

    @property
    def partitions(self) -> list[Partition]:
        """Global partition list, each slot served by its owning shard."""
        return self.global_view.partitions

    def shard_artifact_path(self, shard_id: int) -> Path | None:
        """Saved artifact of shard ``shard_id``, when the layout has one.

        ``None`` when the layout was never persisted (in-memory
        :meth:`from_index` splits) — process-backend executors then save
        a temporary artifact themselves.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ConfigurationError(
                f"shard_id must be in [0, {self.n_shards}), got {shard_id}"
            )
        if self.artifact_dir is None:
            return None
        from ..persistence import _shard_filename

        return self.artifact_dir / _shard_filename(shard_id)

    def owner_of(self, partition_id: int) -> int:
        """Shard id owning ``partition_id``."""
        if not 0 <= partition_id < self.n_partitions:
            raise ConfigurationError(
                f"partition_id must be in [0, {self.n_partitions}), got "
                f"{partition_id}"
            )
        return int(self._owners[partition_id])

    @property
    def owners(self) -> np.ndarray:
        """``(n_partitions,)`` owning shard id per partition."""
        return self._owners.copy()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def partition_sizes(self) -> np.ndarray:
        """Number of vectors per (global) partition."""
        return np.array([len(p) for p in self.partitions], dtype=np.int64)

    # -- query-time routing (Step 1, shared with the unsharded index) ---------

    def route(self, query: np.ndarray, nprobe: int = 1) -> list[int]:
        """Step 1 on the shared coarse codebook (shard-count invariant)."""
        return self.shards[0].index.route(query, nprobe=nprobe)

    def route_batch(self, queries: np.ndarray, nprobe: int = 1) -> np.ndarray:
        """Batched Step 1, bit-identical to the unsharded index."""
        return self.shards[0].index.route_batch(queries, nprobe=nprobe)

    def distance_tables_for_batch(
        self, queries: np.ndarray, partition_id: int
    ) -> np.ndarray:
        """Step 2 delegated to the owning shard (identical tables)."""
        owner = self.owner_of(partition_id)
        return self.shards[owner].index.distance_tables_for_batch(
            queries, partition_id
        )


def _global_view(
    shards: tuple[IndexShard, ...], owners: np.ndarray
) -> IVFADCIndex:
    """A single :class:`IVFADCIndex` over the shards' owned partitions."""
    return shards[0].index.with_partitions(
        [
            shards[owner].index.partitions[pid]
            for pid, owner in enumerate(owners.tolist())
        ]
    )


def _build_shard(
    index: IVFADCIndex, shard_id: int, owned: tuple[int, ...]
) -> IndexShard:
    """One shard of ``index``: owned partitions shared, the rest empty."""
    owned_set = set(owned)
    code_dtype = np.dtype(index.pq.code_dtype)
    shard_index = index.with_partitions(
        [
            index.partitions[pid]
            if pid in owned_set
            else empty_partition(index.pq.m, code_dtype, pid)
            for pid in range(index.n_partitions)
        ]
    )
    return IndexShard(shard_id=shard_id, index=shard_index, partition_ids=owned)
