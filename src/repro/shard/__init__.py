"""repro.shard — sharded scatter-gather execution for IVFADC indexes.

Splits an :class:`~repro.ivf.IVFADCIndex` build across shards
(:mod:`repro.shard.sharded_index`) and fans query batches across them
with per-shard deadlines, transient-failure retries and graceful
degradation (:mod:`repro.shard.executor`). When all shards are healthy,
results are byte-identical to the unsharded engine — same routing, same
tables, same scans, same deterministic merge.
"""

from __future__ import annotations

from .executor import (
    STATE_FAILED,
    STATE_OK,
    STATE_TIMEOUT,
    ScatterGatherExecutor,
    ShardedResponse,
    ShardStatus,
)
from .sharded_index import IndexShard, ShardedIndex, empty_partition

__all__ = [
    "STATE_FAILED",
    "STATE_OK",
    "STATE_TIMEOUT",
    "IndexShard",
    "ScatterGatherExecutor",
    "ShardStatus",
    "ShardedIndex",
    "ShardedResponse",
    "empty_partition",
]
