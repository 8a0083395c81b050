"""repro — reproduction of PQ Fast Scan (André et al., VLDB 2015).

High-performance nearest neighbor search with Product Quantization Fast
Scan: register-resident small lookup tables computing lower bounds that
prune >95% of exact distance computations, returning exactly the same
neighbors as plain PQ Scan.

Public API highlights — the :class:`Engine` facade covers build, search,
sharding and persistence::

    from repro import Engine, EngineConfig

    engine = Engine.build(base, EngineConfig(n_partitions=64, n_shards=4))
    results = engine.search(queries, k=10)
    engine.save("catalog.d")
    engine = Engine.load("catalog.d")

The layers underneath remain public for component-level work::

    from repro import ProductQuantizer, IVFADCIndex, PQFastScanner

    pq = ProductQuantizer(m=8, bits=8).fit(learn)
    index = IVFADCIndex(pq, n_partitions=8).add(base)
    scanner = PQFastScanner(pq, keep=0.005)
    pid = index.route(query)[0]
    tables = index.distance_tables_for(query, pid)
    result = scanner.scan(tables, index.partitions[pid], topk=100)
"""

from .core import (
    CentroidAssignment,
    DistanceQuantizer,
    FastScanResult,
    GroupedPartition,
    PQFastScanner,
    QuantizationOnlyScanner,
    SmallTables,
    optimized_assignment,
)
from .data import SyntheticSIFT, VectorDataset, exact_neighbors, recall_at
from .exceptions import (
    ConfigurationError,
    DatasetError,
    DimensionMismatchError,
    NotFittedError,
    ReproError,
    SimulationError,
)
from .ivf import IVFADCIndex, Partition
from .obs import (
    Observability,
    WorkerStats,
    aggregate_worker_stats,
    combine_worker_stats,
    get_observability,
    observability_session,
    set_observability,
)
from .pq import (
    KMeans,
    ProductQuantizer,
    SameSizeKMeans,
    VectorQuantizer,
    adc_distances,
)
from .scan import (
    LibpqScanner,
    NaiveScanner,
    QuickADCResult,
    QuickADCScanner,
    ScanResult,
)
from .persistence import (
    load_index,
    load_quantizer,
    load_sharded_index,
    save_index,
    save_quantizer,
    save_sharded_index,
)
from .search import (
    ANNSearcher,
    BatchExecutor,
    BatchPlan,
    BatchPlanner,
    PartitionJob,
    SearchResult,
    merge_partials,
)
from .parallel import ProcessBatchExecutor, ScannerSpec
from .shard import (
    IndexShard,
    ScatterGatherExecutor,
    ShardedIndex,
    ShardedResponse,
    ShardRouter,
    ShardStatus,
)
from .engine import SCANNER_KINDS, Engine, EngineConfig
from .delta import (
    CompactionReport,
    DeltaSnapshot,
    DeltaStore,
    DeltaView,
    fold_index,
)

__version__ = "1.6.0"

__all__ = [
    "ANNSearcher",
    "BatchExecutor",
    "BatchPlan",
    "BatchPlanner",
    "CentroidAssignment",
    "CompactionReport",
    "ConfigurationError",
    "DatasetError",
    "DeltaSnapshot",
    "DeltaStore",
    "DeltaView",
    "DimensionMismatchError",
    "DistanceQuantizer",
    "Engine",
    "EngineConfig",
    "FastScanResult",
    "GroupedPartition",
    "IVFADCIndex",
    "IndexShard",
    "KMeans",
    "LibpqScanner",
    "NaiveScanner",
    "NotFittedError",
    "Observability",
    "PQFastScanner",
    "Partition",
    "PartitionJob",
    "ProcessBatchExecutor",
    "ProductQuantizer",
    "QuantizationOnlyScanner",
    "QuickADCResult",
    "QuickADCScanner",
    "ReproError",
    "SCANNER_KINDS",
    "SameSizeKMeans",
    "ScanResult",
    "ScannerSpec",
    "ScatterGatherExecutor",
    "SearchResult",
    "ShardRouter",
    "ShardStatus",
    "ShardedIndex",
    "ShardedResponse",
    "SimulationError",
    "SmallTables",
    "SyntheticSIFT",
    "VectorDataset",
    "VectorQuantizer",
    "WorkerStats",
    "adc_distances",
    "aggregate_worker_stats",
    "combine_worker_stats",
    "exact_neighbors",
    "fold_index",
    "get_observability",
    "load_index",
    "load_quantizer",
    "load_sharded_index",
    "merge_partials",
    "observability_session",
    "optimized_assignment",
    "recall_at",
    "set_observability",
    "save_index",
    "save_quantizer",
    "save_sharded_index",
    "__version__",
]
