"""Query-execution harness shared by the experiment benchmarks.

Runs batches of queries through a scanner over a workload, collecting
the statistics the paper reports: pruning power, scan speed (modeled
from the calibrated cost model and, for headline experiments, from the
real simulated kernels), response-time distributions, and exactness
checks against the libpq reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.fast_scan import FastScanResult, PQFastScanner
from ..scan.base import PartitionScanner
from ..scan.libpq import LibpqScanner
from .cost_model import ScanCostModel, calibrate
from .workloads import Workload

__all__ = ["QueryStats", "run_queries", "HarnessContext"]


@dataclass(frozen=True)
class QueryStats:
    """Statistics of one query's partition scan."""

    query_index: int
    partition_id: int
    partition_size: int
    pruned_fraction: float
    n_exact: int
    n_keep: int
    wall_time_s: float
    modeled_time_ms: float | None
    modeled_speed_vps: float | None
    exact_match: bool


@dataclass
class HarnessContext:
    """Workload + calibrated cost models, shared across experiments."""

    workload: Workload
    cost_models: dict[str, ScanCostModel] = field(default_factory=dict)

    def cost_model(self, arch: str, scanner: PQFastScanner) -> ScanCostModel:
        model = self.cost_models.get(arch)
        if model is None:
            pid = int(np.argmax(self.workload.index.partition_sizes()))
            partition = self.workload.index.partitions[pid]
            query = self.workload.queries[0]
            tables = self.workload.index.distance_tables_for(query, pid)
            model = calibrate(arch, scanner, tables, partition)
            self.cost_models[arch] = model
        return model


def run_queries(
    ctx: HarnessContext,
    scanner: PartitionScanner,
    *,
    query_indexes: np.ndarray | list[int],
    topk: int = 100,
    arch: str = "haswell",
    verify_against: PartitionScanner | None = None,
    partition_override: int | None = None,
) -> list[QueryStats]:
    """Execute queries through ``scanner``; returns per-query statistics.

    ``verify_against`` (defaults to libpq PQ Scan for fast scanners)
    re-runs every query with the reference scanner and asserts identical
    neighbors — the exactness property of Section 5.1.
    """
    workload = ctx.workload
    reference = verify_against
    if reference is None and isinstance(scanner, PQFastScanner):
        reference = LibpqScanner()
    stats: list[QueryStats] = []
    cost_model: ScanCostModel | None = None
    if isinstance(scanner, PQFastScanner):
        cost_model = ctx.cost_model(arch, scanner)
    for qi in query_indexes:
        qi = int(qi)
        query = workload.queries[qi]
        pid = (
            int(workload.query_partitions[qi])
            if partition_override is None
            else partition_override
        )
        partition = workload.index.partitions[pid]
        tables = workload.index.distance_tables_for(query, pid)
        # The prepared layout is built once per partition, not per query
        # (0.1 s at 100 K rows against a 3-6 ms scan): keep it off the clock.
        scanner.warm([partition])
        start = time.perf_counter()
        result = scanner.scan(tables, partition, topk=topk)
        wall = time.perf_counter() - start

        modeled_ms = modeled_speed = None
        if cost_model is not None and isinstance(result, FastScanResult):
            grouped = scanner.prepared(partition)
            n_groups = len(grouped.groups)
            modeled_ms = cost_model.fastscan_time_ms(
                len(partition), result, n_groups
            )
            modeled_speed = cost_model.fastscan_speed(
                len(partition), result, n_groups
            )

        exact = True
        if reference is not None:
            ref = reference.scan(tables, partition, topk=topk)
            exact = result.same_neighbors(ref)
        stats.append(
            QueryStats(
                query_index=qi,
                partition_id=pid,
                partition_size=len(partition),
                pruned_fraction=result.pruned_fraction,
                n_exact=getattr(result, "n_exact", 0),
                n_keep=getattr(result, "n_keep", 0),
                wall_time_s=wall,
                modeled_time_ms=modeled_ms,
                modeled_speed_vps=modeled_speed,
                exact_match=exact,
            )
        )
    return stats


def summarize(stats: list[QueryStats]) -> dict:
    """Aggregate a stats batch into the quantities the figures plot."""
    pruned = np.array([s.pruned_fraction for s in stats])
    speeds = np.array(
        [s.modeled_speed_vps for s in stats if s.modeled_speed_vps is not None]
    )
    times = np.array(
        [s.modeled_time_ms for s in stats if s.modeled_time_ms is not None]
    )
    out = {
        "n_queries": len(stats),
        "pruned_mean": float(pruned.mean()) if len(pruned) else 0.0,
        "pruned_median": float(np.median(pruned)) if len(pruned) else 0.0,
        "all_exact": bool(all(s.exact_match for s in stats)),
    }
    if len(speeds):
        out["speed_median_mvps"] = float(np.median(speeds)) / 1e6
        out["speed_q1_mvps"] = float(np.percentile(speeds, 25)) / 1e6
        out["speed_q3_mvps"] = float(np.percentile(speeds, 75)) / 1e6
    if len(times):
        out["time_median_ms"] = float(np.median(times))
    if stats:
        out["wall_median_ms"] = float(np.median([s.wall_time_s for s in stats])) * 1e3
    return out
