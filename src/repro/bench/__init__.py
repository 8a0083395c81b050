"""Benchmark harness: workloads, calibrated cost model, reporting."""

from .bandwidth import BandwidthAnalysis, analyze_concurrency
from .cost_model import ScanCostModel, calibrate
from .harness import HarnessContext, QueryStats, run_queries, summarize
from .reporting import format_table, results_dir, save_report
from .workloads import (
    PAPER_PARTITION_SIZES,
    Workload,
    build_workload,
    default_cache_dir,
)

__all__ = [
    "BandwidthAnalysis",
    "HarnessContext",
    "PAPER_PARTITION_SIZES",
    "QueryStats",
    "ScanCostModel",
    "Workload",
    "analyze_concurrency",
    "build_workload",
    "calibrate",
    "default_cache_dir",
    "format_table",
    "results_dir",
    "run_queries",
    "save_report",
    "summarize",
]
