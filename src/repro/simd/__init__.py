"""Cycle-level SIMD CPU simulator.

This package is the substitution for the paper's C++/SSSE3 kernels and
Intel hardware (see DESIGN.md): a 128-bit register machine with real
instruction semantics (``pshufb`` shuffles bytes, ``paddsb`` saturates),
per-architecture cost tables (Table 2), a three-level cache model
(Table 1) and a scoreboard pipeline that produces the performance
counters of Figures 3 and 15.

High-level entry point::

    from repro.simd import simulate_pq_scan
    run = simulate_pq_scan("gather", "haswell", tables, codes)
    print(run.cycles_per_vector, run.counters.l1_loads / run.n_vectors)
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .arch import PLATFORMS, CPUModel, get_platform
from .cache import CacheLevel, CacheModel, NEHALEM_HASWELL_CACHE
from .costs import BASE_COSTS, InstructionCost, cost_table
from .counters import PerfCounters
from .executor import Executor
from .kernels import (
    SCAN_KERNELS,
    KernelRun,
    avx_kernel,
    fastscan_kernel,
    gather_kernel,
    libpq_kernel,
    naive_kernel,
    quickadc_kernel,
)

__all__ = [
    "BASE_COSTS",
    "CPUModel",
    "CacheLevel",
    "CacheModel",
    "Executor",
    "InstructionCost",
    "KernelRun",
    "NEHALEM_HASWELL_CACHE",
    "PLATFORMS",
    "PerfCounters",
    "SCAN_KERNELS",
    "avx_kernel",
    "cost_table",
    "fastscan_kernel",
    "gather_kernel",
    "get_platform",
    "libpq_kernel",
    "naive_kernel",
    "quickadc_kernel",
    "simulate_pq_scan",
]


def simulate_pq_scan(
    implementation: str,
    cpu: str | CPUModel,
    tables: np.ndarray,
    codes: np.ndarray,
) -> KernelRun:
    """Run one PQ Scan baseline kernel on the simulated CPU.

    Args:
        implementation: "naive", "libpq", "avx" or "gather".
        cpu: platform name (Table 5 letter or architecture name) or model.
        tables: (m, 256) per-query distance tables.
        codes: (n, m) pqcodes of the partition sample to scan.
    """
    kernel = SCAN_KERNELS.get(implementation)
    if kernel is None:
        raise ConfigurationError(
            f"unknown implementation {implementation!r}; "
            f"choices: {sorted(SCAN_KERNELS)}"
        )
    return kernel(cpu, tables, codes)
