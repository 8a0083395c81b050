"""Simulation-calibrated cost model for scan-speed projections.

Running the cycle-level simulator over every (keep, topk, partition)
cell of the parameter sweeps would take hours, so sweep figures combine:

* **algorithmic quantities** measured exactly by the numpy scanners
  (pruning power, survivor counts, group sizes), and
* **micro-architectural unit costs** calibrated once per CPU model by
  running the simulator kernels on a representative sample.

The modeled cost of a PQ Fast Scan query over ``n`` vectors is::

    cycles =   keep_fraction * n * libpq_cpv          (keep phase)
             + n_fast * lb_cpv                        (lower bounds)
             + n_exact * exact_cpv                    (survivor checks)
             + n_groups * group_reload_cycles         (portion loads)

where ``lb_cpv`` is the cycles/vector of a fully-pruning fast-scan run,
``exact_cpv`` is the incremental cost of one exact pqdistance (derived
from a zero-pruning run), and ``libpq_cpv`` comes from the libpq kernel.
Figure 15 runs the real kernels instead; the model is cross-validated
against them in the test suite. The survivor counts are the numpy
scanner's (best-first since PR 23), so every modeled figure, 14 and 20
included, moves when its schedule does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fast_scan import FastScanResult, PQFastScanner
from ..core.grouping import GroupedPartition
from ..ivf.partition import Partition
from ..pq.adc import adc_distances
from ..simd.arch import CPUModel, get_platform
from ..simd.kernels import fastscan_kernel, libpq_kernel, naive_kernel

__all__ = ["ScanCostModel", "calibrate"]


@dataclass(frozen=True)
class ScanCostModel:
    """Per-architecture unit costs (cycles) calibrated from the simulator."""

    cpu_name: str
    clock_ghz: float
    libpq_cpv: float
    naive_cpv: float
    lb_cpv: float
    exact_cpv: float
    group_reload_cycles: float
    mispredict_penalty: float = 15.0
    block: int = 16

    def fastscan_cycles(
        self,
        n: int,
        result: FastScanResult,
        n_groups: int,
    ) -> float:
        """Modeled cycles for one PQ Fast Scan query (see module doc).

        Includes the survivor-branch misprediction cost, which the two
        calibration runs cannot see (their all-pruned / none-pruned
        branches are perfectly predicted): with survivor rate ``s``, a
        16-vector block has a survivor with probability
        ``p = 1 - (1-s)^16``; a 1-bit predictor mispredicts on direction
        changes, i.e. ``2 p (1-p)`` of blocks.
        """
        n_fast = n - result.n_keep
        survivor_rate = result.n_exact / max(n_fast, 1)
        p_block = 1.0 - (1.0 - min(survivor_rate, 1.0)) ** self.block
        mispredicts = (n_fast / self.block) * 2.0 * p_block * (1.0 - p_block)
        return (
            result.n_keep * self.libpq_cpv
            + n_fast * self.lb_cpv
            + result.n_exact * self.exact_cpv
            + n_groups * self.group_reload_cycles
            + mispredicts * self.mispredict_penalty
        )

    def fastscan_speed(self, n: int, result: FastScanResult, n_groups: int) -> float:
        """Modeled scan speed in vectors/second."""
        cycles = self.fastscan_cycles(n, result, n_groups)
        if cycles <= 0:
            return 0.0
        return n * self.clock_ghz * 1e9 / cycles

    def fastscan_time_ms(self, n: int, result: FastScanResult, n_groups: int) -> float:
        return self.fastscan_cycles(n, result, n_groups) / (self.clock_ghz * 1e9) * 1e3

    def libpq_speed(self) -> float:
        """libpq PQ Scan speed in vectors/second (constant per arch)."""
        return self.clock_ghz * 1e9 / self.libpq_cpv

    def libpq_time_ms(self, n: int) -> float:
        return n * self.libpq_cpv / (self.clock_ghz * 1e9) * 1e3


def calibrate(
    cpu: str | CPUModel,
    scanner: PQFastScanner,
    tables: np.ndarray,
    partition: Partition,
    *,
    sample_size: int = 4096,
) -> ScanCostModel:
    """Measure unit costs by running the simulator on a workload sample.

    ``lb_cpv`` comes from a fast-scan kernel run with an unbeatable
    threshold (every vector pruned → pure lower-bound pipeline);
    ``exact_cpv`` from the marginal cost of a run where no vector is
    pruned (threshold at saturation).
    """
    if isinstance(cpu, str):
        cpu = get_platform(cpu)
    sample = Partition(
        partition.codes[:sample_size], partition.ids[:sample_size],
        partition.partition_id,
    )
    grouped = scanner.prepare(sample)
    tables_r = scanner.assignment.remap_tables(np.asarray(tables, dtype=np.float64))

    libpq = libpq_kernel(cpu, tables, sample.codes)
    naive = naive_kernel(get_platform(cpu.name), tables, sample.codes)

    # All-pruned run (threshold pinned at -1): pure lower-bound pipeline.
    dists = adc_distances(tables_r, grouped.reconstruct_all())
    qmax = float(np.median(dists))
    tight = fastscan_kernel(
        get_platform(cpu.name), tables_r, grouped, qmax=qmax,
        threshold_override=-1,
    )
    lb_cpv = tight.counters.cycles / max(tight.n_vectors, 1)

    # No-pruning run (threshold pinned at 127): lower bounds + one exact
    # pqdistance per vector; the difference isolates the exact-path cost.
    loose = fastscan_kernel(
        get_platform(cpu.name), tables_r, grouped, qmax=qmax,
        threshold_override=127,
    )
    survivors = loose.n_vectors - loose.n_pruned
    exact_cpv = max(
        (loose.counters.cycles - tight.counters.cycles) / max(survivors, 1), 1.0
    )

    n_groups = len(grouped.groups)
    group_reload_cycles = float(grouped.c) * 1.0  # c portion loads per group
    return ScanCostModel(
        cpu_name=cpu.name,
        clock_ghz=cpu.clock_ghz,
        libpq_cpv=libpq.cycles_per_vector,
        naive_cpv=naive.cycles_per_vector,
        lb_cpv=lb_cpv,
        exact_cpv=exact_cpv,
        group_reload_cycles=group_reload_cycles,
        mispredict_penalty=cpu.mispredict_penalty,
    )
