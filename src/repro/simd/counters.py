"""Performance counters collected by the simulator (Figures 3 and 15).

The paper instruments PQ Scan implementations with hardware performance
counters: cycles, cycles with pending loads, instructions, µops, L1
loads, and IPC — all reported *per scanned vector*. The simulator
produces the same set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Counter values accumulated over one simulated kernel run."""

    instructions: int = 0
    #: Float: fractional per-slice µops model 512-bit instructions
    #: traced as four 128-bit slices (see InstructionCost.uops).
    uops: float = 0.0
    cycles: float = 0.0
    cycles_with_load: float = 0.0
    l1_loads: int = 0
    l2_loads: int = 0
    l3_loads: int = 0
    register_lookups: int = 0
    per_op: dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def total_loads(self) -> int:
        """Memory loads across all cache levels."""
        return self.l1_loads + self.l2_loads + self.l3_loads

    def count_op(self, op: str) -> None:
        self.per_op[op] = self.per_op.get(op, 0) + 1

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate another counter set into this one (in place).

        Used to aggregate per-worker counters after a multi-threaded
        run: each worker accumulates into its own instance, and the
        coordinator merges them once the pool has drained.
        """
        self.instructions += other.instructions
        self.uops += other.uops
        self.cycles += other.cycles
        self.cycles_with_load += other.cycles_with_load
        self.l1_loads += other.l1_loads
        self.l2_loads += other.l2_loads
        self.l3_loads += other.l3_loads
        self.register_lookups += other.register_lookups
        for op, count in other.per_op.items():
            self.per_op[op] = self.per_op.get(op, 0) + count
        return self

    def as_dict(self) -> dict[str, float | int | dict[str, int]]:
        """JSON-safe dump (benchmark reports, observability exports)."""
        return {
            "instructions": self.instructions,
            "uops": self.uops,
            "cycles": self.cycles,
            "cycles_with_load": self.cycles_with_load,
            "l1_loads": self.l1_loads,
            "l2_loads": self.l2_loads,
            "l3_loads": self.l3_loads,
            "register_lookups": self.register_lookups,
            "ipc": self.ipc,
            "per_op": dict(self.per_op),
        }

    def per_vector(self, n_vectors: int) -> "PerVectorCounters":
        """Normalize to per-scanned-vector quantities (the paper's unit)."""
        if n_vectors <= 0:
            raise ConfigurationError("n_vectors must be positive")
        return PerVectorCounters(
            instructions=self.instructions / n_vectors,
            uops=self.uops / n_vectors,
            cycles=self.cycles / n_vectors,
            cycles_with_load=self.cycles_with_load / n_vectors,
            l1_loads=self.l1_loads / n_vectors,
            ipc=self.ipc,
        )


@dataclass(frozen=True)
class PerVectorCounters:
    """Per-vector view of :class:`PerfCounters` (Figure 3's y-axes)."""

    instructions: float
    uops: float
    cycles: float
    cycles_with_load: float
    l1_loads: float
    ipc: float

    def as_dict(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "cycles w/ load": self.cycles_with_load,
            "instructions": self.instructions,
            "uops": self.uops,
            "L1 loads": self.l1_loads,
            "IPC": self.ipc,
        }
