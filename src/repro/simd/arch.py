"""CPU architecture models and the paper's test platforms (Table 5).

Each :class:`CPUModel` bundles an instruction cost table, a cache
hierarchy, pipeline parameters and a clock frequency. The four registered
platforms reproduce Table 5 of the paper:

========= ============== ============ ============ =============
platform  laptop (A)     workst. (B)  server (C)   server (D)
CPU       i7-4810MQ      E5-2609v2    E5-2640      X5570
arch      Haswell        Ivy Bridge   Sandy Bridge Nehalem
clock     2.8-3.8 GHz    2.5 GHz      2.5-3.0 GHz  2.9-3.3 GHz
year      2014           2013         2012         2009
========= ============== ============ ============ =============

Architectural differences that matter to the simulated kernels: only
Haswell has the AVX2 ``gather`` instruction; pre-AVX architectures
(Nehalem) execute 256-bit additions as two 128-bit µops; load-to-use
latencies drift slightly across generations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from .cache import NEHALEM_HASWELL_CACHE, CacheModel
from .costs import (
    AVX512_BYTE_OVERRIDES,
    NEON_TBL_OVERRIDES,
    InstructionCost,
    cost_table,
)

__all__ = ["CPUModel", "PLATFORMS", "get_platform"]


@dataclass
class CPUModel:
    """A simulated CPU: pipeline, costs, caches, clock.

    Attributes:
        name: short identifier ("haswell", "nehalem", ...).
        description: human-readable platform line for reports.
        clock_ghz: sustained clock used to convert cycles to seconds.
        issue_width: instructions the front-end can issue per cycle.
        costs: opcode → :class:`InstructionCost` map.
        cache: the cache hierarchy model.
        has_gather: whether AVX2 gather exists on this architecture.
        has_avx: whether 256-bit float SIMD exists (Sandy Bridge+).
        year: release year (Table 5).
    """

    name: str
    description: str
    clock_ghz: float
    issue_width: int = 4
    costs: dict[str, InstructionCost] = field(default_factory=cost_table)
    cache: CacheModel = field(default_factory=NEHALEM_HASWELL_CACHE)
    has_gather: bool = True
    has_avx: bool = True
    year: int = 2014
    mispredict_penalty: float = 15.0
    #: Sustained DRAM bandwidth (Section 5.8: 40-70 GB/s on servers).
    memory_bandwidth_gbs: float = 25.6
    #: Physical cores available for query-per-core parallelism.
    n_cores: int = 4

    def cost(self, op: str) -> InstructionCost:
        c = self.costs.get(op)
        if c is None:
            raise ConfigurationError(f"opcode {op!r} has no cost on {self.name}")
        return c

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e9)

    def scan_speed(self, cycles_per_vector: float) -> float:
        """Vectors scanned per second at this clock (Figure 20's metric)."""
        if cycles_per_vector <= 0:
            return 0.0
        return self.clock_ghz * 1e9 / cycles_per_vector


def _haswell() -> CPUModel:
    return CPUModel(
        name="haswell",
        description="laptop (A) — Core i7-4810MQ, Haswell, 2014",
        clock_ghz=3.5,
        costs=cost_table(),
        cache=NEHALEM_HASWELL_CACHE(l1_latency=4.0, l2_latency=12.0, l3_latency=30.0),
        has_gather=True,
        has_avx=True,
        year=2014,
        memory_bandwidth_gbs=25.6,  # 2ch DDR3-1600 (Table 5: 2x4 GB)
        n_cores=4,
    )


def _ivy_bridge() -> CPUModel:
    return CPUModel(
        name="ivy-bridge",
        description="workstation (B) — Xeon E5-2609v2, Ivy Bridge, 2013",
        clock_ghz=2.5,
        costs=cost_table({"vgather_f32": InstructionCost(24, 14, uops=40)}),
        cache=NEHALEM_HASWELL_CACHE(l1_latency=4.0, l2_latency=12.0, l3_latency=30.0),
        has_gather=False,  # AVX2 gather is Haswell+
        has_avx=True,
        year=2013,
        memory_bandwidth_gbs=42.6,  # 4ch DDR3-1333 (Table 5: 4x4 GB)
        n_cores=4,
    )


def _sandy_bridge() -> CPUModel:
    return CPUModel(
        name="sandy-bridge",
        description="server (C) — Xeon E5-2640, Sandy Bridge, 2012",
        clock_ghz=2.8,
        costs=cost_table({"pmovmskb": InstructionCost(2, 1)}),
        cache=NEHALEM_HASWELL_CACHE(l1_latency=4.0, l2_latency=12.0, l3_latency=28.0),
        has_gather=False,
        has_avx=True,
        year=2012,
        memory_bandwidth_gbs=42.6,  # 4ch DDR3-1333 (Table 5: 4x16 GB)
        n_cores=6,
    )


def _nehalem() -> CPUModel:
    return CPUModel(
        name="nehalem",
        description="server (D) — Xeon X5570, Nehalem, 2009",
        clock_ghz=3.1,
        # No AVX: 256-bit vector ops split into two 128-bit halves.
        costs=cost_table(
            {
                "vaddps": InstructionCost(3, 2, uops=2),
                "vinsert_f32": InstructionCost(4, 2, uops=3),
                "pshufb": InstructionCost(1, 1),
                "pmovmskb": InstructionCost(2, 1),
            }
        ),
        cache=NEHALEM_HASWELL_CACHE(
            l1_latency=4.0, l2_latency=11.0, l3_latency=38.0,
            l3_size=8 * 1024 * 1024,
        ),
        has_gather=False,
        has_avx=False,
        year=2009,
        memory_bandwidth_gbs=25.6,  # 3ch DDR3-1066 (Table 5: 6x4 GB)
        n_cores=4,
    )


def _cortex_a72() -> CPUModel:
    """ARM extension platform (Section 6): NEON has the shuffle (TBL)
    and saturating-add instructions PQ Fast Scan needs, so the kernel
    runs unchanged — on a narrower, slower core."""
    return CPUModel(
        name="cortex-a72",
        description="extension — ARM Cortex-A72, NEON, 2016",
        clock_ghz=1.8,
        issue_width=3,
        costs=cost_table(
            {
                "pshufb": InstructionCost(3, 1),   # NEON TBL
                "paddsb": InstructionCost(3, 1),   # SQADD
                "pmovmskb": InstructionCost(5, 2, uops=3),  # no direct movemask
                "vaddps": InstructionCost(4, 2, uops=2),
                "vinsert_f32": InstructionCost(5, 2, uops=2),
            }
        ),
        cache=NEHALEM_HASWELL_CACHE(
            l1_latency=4.0, l2_latency=14.0, l3_latency=40.0,
            l3_size=2 * 1024 * 1024,
        ),
        has_gather=False,
        has_avx=False,
        year=2016,
        mispredict_penalty=14.0,
    )


def _skylake_avx512() -> CPUModel:
    """AVX-512 extension platform (Quicker ADC, arXiv 1812.09162): a
    512-bit ``vpshufb`` looks up four 128-bit blocks per instruction, so
    the byte-SIMD overrides amortize each op's throughput across four
    blocks. This is the platform the Quick ADC vs Fast Scan cycle
    comparison (``tests/test_quickadc.py::TestCycleGateAtEqualBudget``,
    perfbench's ``simd.avx512_cycles_per_code``) is gated on."""
    return CPUModel(
        name="skylake-avx512",
        description="extension — Xeon Skylake-SP, AVX-512BW, 2017",
        clock_ghz=3.0,
        costs=cost_table(AVX512_BYTE_OVERRIDES),
        cache=NEHALEM_HASWELL_CACHE(
            l1_latency=4.0, l2_latency=14.0, l3_latency=40.0,
            l3_size=24 * 1024 * 1024,
        ),
        has_gather=True,
        has_avx=True,
        year=2017,
        memory_bandwidth_gbs=115.2,  # 6ch DDR4-2400
        n_cores=18,
    )


def _graviton2() -> CPUModel:
    """ARM server extension platform (Neoverse-N1, per the ARM 4-bit PQ
    paper, arXiv 2203.02505): NEON ``TBL`` serves as the register
    lookup; wider and faster than the Cortex-A72 mobile core."""
    return CPUModel(
        name="graviton2",
        description="extension — AWS Graviton2, Neoverse-N1 NEON, 2019",
        clock_ghz=2.5,
        issue_width=4,
        costs=cost_table(NEON_TBL_OVERRIDES),
        cache=NEHALEM_HASWELL_CACHE(
            l1_latency=4.0, l2_latency=11.0, l3_latency=32.0,
            l3_size=32 * 1024 * 1024,
        ),
        has_gather=False,
        has_avx=False,
        year=2019,
        mispredict_penalty=11.0,
        memory_bandwidth_gbs=204.8,  # 8ch DDR4-3200
        n_cores=64,
    )


#: Registered simulated platforms; letters follow Table 5, plus the
#: extension platforms ("cortex-a72", "skylake-avx512", "graviton2").
PLATFORMS: dict[str, CPUModel] = {}
for _factory, _aliases in (
    (_haswell, ("haswell", "A", "laptop")),
    (_ivy_bridge, ("ivy-bridge", "B", "workstation")),
    (_sandy_bridge, ("sandy-bridge", "C")),
    (_nehalem, ("nehalem", "D")),
    (_cortex_a72, ("cortex-a72", "neon")),
    (_skylake_avx512, ("skylake-avx512", "avx512")),
    (_graviton2, ("graviton2", "neoverse-n1")),
):
    _model = _factory()
    for _alias in _aliases:
        PLATFORMS[_alias] = _model


def get_platform(name: str) -> CPUModel:
    """Look up a platform by name or Table 5 letter; fresh cache state."""
    key = name if name in PLATFORMS else name.lower()
    if key not in PLATFORMS:
        raise ConfigurationError(
            f"unknown platform {name!r}; choices: {sorted(set(PLATFORMS))}"
        )
    model = PLATFORMS[key]
    # Return a copy with fresh cache residency so runs don't interfere.
    return CPUModel(
        name=model.name,
        description=model.description,
        clock_ghz=model.clock_ghz,
        issue_width=model.issue_width,
        costs=dict(model.costs),
        cache=CacheModel(levels=model.cache.levels,
                         memory_latency=model.cache.memory_latency),
        has_gather=model.has_gather,
        has_avx=model.has_avx,
        year=model.year,
        mispredict_penalty=model.mispredict_penalty,
        memory_bandwidth_gbs=model.memory_bandwidth_gbs,
        n_cores=model.n_cores,
    )
