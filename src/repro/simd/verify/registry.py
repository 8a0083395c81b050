"""Kernel registry for the SIMD stream verifier.

Each registered kernel is run once on a small deterministic synthetic
workload with a :class:`~repro.simd.verify.trace.TracingExecutor`
substituted for the real one; the captured stream is then handed to the
abstract interpreter. The workload is fixed so captures are reproducible
across runs and platforms (the instruction *stream* depends only on the
data, never on the CPU model's costs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core.grouping import GroupedPartition
from ...dtypes import FloatArray, UInt8Array
from ...exceptions import ConfigurationError
from ...ivf.partition import Partition
from ..arch import CPUModel, get_platform
from ..kernels import (
    avx_kernel,
    fastscan_kernel,
    gather_kernel,
    libpq_kernel,
    naive_kernel,
    quickadc_kernel,
)
from .interp import VerifierError, verify_stream
from .trace import InstructionStream, TracingExecutor

__all__ = [
    "KERNEL_NAMES",
    "capture",
    "verify_all",
    "verify_kernel",
]

#: All verifiable kernels, in the paper's presentation order (plus the
#: Quick ADC successor kernel).
KERNEL_NAMES = (
    "scalar", "libpq", "avx", "gather", "fastscan", "quickadc",
)

#: Rows / components of the synthetic workload: two 16-vector blocks per
#: populated group with m=8 components — enough to exercise every
#: instruction of every kernel, small enough to capture in milliseconds.
_N, _M = 64, 8


def _workload_tables() -> FloatArray:
    values = np.arange(_M * 256, dtype=np.float32)
    return np.asarray(((values * 13.0) % 97.0) / 7.0 + 0.25).reshape(_M, 256)


def _workload_codes() -> UInt8Array:
    values = (np.arange(_N * _M, dtype=np.int64) * 31 + 7) % 256
    # Values are 0..255 by construction (mod 256), so the cast is lossless.
    return values.astype(np.uint8).reshape(_N, _M)  # reprolint: narrowing=exact


def _workload_grouped() -> GroupedPartition:
    codes = _workload_codes()
    partition = Partition(codes, np.arange(len(codes), dtype=np.int64), 0)
    return GroupedPartition(partition, c=2)


#: Components of the 4-bit workload: 16 nibbles = a 64-bit code budget.
_M4 = 16


def _workload_tables_4bit() -> FloatArray:
    values = np.arange(_M4 * 16, dtype=np.float32)
    return np.asarray(((values * 13.0) % 97.0) / 7.0 + 0.25).reshape(_M4, 16)


def _workload_codes_4bit() -> UInt8Array:
    # The intermediate mod 97 breaks the 16-alignment of the flat index
    # (with m=16, any pattern linear mod 16 would repeat identically on
    # every row); the final mod 16 makes the values genuine nibbles.
    values = ((np.arange(_N * _M4, dtype=np.int64) * 31 + 7) % 97) % 16
    # Values are 0..15 by construction (mod 16), so the cast is lossless.
    return values.astype(np.uint8).reshape(_N, _M4)  # reprolint: narrowing=exact


def capture(kernel: str, platform: str = "haswell") -> InstructionStream:
    """Run one registered kernel under tracing; return its stream."""
    if kernel not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; choices: {list(KERNEL_NAMES)}"
        )
    ex = TracingExecutor(get_platform(platform))
    tables = _workload_tables()
    if kernel == "scalar":
        naive_kernel(ex, tables, _workload_codes())
    elif kernel == "libpq":
        libpq_kernel(ex, tables, _workload_codes())
    elif kernel == "avx":
        avx_kernel(ex, tables, _workload_codes())
    elif kernel == "gather":
        gather_kernel(ex, tables, _workload_codes())
    elif kernel == "fastscan":
        fastscan_kernel(ex, tables, _workload_grouped(), keep=0.05)
    else:
        quickadc_kernel(
            ex, _workload_tables_4bit(), _workload_codes_4bit(),
            topk=4, keep=0.05,
        )
    return InstructionStream(
        kernel=kernel,
        platform=platform,
        instructions=tuple(ex.trace),
        buffers=ex.buffer_sizes,
    )


def verify_kernel(
    kernel: str,
    platform: str = "haswell",
    platforms: Sequence[CPUModel] | None = None,
) -> tuple[InstructionStream, list[VerifierError]]:
    """Capture one kernel and verify its stream."""
    stream = capture(kernel, platform)
    return stream, verify_stream(stream, platforms)


def verify_all(
    platform: str = "haswell",
    platforms: Sequence[CPUModel] | None = None,
) -> dict[str, tuple[InstructionStream, list[VerifierError]]]:
    """Capture and verify every registered kernel."""
    return {
        kernel: verify_kernel(kernel, platform, platforms)
        for kernel in KERNEL_NAMES
    }
