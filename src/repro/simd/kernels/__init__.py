"""Instruction-stream kernels for the simulated CPU."""

from .base import KernelRun, make_executor
from .fastscan import build_block_layout, fastscan_kernel
from .quickadc import quickadc_kernel
from .scalar import libpq_kernel, naive_kernel
from .simdscan import avx_kernel, gather_kernel

#: PQ Scan baseline kernels keyed by the paper's implementation names.
SCAN_KERNELS = {
    "naive": naive_kernel,
    "libpq": libpq_kernel,
    "avx": avx_kernel,
    "gather": gather_kernel,
}

__all__ = [
    "KernelRun",
    "SCAN_KERNELS",
    "avx_kernel",
    "build_block_layout",
    "fastscan_kernel",
    "gather_kernel",
    "libpq_kernel",
    "make_executor",
    "naive_kernel",
    "quickadc_kernel",
]
