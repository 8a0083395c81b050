"""PQ Scan baseline implementations (Section 3 of the paper)."""

from .base import PartitionScanner, ScanBlock, ScanResult
from .layout import (
    NibblePartition,
    extract_component,
    nibble_block_layout,
    nibble_lower_bounds,
    pack_codes_words,
    pack_nibbles,
    transpose_codes,
    unpack_codes_words,
    unpack_nibbles,
    untranspose_codes,
)
from .libpq import LibpqScanner
from .naive import NaiveScanner
from .quickadc import QuickADCResult, QuickADCScanner
from .topk import TopKAccumulator, select_topk, select_topk_rows

__all__ = [
    "LibpqScanner",
    "NaiveScanner",
    "NibblePartition",
    "PartitionScanner",
    "QuickADCResult",
    "QuickADCScanner",
    "ScanBlock",
    "ScanResult",
    "TopKAccumulator",
    "extract_component",
    "nibble_block_layout",
    "nibble_lower_bounds",
    "pack_codes_words",
    "pack_nibbles",
    "select_topk",
    "select_topk_rows",
    "transpose_codes",
    "unpack_codes_words",
    "unpack_nibbles",
    "untranspose_codes",
]
