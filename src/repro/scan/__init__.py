"""PQ Scan baseline implementations (Section 3 of the paper)."""

from .avx import AVXScanner
from .base import InstructionProfile, PartitionScanner, ScanBlock, ScanResult
from .gather import GatherScanner
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

#: All baseline scanner classes keyed by their paper name.
#: (QuickADCScanner, like PQFastScanner, is constructor-parameterized on
#: a fitted ProductQuantizer and therefore registered via EngineConfig,
#: not here.)
SCANNERS = {
    cls.name: cls
    for cls in (NaiveScanner, LibpqScanner, AVXScanner, GatherScanner)
}

__all__ = [
    "AVXScanner",
    "GatherScanner",
    "InstructionProfile",
    "LibpqScanner",
    "NaiveScanner",
    "NibblePartition",
    "PartitionScanner",
    "QuickADCResult",
    "QuickADCScanner",
    "SCANNERS",
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
