"""Simulated SIMD PQ Scan kernels: AVX vertical adds and gather (Sec. 3.2).

``avx_kernel`` (Figure 4): 8 vectors at a time; for each distance table,
the 8 looked-up floats must be *inserted* into SIMD ways one by one
before a single 8-way vertical add. The inserts offset the addition
savings.

``gather_kernel`` (Figure 5): the per-way inserts are replaced by one
``vgatherdps`` per table, fed by 8 contiguous indexes of the transposed
layout. Few instructions, but each gather is 34 µops with 18-cycle
latency and 10-cycle reciprocal throughput — the pipeline starves and
the kernel is slower than naive, matching the paper's measurement.

Both kernels run on the transposed layout of
:func:`repro.scan.layout.transpose_codes`: the j-th components of 8
consecutive vectors occupy one 64-bit word, loaded in a single
instruction.
"""

from __future__ import annotations

import numpy as np

from ...dtypes import AnyCodeArray, FloatArray, UInt8Array, UInt64Array
from ...scan.layout import transpose_codes
from ..arch import CPUModel
from ..executor import Executor
from .base import FLOAT32_TABLES, KernelRun, load_tables, make_executor

__all__ = ["avx_kernel", "gather_kernel"]

_LANES = 8


def _reduce_block(ex: Executor, n_valid: int, base_row: int, min_pos: int) -> int:
    """Compare the 8 accumulated lanes against the running minimum."""
    for lane in range(n_valid):
        ex.vextract_f32("lane", "acc", lane)
        better = ex.cmp_f32("lane", "min")
        ex.branch(site="block-min", taken=better)
        if better:
            ex.mov("min", "lane")
            min_pos = base_row + lane
    # Block-loop bookkeeping.
    ex.add_u64("b", "b", 1)
    ex.cmp_u64("b", 1 << 62)
    ex.branch(site="block-loop", taken=True)
    return min_pos


def _transposed_words(codes: UInt8Array) -> tuple[UInt8Array, UInt64Array]:
    """Transposed blocks plus their uint64 word view (one word per table)."""
    blocks, _ = transpose_codes(codes, lanes=_LANES)
    words = np.ascontiguousarray(blocks.reshape(-1, _LANES)).view("<u8")[:, 0]
    return blocks, words


def avx_kernel(
    cpu: CPUModel | str | Executor, tables: FloatArray, codes: AnyCodeArray
) -> KernelRun:
    """Execute the AVX vertical-add PQ Scan on the simulated CPU."""
    ex = make_executor(cpu)
    codes = np.ascontiguousarray(np.asarray(codes, dtype=np.uint8))
    n, m = codes.shape
    blocks, words = _transposed_words(codes)
    load_tables(ex, tables)
    ex.memory.add("twords", words, streamed=True)

    ex.mov_imm("min", float("inf"))
    ex.mov_imm("b", 0)
    min_pos = -1
    for b in range(blocks.shape[0]):
        ex.vzero_f32x8("acc")
        for j in range(m):
            # One 64-bit load brings the 8 lanes' indexes of table j.
            ex.load_u64("word", "twords", b * m + j)
            # Way-by-way: extract index, load from the table, insert.
            # The byte extraction folds into the load's addressing
            # (movzx of the word's low byte), so only lane 0 pays an
            # explicit mask; later lanes just shift the word.
            for lane in range(_LANES):
                if lane:
                    ex.shr_u64("idx", "word", 8 * lane)
                else:
                    ex.and_u64("idx", "word", 0xFF)
                index = int(ex.reg("idx")) & 0xFF
                ex.load_f32(
                    "val", FLOAT32_TABLES, j * 256 + index, addr_reg="idx"
                )
                # Lane 0 is a plain vmovss: starts a fresh insert chain.
                ex.vinsert_f32("ways", "val", lane, fresh=(lane == 0))
            ex.vaddps("acc", "acc", "ways")
        n_valid = min(_LANES, n - b * _LANES)
        min_pos = _reduce_block(ex, n_valid, b * _LANES, min_pos)
    return KernelRun(
        name="avx",
        min_distance=float(ex.reg("min")),
        min_position=min_pos,
        n_vectors=n,
        counters=ex.counters,
        cpu=ex.cpu,
    )


def gather_kernel(
    cpu: CPUModel | str | Executor, tables: FloatArray, codes: AnyCodeArray
) -> KernelRun:
    """Execute the gather-based PQ Scan on the simulated CPU (Haswell+).

    ``vgatherdps`` addresses the table through a base register, so no
    extra instruction is charged for the per-table offset; the simulated
    indexes fold the base in before the gather executes.
    """
    ex = make_executor(cpu)
    codes = np.ascontiguousarray(np.asarray(codes, dtype=np.uint8))
    n, m = codes.shape
    blocks, _ = _transposed_words(codes)
    load_tables(ex, tables)
    ex.memory.add("tcodes", blocks.reshape(-1), streamed=True)

    ex.mov_imm("min", float("inf"))
    ex.mov_imm("b", 0)
    min_pos = -1
    for b in range(blocks.shape[0]):
        ex.vzero_f32x8("acc")
        for j in range(m):
            ex.vload_idx8("idx8", "tcodes", (b * m + j) * _LANES)
            # Base-pointer addressing: gather from row j of the tables.
            ex.regs["idx8"] = ex.reg("idx8") + np.int32(j * 256)
            ex.vgather_f32("ways", FLOAT32_TABLES, "idx8")
            ex.vaddps("acc", "acc", "ways")
        n_valid = min(_LANES, n - b * _LANES)
        min_pos = _reduce_block(ex, n_valid, b * _LANES, min_pos)
    return KernelRun(
        name="gather",
        min_distance=float(ex.reg("min")),
        min_position=min_pos,
        n_vectors=n,
        counters=ex.counters,
        cpu=ex.cpu,
    )
