"""Simulated Quick ADC kernel (arXiv 1704.07355, Figure 2 layout).

Where PQ Fast Scan spends its setup juggling grouped portions and
minimum tables to fake register-resident lookups for 8-bit codes, the
4-bit kernel's whole table state is loaded once per query: ``m``
16-entry int8 tables into registers T0..T(m-1). The scan then processes
16 vectors per block:

* ``ceil(m/2)`` 128-bit loads bring the nibble-packed code bytes;
* nibbles are extracted with ``pand`` (even components) and
  ``psrlw``+``pand`` (odd components), looked up with ``pshufb`` and
  folded with saturating ``paddsb`` — 16 lower bounds in one register;
* ``pminub`` maintains the running per-lane minimum (the best-bound
  tracker of the real implementation) and ``pcmpgtb``/``pmovmskb``
  against the broadcast sample threshold collect the candidate
  superset, each surviving lane paying a few scalar ops to append its
  row to the candidate buffer.

After the sweep the final cutoff — the smaller of the sample threshold
and the topk-th smallest bound, exactly as in
:class:`~repro.scan.quickadc.QuickADCScanner` — selects the candidates
that pay the exact-distance rerank (scalar table loads + float adds).
Instruction semantics run on real bytes, so the kernel's topk ids and
distances are byte-identical to the numpy scanner on the same inputs.
"""

from __future__ import annotations

import numpy as np

from ...core.quantization import DistanceQuantizer
from ...dtypes import FloatArray, Int64Array, UInt8Array
from ...exceptions import SimulationError
from ...scan.layout import NIBBLE_BLOCK, nibble_block_layout, nibble_lower_bounds, pack_nibbles
from ..arch import CPUModel
from ..executor import Executor
from .base import FLOAT32_TABLES, KernelRun, load_tables, make_executor

__all__ = ["quickadc_kernel"]

_NIBBLE_MASK = np.full(16, 0x0F, dtype=np.uint8)


def quickadc_kernel(
    cpu: CPUModel | str | Executor,
    tables: FloatArray,
    codes: UInt8Array,
    ids: Int64Array | None = None,
    *,
    topk: int = 1,
    keep: float = 0.005,
    qmax: float | None = None,
    threshold_override: int | None = None,
) -> KernelRun:
    """Execute Quick ADC over 4-bit codes on the simulated CPU.

    Args:
        cpu: CPU model or platform name.
        tables: (m, 16) float distance tables of the query.
        codes: (n, m) unpacked 4-bit sub-indexes (values in [0, 16)).
        ids: database identifiers per row (defaults to 0..n-1).
        topk: number of nearest neighbors maintained.
        keep: fraction of the partition scanned with exact ADC to seed
            the neighbor set and bound ``qmax`` (host-side, excluded
            from the per-vector counter normalization — the same
            treatment as the fast-scan kernel's keep phase).
        qmax: explicit quantization upper bound; if None it is the
            sample phase's topk-th distance, exactly as in the scanner.
        threshold_override: calibration hook — pin the int8 sweep
            threshold for the whole run (-1 prunes everything, 127
            prunes nothing). Results are NOT the scanner's topk when
            this is set.
    """
    ex = make_executor(cpu)
    tables = np.asarray(tables, dtype=np.float64)
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if tables.ndim != 2 or tables.shape[1] != NIBBLE_BLOCK:
        raise SimulationError(
            f"quickadc tables must be (m, 16), got {tables.shape}"
        )
    m = tables.shape[0]
    n = len(codes)
    if n == 0:
        raise SimulationError("cannot simulate an empty partition")
    if codes.ndim != 2 or codes.shape[1] != m:
        raise SimulationError(
            f"codes shape {codes.shape} does not match m={m} tables"
        )
    if ids is None:
        ids = np.arange(n, dtype=np.int64)

    from ...pq.adc import adc_distances  # local import: avoid cycle
    from ...scan.topk import TopKAccumulator, keep_size

    # Sample phase (host-side, mirrors QuickADCScanner._scan_packed):
    # exact ADC over the first keep% of the database (smallest ids).
    acc = TopKAccumulator(topk)
    n_sample = keep_size(keep, n, topk)
    sample_rows = np.sort(np.argsort(ids, kind="stable")[:n_sample])
    sample_mask = np.zeros(n, dtype=bool)
    sample_mask[sample_rows] = True
    sample_dists = adc_distances(tables, codes[sample_rows])
    acc.offer_many(sample_dists, ids[sample_rows])
    if n_sample >= n:
        top_ids, top_dists = acc.result()
        return KernelRun(
            name="quickadc",
            min_distance=float(top_dists[0]) if len(top_dists) else float("inf"),
            min_position=-1,
            n_vectors=max(n - n_sample, 0),
            counters=ex.counters,
            cpu=ex.cpu,
            n_pruned=0,
            topk_ids=top_ids,
            topk_distances=top_dists,
        )

    if qmax is None:
        qmax = acc.threshold
    if not np.isfinite(qmax):
        qmax = float(tables.max(axis=1).sum())  # fallback: naive bound
    quantizer = DistanceQuantizer.from_tables(tables, qmax)
    # Host-side table quantization (<1% of query time; not part of the
    # simulated scan loop, same treatment as the fast-scan kernel).
    q_tables = quantizer.quantize_table(tables)
    packed = pack_nibbles(codes)
    blocks, _ = nibble_block_layout(codes)
    n_slices = packed.shape[1]
    n_blocks = len(blocks)

    load_tables(ex, tables)
    ex.memory.add("qtabs", q_tables.view(np.uint8).reshape(-1))
    ex.memory.add("ndb", blocks.reshape(-1), streamed=True)
    # Candidate rerank reads packed codes as 64-bit words: each row
    # padded to a whole number of words.
    w64 = (n_slices + 7) // 8
    padded = np.zeros((n, w64 * 8), dtype=np.uint8)
    padded[:, :n_slices] = packed
    ex.memory.add("pcodes", padded.reshape(-1).view(np.uint64))

    # Scan-wide setup: ALL m quantized tables live in registers — the
    # whole point of 4-bit sub-quantizers (no grouping, no min-tables).
    for j in range(m):
        ex.vload_128(f"T{j}", "qtabs", j * NIBBLE_BLOCK)
    threshold = quantizer.quantize_threshold(acc.threshold, components=m)
    if threshold_override is not None:
        threshold = threshold_override
    ex.vbroadcast_i8("thr", threshold)
    ex.vbroadcast_i8("best", 127)  # running per-lane minimum bound
    if topk == 1 and acc.is_full:
        min_dist = acc.threshold
    else:
        min_dist = float(qmax)
    min_pos = -1
    ex.mov_imm("min", min_dist)
    ex.mov_imm("cand_n", 0)  # candidate-buffer cursor

    # Phase 1 — SIMD sweep: 16 lower bounds per block, candidate
    # superset collected against the static sample threshold.
    block_bytes = n_slices * NIBBLE_BLOCK
    for blk in range(n_blocks):
        base_byte = blk * block_bytes
        for s in range(n_slices):
            ex.vload_128(f"b{s}", "ndb", base_byte + s * NIBBLE_BLOCK)
        for j in range(m):
            byte, half = divmod(j, 2)
            if half == 0:
                ex.pand("idx", f"b{byte}", _NIBBLE_MASK)
            else:
                ex.psrlw("tmp", f"b{byte}", 4)
                ex.pand("idx", "tmp", _NIBBLE_MASK)
            ex.pshufb(f"l{j}", f"T{j}", "idx")
            if j == 0:
                ex.mov("lb", "l0")
            else:
                ex.paddsb("lb", "lb", f"l{j}")
        ex.pminub("best", "best", "lb")
        ex.pcmpgtb("gt", "lb", "thr")
        mask = ex.pmovmskb("mask", "gt")
        row0 = blk * NIBBLE_BLOCK
        n_valid = min(NIBBLE_BLOCK, n - row0)
        valid = (1 << n_valid) - 1
        # Sample lanes were already scanned exactly; mask them out of
        # the superset (one extra pand in the real kernel).
        for lane in range(n_valid):
            if sample_mask[row0 + lane]:
                valid &= ~(1 << lane)
        survivors = ~mask & valid
        ex.cmp_u64("mask", valid + 1)
        ex.branch(site="quick-survivors", taken=survivors != 0)
        lane_mask = survivors
        while lane_mask:
            lane_mask &= lane_mask - 1
            # Candidate append: tzcnt + clear-lowest-bit + cursor bump.
            ex.shr_u64("lane", "mask", 1)
            ex.and_u64("mask", "mask", 0xFFFF)
            ex.add_u64("cand_n", "cand_n", 1)
        # Loop bookkeeping of the block sweep.
        ex.cmp_u64("cand_n", 1 << 62)
        ex.branch(site="quick-loop", taken=True)

    # Final cutoff (host-side, identical to the scanner): the smaller
    # of the sample threshold and the topk-th smallest bound.
    bounds = nibble_lower_bounds(packed, q_tables)
    sample_cut = quantizer.quantize_threshold(acc.threshold, components=m)
    kth_bound = int(np.partition(bounds, topk - 1)[topk - 1])
    cutoff = min(sample_cut, kth_bound)
    if threshold_override is not None:
        cutoff = threshold_override
    candidates = np.flatnonzero(
        (bounds <= cutoff) & ~sample_mask
    )

    # Phase 2 — exact rerank of the candidates, ascending row order
    # (matches the scanner's flatnonzero order).
    for row in candidates:  # reprolint: loop=each candidate issues simulated rerank instructions
        for q in range(w64):
            ex.load_u64("code_w", "pcodes", int(row) * w64 + q)
        code = codes[row]
        ex.mov_imm("acc", 0.0)
        for j in range(m):
            byte, half = divmod(j, 2)
            if half == 0:
                ex.and_u64("idx", "code_w", 0x0F)
            else:
                ex.shr_u64("idx", "code_w", 4)
            ex.load_f32(
                "val",
                FLOAT32_TABLES,
                j * NIBBLE_BLOCK + int(code[j]),
                addr_reg="idx",
            )
            ex.add_f32("acc", "acc", "val")
        # The architectural distance is the float64 sum, matching the
        # scanner's adc_distances accumulation order.
        exact = float(sum(tables[j, int(code[j])] for j in range(m)))
        ex.regs["acc"] = exact
        kept = acc.offer(exact, int(ids[row]))
        ex.cmp_f32("acc", "min")
        ex.branch(site="quick-min", taken=kept)
        if kept:
            ex.mov("min", "acc")
            if exact < min_dist:
                min_dist = exact
                min_pos = int(row)

    top_ids, top_dists = acc.result()
    return KernelRun(
        name="quickadc",
        min_distance=float(top_dists[0]) if len(top_dists) else min_dist,
        min_position=min_pos,
        n_vectors=n - n_sample,
        counters=ex.counters,
        cpu=ex.cpu,
        n_pruned=n - n_sample - len(candidates),
        topk_ids=top_ids,
        topk_distances=top_dists,
    )
