"""Simulated PQ Fast Scan kernel (Section 4.5, Figure 13).

The kernel processes a prepared (grouped, compact-layout) partition in
blocks of 16 vectors:

* per group, the quantized portions of the grouped tables are loaded
  into registers S0..S(c-1) (``vload_128``, solid arrows of Figure 13);
* per 16-vector block, the compact component-sliced code bytes are
  loaded (6 × 16 bytes for c=4, m=8), nibbles are extracted with
  ``psrlw``/``pand``, looked up with ``pshufb`` and summed with seven
  saturating ``paddsb`` — producing 16 lower bounds in one register;
* ``pcmpgtb`` against the broadcast threshold plus ``pmovmskb`` yield the
  survivor mask; each survivor pays a scalar exact-distance computation
  against the L1-resident full tables.

Instruction semantics run on real bytes, so the kernel's final minimum
is validated against the numpy reference, and its pruning counts are the
real pruning behaviour of the algorithm on the given data.
"""

from __future__ import annotations

import numpy as np

from ...core.grouping import GroupedPartition
from ...core.quantization import DistanceQuantizer
from ...dtypes import FloatArray, UInt8Array
from ...exceptions import SimulationError
from ..arch import CPUModel
from ..executor import Executor
from .base import FLOAT32_TABLES, KernelRun, load_tables, make_executor

__all__ = ["fastscan_kernel", "build_block_layout"]

_BLOCK = 16
_NIBBLE_MASK = np.full(16, 0x0F, dtype=np.uint8)


def build_block_layout(
    grouped: GroupedPartition,
) -> tuple[UInt8Array, list[tuple[int, int]], UInt8Array]:
    """Compact component-sliced block layout of a grouped partition.

    Returns ``(cdb, group_blocks, full_codes)``:

    * ``cdb`` — uint8 array of shape ``(total_blocks, n_slices, 16)``;
      slice ``s`` of a block holds byte ``s`` of the compact code of its
      16 vectors (packed low-nibble bytes first, tail bytes after), so
      one 128-bit load brings one compact byte of 16 vectors.
    * ``group_blocks`` — per group, ``(first_block, n_blocks)``.
    * ``full_codes`` — the reconstructed (n, m) codes in grouped order,
      used by the exact path and for host-side verification.

    Tail blocks are padded by repeating the group's last vector; padding
    lanes are masked out of the survivor mask.
    """
    n_low = grouped.packed_low.shape[1]
    n_slices = n_low + (grouped.m - grouped.c)
    blocks = []
    group_blocks: list[tuple[int, int]] = []
    for group in grouped.groups:
        size = len(group)
        n_blocks = (size + _BLOCK - 1) // _BLOCK
        compact = np.concatenate(
            [
                grouped.packed_low[group.start : group.stop],
                grouped.tail[group.start : group.stop],
            ],
            axis=1,
        )
        padded = np.empty((n_blocks * _BLOCK, n_slices), dtype=np.uint8)
        padded[:size] = compact
        padded[size:] = compact[-1]
        # (n_blocks, 16, slices) -> (n_blocks, slices, 16)
        sliced = padded.reshape(n_blocks, _BLOCK, n_slices).transpose(0, 2, 1)
        group_blocks.append((len(blocks), n_blocks))
        blocks.extend(np.ascontiguousarray(sliced))
    if blocks:
        cdb = np.stack(blocks)
    else:
        cdb = np.empty((0, n_slices, _BLOCK), dtype=np.uint8)
    return cdb, group_blocks, grouped.reconstruct_all()


def fastscan_kernel(
    cpu: CPUModel | str | Executor,
    tables_remapped: FloatArray,
    grouped: GroupedPartition,
    *,
    qmax: float | None = None,
    topk: int = 1,
    keep: float = 0.0,
    threshold_override: int | None = None,
) -> KernelRun:
    """Execute PQ Fast Scan over a prepared partition on the simulated CPU.

    Args:
        cpu: CPU model or platform name.
        tables_remapped: (m, 256) distance tables in the partition's
            (remapped) index space.
        grouped: the prepared partition (see
            :meth:`repro.core.PQFastScanner.prepare`).
        qmax: explicit quantization upper bound; if None it is derived
            from the keep phase, exactly as in the paper's pipeline.
        topk: number of nearest neighbors maintained; the pruning
            threshold is the distance to the current topk-th one.
        keep: fraction of the partition scanned with plain PQ Scan to
            seed the neighbor set and bound ``qmax``. The keep rows are
            computed host-side (<=1% of the scan in the paper's setting)
            and excluded from the per-vector counter normalization.
        threshold_override: calibration hook — pin the int8 pruning
            threshold for the whole run (-1 prunes everything, 127
            prunes nothing) so unit costs of the lower-bound and
            exact-distance paths can be measured in isolation. Results
            are NOT the exact topk when this is set.
    """
    ex = make_executor(cpu)
    tables = np.asarray(tables_remapped, dtype=np.float64)
    m, c = grouped.m, grouped.c
    n = len(grouped)
    if n == 0:
        raise SimulationError("cannot simulate an empty partition")

    from ...pq.adc import adc_distances  # local import: avoid cycle
    from ...scan.topk import TopKAccumulator, keep_size

    acc_topk = TopKAccumulator(topk)
    n_keep = 0
    keep_mask = np.zeros(n, dtype=bool)
    if keep > 0.0 or qmax is None:
        # First keep% of the *database* (smallest ids): representative
        # sample, uncorrelated with grouping (see PQFastScanner).
        n_keep = keep_size(keep, n, topk)
        keep_rows = np.sort(np.argsort(grouped.ids, kind="stable")[:n_keep])
        keep_mask[keep_rows] = True
        keep_codes = grouped.reconstruct_all()[keep_rows]
        keep_dists = adc_distances(tables, keep_codes)
        acc_topk.offer_many(keep_dists, grouped.ids[keep_rows])
    if qmax is None:
        qmax = acc_topk.threshold
    if not np.isfinite(qmax):
        qmax = float(tables.max(axis=1).sum())  # fallback: naive bound

    quantizer = DistanceQuantizer.from_tables(tables, qmax)
    # Host-side table preparation (<1% of query time in the paper; not
    # part of the simulated scan loop).
    q_tables = quantizer.quantize_table(tables[:c]) if c else np.empty((0, 256), np.int8)
    from ...core.minimum_tables import minimum_tables  # local import: avoid cycle

    if m > c:
        mins = minimum_tables(tables, np.arange(c, m))
        q_min = quantizer.quantize_table(mins)
    else:
        q_min = np.empty((0, 16), dtype=np.int8)
    cdb, group_blocks, full_codes = build_block_layout(grouped)

    load_tables(ex, tables)
    ex.memory.add("qportions", q_tables.view(np.uint8).reshape(-1))
    if len(q_min):
        ex.memory.add("minitabs", q_min.view(np.uint8).reshape(-1))
    ex.memory.add("cdb", cdb.reshape(-1) if cdb.size else np.zeros(1, np.uint8),
                  streamed=True)

    n_low = grouped.packed_low.shape[1]
    n_slices = n_low + (m - c)

    # Scan-wide setup: minimum tables and threshold live in registers.
    for t in range(m - c):
        ex.vload_128(f"M{t}", "minitabs", t * 16)
    if topk == 1 and acc_topk.is_full:
        min_dist = acc_topk.threshold
        min_pos = -1
    else:
        min_dist = float(qmax)
        min_pos = -1
    threshold = quantizer.quantize_threshold(
        acc_topk.threshold if acc_topk.is_full else min_dist, components=m
    )
    if threshold_override is not None:
        threshold = threshold_override
    ex.vbroadcast_i8("thr", threshold)
    ex.mov_imm("min", min_dist)
    ex.mov_imm("lb_scratch", 0)  # scratch for survivor index extraction

    n_pruned = 0
    block_bytes = n_slices * _BLOCK
    for group, (first_block, n_blocks) in zip(grouped.groups, group_blocks):
        # Load the group's quantized portions into S0..S(c-1).
        for j in range(c):
            offset = j * 256 + group.key[j] * 16
            ex.vload_128(f"S{j}", "qportions", offset)
        for blk in range(n_blocks):
            base_byte = (first_block + blk) * block_bytes
            for s in range(n_slices):
                ex.vload_128(f"b{s}", "cdb", base_byte + s * 16)
            # Grouped components: low nibbles of the packed bytes.
            lookups = []
            for j in range(c):
                byte, half = divmod(j, 2)
                if half == 0:
                    ex.pand("idx", f"b{byte}", _NIBBLE_MASK)
                else:
                    ex.psrlw("tmp", f"b{byte}", 4)
                    ex.pand("idx", "tmp", _NIBBLE_MASK)
                ex.pshufb(f"l{j}", f"S{j}", "idx")
                lookups.append(f"l{j}")
            # Non-grouped components: high nibbles of the tail bytes.
            for t in range(m - c):
                ex.psrlw("tmp", f"b{n_low + t}", 4)
                ex.pand("idx", "tmp", _NIBBLE_MASK)
                ex.pshufb(f"l{c + t}", f"M{t}", "idx")
                lookups.append(f"l{c + t}")
            # Saturating sum of the 8 lookups -> 16 lower bounds.
            ex.mov("lb", lookups[0])
            for name in lookups[1:]:
                ex.paddsb("lb", "lb", name)
            # Prune: lanes whose lower bound exceeds the threshold.
            ex.pcmpgtb("gt", "lb", "thr")
            mask = ex.pmovmskb("mask", "gt")
            row0 = group.start + blk * _BLOCK
            n_valid = min(_BLOCK, group.stop - row0)
            valid = (1 << n_valid) - 1
            # Lanes the keep phase already scanned are masked out of the
            # survivor set (one extra pand in the real kernel) so their
            # candidates are not offered twice.
            for lane in range(n_valid):
                if keep_mask[row0 + lane]:
                    valid &= ~(1 << lane)
            if valid == 0:
                continue
            survivors = ~mask & valid
            n_pruned += bin(valid).count("1") - bin(survivors).count("1")
            ex.cmp_u64("mask", valid + 1)
            ex.branch(site="fast-survivors", taken=survivors != 0)
            ex.add_u64("lb_scratch", "lb_scratch", 1)
            ex.cmp_u64("lb_scratch", 1 << 62)
            ex.branch(site="fast-loop", taken=True)
            lane_mask = survivors
            while lane_mask:
                lane = (lane_mask & -lane_mask).bit_length() - 1
                lane_mask &= lane_mask - 1
                row = row0 + lane
                code = full_codes[row]
                # Exact pqdistance of a survivor. Index reconstruction
                # is register arithmetic (grouped components: portion
                # base | low nibble; tail: byte extract), charged as one
                # ALU op per component; the table reads hit the
                # L1-resident full tables. The architectural distance is
                # the float64 sum, matching the C++ double accumulator.
                ex.mov_imm("acc", 0.0)
                for j in range(m):
                    if j < c:
                        ex.and_u64("idx", "lb_scratch", 0x0F)
                    else:
                        ex.shr_u64("idx", "lb_scratch", 4)
                    ex.load_f32(
                        "val", FLOAT32_TABLES, j * 256 + int(code[j]), addr_reg="idx"
                    )
                    ex.add_f32("acc", "acc", "val")
                exact = float(sum(tables[j, int(code[j])] for j in range(m)))
                ex.regs["acc"] = exact
                kept = acc_topk.offer(exact, int(grouped.ids[row]))
                ex.cmp_f32("acc", "min")
                ex.branch(site="fast-min", taken=kept)
                if kept:
                    # Neighbor-set insert (binary-heap update in the C++
                    # implementation): a handful of scalar ops.
                    ex.mov("min", "acc")
                    ex.add_u64("lb_scratch", "lb_scratch", 1)
                    if exact < min_dist:
                        min_dist = exact
                        min_pos = row
                    if threshold_override is None:
                        new_threshold = quantizer.quantize_threshold(
                            acc_topk.threshold, components=m
                        )
                        if new_threshold != threshold:
                            threshold = new_threshold
                            ex.vbroadcast_i8("thr", threshold)
    ids, dists = acc_topk.result()
    return KernelRun(
        name="fastscan",
        min_distance=float(dists[0]) if len(dists) else min_dist,
        min_position=min_pos,
        n_vectors=n - n_keep,
        counters=ex.counters,
        cpu=ex.cpu,
        n_pruned=n_pruned,
        topk_ids=ids,
        topk_distances=dists,
    )
