"""Tests for the SIMD instruction-stream verifier (repro.simd.verify).

Every verifier check gets a seeded-defect test: a clean captured stream
is mutated (or a synthetic stream constructed) so exactly that defect is
present, and the abstract interpreter must report it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.simd.arch import get_platform
from repro.simd.verify import (
    KERNEL_NAMES,
    Instruction,
    InstructionStream,
    MemAccess,
    TracingExecutor,
    capture,
    verify_kernel,
    verify_stream,
)

REPO = Path(__file__).resolve().parents[1]


def synthetic(*instructions: Instruction, buffers: dict | None = None) -> InstructionStream:
    return InstructionStream(
        kernel="synthetic",
        platform="haswell",
        instructions=tuple(instructions),
        buffers=buffers or {},
    )


class TestCleanKernels:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_registered_kernel_verifies_clean(self, name):
        stream, errors = verify_kernel(name)
        assert errors == [], "\n".join(e.format() for e in errors)
        assert len(stream) > 0
        assert stream.kernel == name

    def test_capture_is_deterministic(self):
        assert capture("fastscan") == capture("fastscan")

    def test_unknown_kernel_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            capture("nope")


class TestSeededDefects:
    @pytest.fixture(scope="class")
    def fastscan_stream(self):
        return capture("fastscan")

    def test_paddb_rejected_as_non_saturating(self, fastscan_stream):
        stream = fastscan_stream
        index = next(
            i for i, ins in enumerate(stream.instructions) if ins.method == "paddsb"
        )
        bad = stream.replaced(index, op="paddb", method="paddb")
        errors = verify_stream(bad)
        assert any("saturat" in e.message for e in errors)
        assert any(e.index == index for e in errors)

    def test_pshufb_on_float_source_rejected(self):
        stream = synthetic(
            Instruction("mov", "vzero_f32x8", "acc", ()),
            Instruction("mov", "vset_128", "tbl", ()),
            Instruction("pshufb", "pshufb", "out", ("tbl", "acc")),
        )
        errors = verify_stream(stream)
        assert len(errors) == 1
        assert "pshufb" in errors[0].message and "f32x8" in errors[0].message

    def test_width_mismatch_rejected(self):
        # vaddps on a 16x8-bit register: lane layout mismatch.
        stream = synthetic(
            Instruction("mov", "vset_128", "bytes", ()),
            Instruction("mov", "vzero_f32x8", "acc", ()),
            Instruction("vaddps", "vaddps", "acc", ("acc", "bytes")),
        )
        errors = verify_stream(stream)
        assert len(errors) == 1
        assert "u8x16" in errors[0].message and "f32x8" in errors[0].message

    def test_undefined_register_read_rejected(self):
        stream = synthetic(
            Instruction("paddsb", "paddsb", "lb", ("ghost", "ghost")),
        )
        errors = verify_stream(stream)
        assert errors and all(
            "before any instruction wrote it" in e.message for e in errors
        )

    def test_out_of_bounds_load_rejected(self):
        stream = synthetic(
            Instruction(
                "vload_128", "vload_128", "v", (),
                access=MemAccess("cdb", 56, 16),
            ),
            buffers={"cdb": 64},
        )
        errors = verify_stream(stream)
        assert len(errors) == 1
        assert "out-of-bounds" in errors[0].message

    def test_unregistered_buffer_rejected(self):
        stream = synthetic(
            Instruction(
                "load_f32", "load_f32", "val", (),
                access=MemAccess("ghost", 0, 4),
            ),
        )
        errors = verify_stream(stream)
        assert len(errors) == 1
        assert "unregistered buffer" in errors[0].message

    def test_load_without_recorded_access_rejected(self):
        stream = synthetic(
            Instruction("load_u8", "load_u8", "idx", ()),
        )
        errors = verify_stream(stream)
        assert len(errors) == 1
        assert "no memory access" in errors[0].message

    def test_unknown_method_rejected(self):
        stream = synthetic(
            Instruction("mov_imm", "frobnicate", "x", ()),
        )
        errors = verify_stream(stream)
        assert len(errors) == 1
        assert "unknown instruction method" in errors[0].message

    def test_missing_cost_entry_rejected(self, fastscan_stream):
        crippled = get_platform("haswell")
        del crippled.costs["pshufb"]
        errors = verify_stream(fastscan_stream, platforms=[crippled])
        assert errors
        assert all(e.op == "pshufb" for e in errors)
        assert "no cost-table entry" in errors[0].message

    def test_mutated_bounds_in_real_stream_rejected(self, fastscan_stream):
        stream = fastscan_stream
        index, ins = next(
            (i, ins)
            for i, ins in enumerate(stream.instructions)
            if ins.method == "vload_128" and ins.access is not None
        )
        size = stream.buffers[ins.access.buffer]
        bad = stream.replaced(
            index, access=MemAccess(ins.access.buffer, size - 8, 16)
        )
        errors = verify_stream(bad)
        assert any("out-of-bounds" in e.message for e in errors)

    def test_wrong_width_pshufb_in_quickadc_rejected(self):
        """Seeded defect in the 4-bit kernel: a pshufb whose index
        operand is the u16x8 psrlw result (the nibble shift *before*
        the re-masking pand) must be flagged as a width mismatch."""
        stream = capture("quickadc")
        shift = next(
            i
            for i, ins in enumerate(stream.instructions)
            if ins.method == "psrlw"
        )
        shifted_reg = stream.instructions[shift].dest
        index, ins = next(
            (i, ins)
            for i, ins in enumerate(stream.instructions[shift:], start=shift)
            if ins.method == "pshufb"
        )
        bad = stream.replaced(index, srcs=(ins.srcs[0], shifted_reg))
        errors = verify_stream(bad)
        assert any(e.index == index for e in errors)
        assert any(
            "u16x8" in e.message and "needs u8x16" in e.message
            for e in errors
        )
        # The unmutated capture stays clean.
        assert verify_stream(stream) == []


class TestTracingExecutor:
    def test_trace_does_not_change_results(self):
        from repro.simd import simulate_pq_scan

        tables = np.arange(8 * 256, dtype=np.float32).reshape(8, 256) % 11
        codes = (np.arange(32 * 8, dtype=np.int64) * 17 % 256).astype(
            np.uint8
        ).reshape(32, 8)
        plain = simulate_pq_scan("naive", "haswell", tables, codes)
        traced_ex = TracingExecutor(get_platform("haswell"))
        from repro.simd import naive_kernel

        traced = naive_kernel(traced_ex, tables, codes)
        assert traced.min_distance == plain.min_distance
        assert traced.min_position == plain.min_position
        assert traced.counters.cycles == plain.counters.cycles
        assert len(traced_ex.trace) == plain.counters.instructions

    def test_loads_carry_access_records(self):
        stream = capture("libpq")
        loads = [ins for ins in stream.instructions if ins.method == "load_u64"]
        assert loads and all(
            ins.access is not None and ins.access.nbytes == 8 for ins in loads
        )


class TestCLI:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro.simd.verify", *args],
            cwd=REPO,
            capture_output=True,
            text=True,
            env=env,
        )

    def test_all_kernels_exits_zero(self):
        proc = self.run_cli("--all-kernels")
        assert proc.returncode == 0, proc.stderr
        for name in KERNEL_NAMES:
            assert name in proc.stderr

    def test_json_report(self):
        proc = self.run_cli("--kernel", "libpq", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload[0]["kernel"] == "libpq"
        assert payload[0]["errors"] == []
        assert payload[0]["instructions"] > 0

    def test_list_kernels(self):
        proc = self.run_cli("--list")
        assert proc.returncode == 0
        assert set(proc.stdout.split()) == set(KERNEL_NAMES)

    def test_unknown_kernel_exits_two(self):
        proc = self.run_cli("--kernel", "nope")
        assert proc.returncode == 2

    def test_no_kernels_exits_two(self):
        proc = self.run_cli()
        assert proc.returncode == 2
