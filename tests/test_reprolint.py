"""Tests for the reprolint AST invariant checker (tools/reprolint)."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.reprolint.engine import Pragmas, check_file, run as run_lint
from tools.reprolint.inference import ModuleInference, is_8bit, is_wide
from tools.reprolint.rules import default_rules

FIXTURES = REPO / "tests" / "reprolint_fixtures"

BAD_FIXTURES = {
    "r1_bad_wrapping_add.py": "R1",
    "r2_bad_unjustified_cast.py": "R2",
    "r2_bad_invalid_justification.py": "R2",
    "r3_bad_assert.py": "R3",
    "r4_bad_vector_loop.py": "R4",
    "r5_bad_bare_ndarray.py": "R5",
    "r5_bad_alias_conflict.py": "R5",
    "r6_bad_unlocked_state.py": "R6",
    "r7_bad_blocking_under_lock.py": "R7",
    "r7_bad_lock_order_cycle.py": "R7",
    "r8_bad_unpicklable_submit.py": "R8",
    "r8_bad_unpicklable_send.py": "R8",
    "r9_bad_result_no_timeout.py": "R9",
    "r9_bad_wait_no_timeout.py": "R9",
}

OK_FIXTURES = [
    "r1_ok_saturating.py",
    "r2_ok_sanctioned.py",
    "r3_ok_exceptions.py",
    "r4_ok_justified.py",
    "r5_ok_aliases.py",
    "r6_ok_locked_state.py",
    "r7_ok_lock_discipline.py",
    "r8_ok_sanctioned_submit.py",
    "r8_ok_sanctioned_send.py",
    "r9_ok_result_timeout.py",
    "r9_ok_wait_timeout.py",
]


def lint_fixture(name: str):
    return check_file(FIXTURES / name, default_rules(), force_all=True)


class TestFixtures:
    @pytest.mark.parametrize("name,rule", sorted(BAD_FIXTURES.items()))
    def test_bad_fixture_is_flagged(self, name, rule):
        violations = lint_fixture(name)
        assert violations, f"{name} produced no violations"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("name", OK_FIXTURES)
    def test_ok_fixture_is_clean(self, name):
        assert lint_fixture(name) == []

    def test_every_rule_has_both_fixture_kinds(self):
        rules = {rule.id for rule in default_rules()}
        assert set(BAD_FIXTURES.values()) == rules
        assert {name[:2].upper() for name in OK_FIXTURES} == rules


class TestShippedTree:
    def test_src_is_clean(self):
        violations = run_lint([REPO / "src"], base=REPO)
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_rules_cover_expected_ids(self):
        assert [rule.id for rule in default_rules()] == [
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
        ]

    def test_r8_names_the_payload_the_workers_take(self):
        """The sanctioned set and the advice R8 prints follow
        ``repro.parallel.worker``: one ``WorkerBundle`` per submit."""
        from repro.parallel import worker
        from tools.reprolint.concurrency import SANCTIONED_PICKLABLE

        assert worker.__all__ == ["WorkerBundle"]
        assert set(worker.__all__) <= SANCTIONED_PICKLABLE
        (violation,) = lint_fixture("r8_bad_unpicklable_submit.py")
        assert "WorkerBundle" in violation.message


    def test_r8_and_r9_see_the_worker_pipes(self, tmp_path):
        """The process executor's own send and wait are where R8 and R9
        look: spoil each in a copy and each rule fires there."""
        source = (REPO / "src/repro/parallel/executor.py").read_text()
        sent = "(self.seqs[i], self.payloads[i], self.sanitize)"
        waited = "wait(list(scan.waiting), GATHER_TIMEOUT_S)"
        assert sent in source and waited in source
        spoiled = tmp_path / "executor.py"
        spoiled.write_text(
            source.replace(sent, "(self.seqs[i], np.memmap('codes'), False)")
            .replace(waited, "wait(list(scan.waiting))")
        )
        violations = check_file(spoiled, default_rules(), force_all=True)
        assert sorted(v.rule for v in violations) == ["R8", "R9"]


class TestCLI:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=REPO,
            capture_output=True,
            text=True,
        )

    def test_clean_tree_exits_zero(self):
        proc = self.run_cli("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_bad_fixture_exits_one(self):
        proc = self.run_cli(
            "--all-rules", str(FIXTURES / "r1_bad_wrapping_add.py")
        )
        assert proc.returncode == 1
        assert "R1" in proc.stdout

    def test_unknown_rule_exits_two(self):
        proc = self.run_cli("--rules", "R99", "src")
        assert proc.returncode == 2

    def test_missing_path_exits_two(self):
        proc = self.run_cli("no/such/dir")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
        ):
            assert rule_id in proc.stdout

    def test_summary_counts_files(self):
        proc = self.run_cli("src")
        assert proc.returncode == 0
        assert "file(s) checked" in proc.stderr

    def test_empty_path_reports_zero_files(self, tmp_path):
        proc = self.run_cli(str(tmp_path))
        assert proc.returncode == 0
        assert "0 file(s) checked" in proc.stderr

    def test_strict_empty_exits_two(self, tmp_path):
        proc = self.run_cli("--strict-empty", str(tmp_path))
        assert proc.returncode == 2
        assert "no Python files" in proc.stderr

    def test_strict_empty_passes_with_files(self):
        proc = self.run_cli("--strict-empty", "src")
        assert proc.returncode == 0

    def test_json_format(self):
        proc = self.run_cli(
            "--all-rules", "--format", "json",
            str(FIXTURES / "r3_bad_assert.py"),
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert {item["rule"] for item in payload} == {"R3"}
        assert all("line" in item and "message" in item for item in payload)

    def test_rule_selection_filters(self):
        # The R3 fixture is clean under every other rule.
        proc = self.run_cli(
            "--all-rules", "--rules", "R1,R2,R4,R5",
            str(FIXTURES / "r3_bad_assert.py"),
        )
        assert proc.returncode == 0


class TestPragmas:
    def test_key_value_parsing(self):
        pragmas = Pragmas("x = 1  # reprolint: narrowing=exact, disable=R1\n")
        node = ast.parse("x = 1").body[0]
        assert pragmas.get(node, "narrowing") == "exact"
        assert pragmas.disabled(node, "R1")
        assert not pragmas.disabled(node, "R2")

    def test_multiline_statement_span(self):
        source = "y = (\n    a +\n    b  # reprolint: disable=R1\n)\n"
        pragmas = Pragmas(source)
        stmt = ast.parse(source).body[0]
        assert pragmas.disabled(stmt, "R1")

    def test_absent_pragma(self):
        pragmas = Pragmas("x = 1\n")
        node = ast.parse("x = 1").body[0]
        assert pragmas.get(node, "narrowing") is None


class TestInference:
    def infer_last(self, source: str):
        tree = ast.parse(source)
        inference = ModuleInference(tree)
        last = tree.body[-1]
        assert isinstance(last, ast.Assign)
        return inference.dtype_of(last.value)

    def test_constructor_dtype(self):
        assert (
            self.infer_last("import numpy as np\nx = np.zeros(4, dtype=np.int8)")
            == "int8"
        )

    def test_astype_tracks_target(self):
        source = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.float64)\n"
            "b = a.astype(np.int16)\n"
            "c = b + b\n"
        )
        assert self.infer_last(source) == "int16"

    def test_python_int_does_not_rescue_int8(self):
        # NumPy weak promotion: int8 + python int stays int8.
        source = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int8)\n"
            "b = a + 1\n"
        )
        assert self.infer_last(source) == "int8"

    def test_unknown_is_none(self):
        assert self.infer_last("x = mystery()") is None

    def test_width_predicates(self):
        assert is_8bit("int8") and is_8bit("uint8")
        assert not is_8bit("int16") and not is_8bit(None)
        assert is_wide("int16") and is_wide("float64")
        assert not is_wide("uint8") and not is_wide(None)
