"""Drive all four workloads end to end at the ``--smoke`` size.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root (not on tier-1's ``testpaths``: it spawns eight benchmark
processes). Smoke sizes only prove the plumbing; they are never used
for committed numbers.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import SPECS, SpanRecorder, load_contract
from perfbench.compare import compare

ROOT = Path(__file__).resolve().parents[2]
# The benchmark must find ``repro`` by itself, as it does for the driver.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def perfbench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("perfbench") / "run.json"
    done = perfbench("all", "--smoke", "--seconds", "1", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out


def test_every_declared_metric_and_no_other(smoke_run: Path) -> None:
    contract = load_contract()
    run = json.loads(smoke_run.read_text())
    assert set(run["workloads"]) == set(SPECS) == {w["name"] for w in contract["workloads"]}
    assert {"nproc", "cpu_affinity", "python", "numpy"} <= set(run["env"])
    for name, entry in run["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1, name
        assert entry["dataset"] and entry["samples"], name
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in contract[key]}
            emitted = {m: v["unit"] for m, v in entry[key].items()}
            assert emitted == declared, (name, key)
        assert all(v["value"] != 0 for v in entry["end_to_end"].values()), name


def test_each_workload_reaches_its_own_layers(smoke_run: Path) -> None:
    layers = {
        name: entry["per_layer"]
        for name, entry in json.loads(smoke_run.read_text())["workloads"].items()
    }
    assert layers["scan-fastpq"]["scan.pruned_share"]["value"] > 0
    assert layers["scan-fastpq"]["parallel.ipc_overhead_ms"]["value"] == 0
    assert layers["probe-sharded"]["parallel.result_pickle_bytes"]["value"] > 0
    assert layers["probe-sharded"]["shard.latency_ms.max"]["value"] > 0
    assert layers["probe-sharded"]["serve.flushes"]["value"] == 0
    assert layers["serve-mixed"]["serve.flushes"]["value"] > 0
    assert layers["serve-mixed"]["delta.rows_folded"]["value"] > 0


def test_compare_with_itself_is_clean(smoke_run: Path, capsys) -> None:
    assert compare(smoke_run, smoke_run) == 0
    assert "regressed" not in capsys.readouterr().out


def test_compare_flags_a_regression_and_a_failure(smoke_run: Path, tmp_path: Path) -> None:
    run = json.loads(smoke_run.read_text())
    slower = copy.deepcopy(run)
    slower["workloads"]["scan-fastpq"]["end_to_end"]["qps"]["value"] *= 0.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    assert compare(smoke_run, tmp_path / "slower.json") == 1
    failing = copy.deepcopy(run)
    failing["workloads"]["serve-mixed"]["failed"] = 1
    (tmp_path / "failing.json").write_text(json.dumps(failing))
    assert compare(smoke_run, tmp_path / "failing.json") == 1
    # What B lacks is a regression too: a metric, a crashed run's whole
    # metric set, a workload, or any operation attempted at all.
    for name, spoil in {
        "metric": lambda w: w["scan-fastpq"]["end_to_end"].pop("qps"),
        "crashed": lambda w: w["probe-sharded"].pop("end_to_end"),
        "workload": lambda w: w.pop("scan-quickadc"),
        "idle": lambda w: w["serve-mixed"].update(attempted=0, failed=0),
    }.items():
        lacking = copy.deepcopy(run)
        spoil(lacking["workloads"])
        (tmp_path / f"{name}.json").write_text(json.dumps(lacking))
        assert compare(smoke_run, tmp_path / f"{name}.json") == 1, name


@pytest.mark.parametrize("workload", ["scan-quickadc", "serve-mixed"])
def test_a_corrupted_answer_fails_the_run(workload: str) -> None:
    done = perfbench("run", "--workload", workload, "--smoke", "--seconds", "1", "--corrupt")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_self_time_is_span_minus_children() -> None:
    rec = SpanRecorder()
    outer = rec.add("outer", 0.0, 10.0, batch=7)
    rec.add("inner", 1.0, 4.0, parent=outer, batch=7)
    rec.add("inner", 5.0, 6.0, parent=outer, batch=7)
    assert rec.durations("outer", self_time=True) == [6.0]
    assert rec.per_batch("inner") == [4.0]
    with rec.span("a", batch=1) as a:
        with rec.span("b") as b:
            pass
    assert rec.spans[b]["parent"] == a and rec.spans[b]["batch"] == 1
