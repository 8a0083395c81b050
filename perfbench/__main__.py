"""Command line of the benchmark.

``python3 -m perfbench run --workload W --seed N --seconds S --trace 0|1``
    one workload, one mode; the contract entry point named in
    ``BENCHMARK.json``. Prints every metric by name with its unit and,
    as the last line of standard output, the result object.
``python3 -m perfbench all --seed N``
    every workload, untraced then traced, each in its own process (so
    ``peak_rss_mb`` is per workload), merged into one JSON file.
``python3 -m perfbench compare A.json B.json``
    B against A within the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from .compare import compare
from .common import (
    OUT_DIR, ROOT, SPECS, SpanRecorder, environment, load_contract, median, smoke_spec,
)


def _run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}: nothing to measure")
    from . import batch, serve

    contract = load_contract()
    spec = SPECS[args.workload]
    if args.smoke:
        spec = smoke_spec(spec)
    declared = {
        m["name"]: m["unit"]
        for m in contract["per_layer" if args.trace else "end_to_end"]
    }

    # Everything the run writes stays under perfbench/out: the saved
    # artifacts, and whatever repro puts in the default temp directory.
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT_DIR))
    tempfile.tempdir = str(workdir)
    rec = SpanRecorder() if args.trace else None
    runner = serve.run if spec.name == "serve-mixed" else batch.run
    try:
        outcome = runner(
            spec, args.seed, args.seconds, bool(args.trace), workdir,
            smoke=args.smoke, corrupt=args.corrupt, rec=rec,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if rec is not None:
        rec.write(OUT_DIR / f"trace-{spec.name}.json")

    if set(outcome.values) != set(declared):
        missing = sorted(set(declared) - set(outcome.values))
        extra = sorted(set(outcome.values) - set(declared))
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
        )
    metrics = {
        name: {"value": float(outcome.values[name]), "unit": unit}
        for name, unit in declared.items()
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    for note in outcome.notes:
        print(f"perfbench: {spec.name}: {note}", file=sys.stderr)
    if args.out:
        record = {
            "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "env": environment(),
            "dataset": outcome.dataset, "samples": outcome.samples,
            "notes": outcome.notes, **result,
        }
        if outcome.speed is not None:
            record.update(_speed_record(outcome))
        Path(args.out).write_text(json.dumps(record, indent=1))
    for name, m in metrics.items():
        raw = f"   (as the clock read it: {outcome.raw[name]:.6f})" if name in outcome.raw else ""
        print(f"{spec.name:14} {name:32} {m['value']:16.6f} {m['unit']}{raw}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _speed_record(outcome) -> dict:
    """What turns an untraced run's rescaled times back into wall-clock:
    the raw value of each, the kernel time they are expressed at, the
    run's own median kernel time (a new baseline's reference) and the
    factor at every sample, in the order taken."""
    speed = outcome.speed
    return {
        "raw": outcome.raw,
        "reference_s": speed.reference_s(),
        "calibration_s": median(speed.kernel_s),
        "speed_scale": [round(float(x), 4) for x in speed.scales(speed.kernel_s)],
    }


def _all(args: argparse.Namespace) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    merged = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
              "env": environment(), "workloads": {}}
    status = 0
    for name in SPECS:
        entry = {"attempted": 0, "failed": 0, "samples": {}, "notes": []}
        for trace, metrics in ((0, "end_to_end"), (1, "per_layer")):
            part = OUT_DIR / f"run-{name}-trace{trace}.json"
            command = [
                sys.executable, "-m", "perfbench", "run", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(part),
            ] + (["--smoke"] if args.smoke else [])
            code = subprocess.run(command, cwd=ROOT).returncode
            status = status or code
            if not part.exists():
                continue
            run = json.loads(part.read_text())
            part.unlink()
            entry[metrics] = run["metrics"]
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            entry["samples"].update(run["samples"])
            entry["notes"] += run["notes"]
            entry["dataset"] = run["dataset"]
            for key in ("raw", "reference_s", "calibration_s", "speed_scale"):
                if key in run:
                    entry[key] = run[key]
        entry["correct"] = entry["failed"] == 0 and "per_layer" in entry
        merged["workloads"][name] = entry
    out = Path(args.out) if args.out else OUT_DIR / f"run-seed{args.seed}.json"
    out.write_text(json.dumps(merged, indent=1))
    print(f"perfbench: wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="one workload, one mode")
    run.add_argument("--workload", required=True, choices=sorted(SPECS))
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=load_contract()["run_seconds"])
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes that only drive the code; never for committed numbers")
    run.add_argument("--corrupt", action="store_true",
                     help="test hook: spoil one answer before the oracle sees it")
    run.add_argument("--out", help="also write the full run record here")
    run.set_defaults(handler=_run)

    every = commands.add_parser("all", help="every workload, both modes")
    every.add_argument("--seed", type=int, default=11)
    every.add_argument("--seconds", type=float, default=load_contract()["run_seconds"])
    every.add_argument("--smoke", action="store_true")
    every.add_argument("--out")
    every.set_defaults(handler=_all)

    cmp_ = commands.add_parser("compare", help="B against A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(handler=lambda a: compare(a.a, a.b))

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
