"""CLI: produce or verify an observability snapshot.

Two subcommands:

``run``
    Build a small synthetic workload with :class:`~repro.Engine`, run
    one batch through it with observability enabled, and write the
    JSON + Prometheus snapshots::

        PYTHONPATH=src python -m repro.obs.snapshot run \\
            --scale 8000 --n-queries 32 --scanner fastpq \\
            --json results/obs_snapshot.json --prom results/obs_snapshot.prom

``check``
    Parse an existing Prometheus snapshot and assert that required
    sample families are present — the CI smoke gate::

        PYTHONPATH=src python -m repro.obs.snapshot check \\
            results/obs_snapshot.prom --require repro_pruning_rate
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..exceptions import ConfigurationError, DatasetError
from . import Observability, observability_session, parse_prometheus, write_snapshots

__all__ = ["main", "run_snapshot", "check_snapshot"]

#: Families the ``run`` subcommand always verifies in its own output:
#: what every scanner kind yields on every executor. The prepared-cache
#: families depend on the kind (only fastpq and quickadc prepare a
#: layout) and are asked for with ``check --require``.
CORE_FAMILIES = (
    "repro_stage_latency_seconds",
    "repro_worker_scan_speed_vps",
    "repro_pruning_rate",
)


def run_snapshot(
    *,
    scale: int = 8000,
    n_queries: int = 32,
    topk: int = 50,
    nprobe: int = 4,
    scanner_name: str = "fastpq",
    seed: int = 11,
) -> tuple[Observability, dict[str, object]]:
    """Run one instrumented batch; returns (observability, summary).

    The workload is its own: ``100M / scale`` synthetic SIFT-like rows
    in eight partitions, built by :meth:`Engine.build <repro.Engine.build>`
    on the thread executor with one worker, then one batch of
    ``n_queries`` through :meth:`~repro.Engine.search`.
    """
    # Imported here so `check` stays dependency-light and fast.
    from ..data.dataset import VectorDataset
    from ..engine import Engine, EngineConfig

    dataset = VectorDataset.synthetic(
        1000, 100_000_000 // scale, n_queries, seed=seed
    )
    config = EngineConfig(
        n_partitions=8, nprobe=nprobe, scanner=scanner_name, keep=0.005,
        max_iter=8, coarse_max_iter=8, seed=seed, executor="thread",
    )
    with Engine.build(dataset.base, config) as engine:
        with observability_session() as obs:
            results = engine.search(dataset.queries, k=topk)
    batch = results if isinstance(results, list) else [results]
    summary: dict[str, object] = {
        "workload": (
            f"synthetic (scale 1/{scale}): {len(engine)} vectors, "
            f"{config.n_partitions} partitions, {len(batch)} queries"
        ),
        "scanner": scanner_name,
        "n_queries": len(batch),
        "topk": topk,
        "nprobe": nprobe,
        "stage_latency": obs.tracer.stage_summary(),
    }
    return obs, summary


def check_snapshot(path: str | Path, required: Sequence[str]) -> list[str]:
    """Parse ``path``; return the required families that are missing."""
    text = Path(path).read_text()
    samples = parse_prometheus(text)
    missing = []
    for family in required:
        prefixes = (family, family + "{", family + "_bucket", family + "_count")
        if not any(key.startswith(prefixes) for key in samples):
            missing.append(family)
    return missing


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Observability snapshot producer / checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one instrumented batch")
    run_p.add_argument("--scale", type=int, default=8000,
                       help="base rows are 100M divided by this")
    run_p.add_argument("--n-queries", type=int, default=32)
    run_p.add_argument("--topk", type=int, default=50)
    run_p.add_argument("--nprobe", type=int, default=4)
    run_p.add_argument("--scanner", default="fastpq",
                       help="any repro.engine.SCANNER_KINDS entry that "
                            "scans the workload's 8-bit codes")
    run_p.add_argument("--seed", type=int, default=11)
    run_p.add_argument("--json", type=Path,
                       default=Path("results/obs_snapshot.json"))
    run_p.add_argument("--prom", type=Path,
                       default=Path("results/obs_snapshot.prom"))

    check_p = sub.add_parser("check", help="verify an existing .prom file")
    check_p.add_argument("path", type=Path)
    check_p.add_argument("--require", nargs="+", default=list(CORE_FAMILIES),
                         help="sample families that must be present")

    args = parser.parse_args(argv)

    if args.command == "check":
        try:
            missing = check_snapshot(args.path, args.require)
        except (OSError, DatasetError) as exc:
            print(f"FAIL: {exc}")
            return 1
        if missing:
            print(f"FAIL: missing metric families: {', '.join(missing)}")
            return 1
        print(f"ok: {args.path} parses; all required families present")
        return 0

    try:
        obs, summary = run_snapshot(
            scale=args.scale,
            n_queries=args.n_queries,
            topk=args.topk,
            nprobe=args.nprobe,
            scanner_name=args.scanner,
            seed=args.seed,
        )
    except ConfigurationError as exc:
        # An unknown kind, or quickadc against the 8-bit workload.
        parser.error(str(exc))
    write_snapshots(obs.metrics, json_path=args.json, prom_path=args.prom)
    missing = check_snapshot(args.prom, CORE_FAMILIES)
    print(f"workload: {summary['workload']}")
    for stage, entry in sorted(
        obs.tracer.stage_summary().items(), key=lambda kv: -kv[1]["total_s"]
    ):
        print(
            f"  {stage:<8} count={int(entry['count']):<5} "
            f"total={entry['total_s'] * 1000:8.2f} ms "
            f"max={entry['max_s'] * 1000:7.2f} ms"
        )
    print(f"[json snapshot written to {args.json}]")
    print(f"[prometheus snapshot written to {args.prom}]")
    if missing:
        print(f"FAIL: snapshot missing families: {', '.join(missing)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
