"""Public-API snapshot tool: records and checks the library's surface.

The repo's compatibility gate. ``tools/public_api.json`` is a committed
snapshot of every public symbol (module ``__all__`` entries) plus the
call signatures of the top-level callables. CI regenerates the snapshot
and fails when it drifts from the committed file — so every API change
is an explicit, reviewed diff of ``public_api.json``, and *removals*
(the breaking kind) are called out separately from additions.

Usage::

    PYTHONPATH=src python -m tools.api_snapshot --write   # regenerate
    PYTHONPATH=src python -m tools.api_snapshot --check   # CI gate
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from pathlib import Path
from typing import Sequence

#: Modules whose ``__all__`` constitutes the public surface.
PUBLIC_MODULES = (
    "repro",
    "repro.core",
    "repro.data",
    "repro.delta",
    "repro.engine",
    "repro.exceptions",
    "repro.ivf",
    "repro.native",
    "repro.obs",
    "repro.parallel",
    "repro.persistence",
    "repro.pq",
    "repro.scan",
    "repro.search",
    "repro.serve",
    "repro.shard",
    "repro.simd",
)

SNAPSHOT_PATH = Path(__file__).resolve().parent / "public_api.json"


def _signature_of(obj: object) -> str | None:
    """Best-effort signature string (None for non-callables/builtins)."""
    if not callable(obj):
        return None
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return None


def build_snapshot() -> dict[str, object]:
    """The current public surface: symbols per module, top-level signatures."""
    modules: dict[str, list[str]] = {}
    signatures: dict[str, str] = {}
    for name in PUBLIC_MODULES:
        module = importlib.import_module(name)
        exported = sorted(getattr(module, "__all__", []))
        modules[name] = exported
        for symbol in exported:
            obj = getattr(module, symbol, None)
            sig = _signature_of(obj)
            if sig is not None:
                signatures[f"{name}.{symbol}"] = sig
    return {"modules": modules, "signatures": signatures}


def _flatten(snapshot: dict[str, object]) -> set[str]:
    modules = snapshot.get("modules", {})
    if not isinstance(modules, dict):
        return set()
    return {
        f"{module}.{symbol}"
        for module, symbols in modules.items()
        for symbol in symbols
    }


def check(current: dict[str, object], committed: dict[str, object]) -> list[str]:
    """Human-readable drift report; empty when surfaces match exactly."""
    problems: list[str] = []
    cur, old = _flatten(current), _flatten(committed)
    for symbol in sorted(old - cur):
        problems.append(f"REMOVED (breaking): {symbol}")
    for symbol in sorted(cur - old):
        problems.append(f"added (regenerate snapshot): {symbol}")
    cur_sigs = current.get("signatures", {})
    old_sigs = committed.get("signatures", {})
    if isinstance(cur_sigs, dict) and isinstance(old_sigs, dict):
        for name in sorted(set(old_sigs) & set(cur_sigs)):
            if old_sigs[name] != cur_sigs[name]:
                problems.append(
                    f"signature changed: {name}\n"
                    f"  was: {old_sigs[name]}\n"
                    f"  now: {cur_sigs[name]}"
                )
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed snapshot")
    mode.add_argument("--check", action="store_true",
                      help="fail if the surface drifted from the snapshot")
    parser.add_argument("--snapshot", type=Path, default=SNAPSHOT_PATH)
    args = parser.parse_args(argv)

    current = build_snapshot()
    if args.write:
        args.snapshot.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        n = len(_flatten(current))
        print(f"[{args.snapshot}: {n} public symbols recorded]")
        return 0

    if not args.snapshot.exists():
        print(f"FAIL: no committed snapshot at {args.snapshot}; "
              "run with --write and commit the result")
        return 1
    committed = json.loads(args.snapshot.read_text())
    problems = check(current, committed)
    if problems:
        print("public API drifted from tools/public_api.json:")
        for problem in problems:
            print(f"  {problem}")
        print("If intentional: regenerate with "
              "`PYTHONPATH=src python -m tools.api_snapshot --write`, commit, "
              "and call out any REMOVED lines in the changelog.")
        return 1
    print(f"public API matches snapshot ({len(_flatten(current))} symbols)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
