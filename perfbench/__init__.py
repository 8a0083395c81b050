"""perfbench — the repository's one performance benchmark.

Four named workloads over the public ``repro`` API, measured in both of
the system's currencies (Python wall-clock and simulated cycles per
code), each with an untraced end-to-end run and a traced per-layer run.
See ``perfbench/README.md`` for the workloads, the metrics and how to
read them; ``BENCHMARK.json`` at the repository root is the contract.

The package runs from a plain checkout: ``src/`` is put on ``sys.path``
here so ``import repro`` resolves without an install, and worker
processes forked by ``repro.parallel`` inherit it.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
