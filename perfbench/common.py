"""Span recorder, workload specs and small helpers shared by the workloads."""

from __future__ import annotations

import json
import os
import platform
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent
OUT_DIR = PACKAGE_DIR / "out"
#: ``all --seed 11`` at the commit that added the benchmark; see README.md.
BASELINE = PACKAGE_DIR / "baseline.json"

#: Vectors of the learn split; ``serve-mixed`` inserts them as new rows.
N_LEARN = 2048
#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Depth at which recall is scored on every workload. At the k=10 that
#: ``probe-sharded`` and ``serve-mixed`` ask for, 1-NN recall moves between
#: 0.41 and 0.74 with the seed's cluster geometry (ranking inside the top
#: ten is PQ noise on this data); at 100 it is 0.96-0.99 on every seed.
RECALL_K = 100
#: Exact neighbours per query that recall looks for: as many as are returned,
#: the overlap measure. Over 30 seeds per workload, ten-seed IQR / median
#: was 0.010-0.011 (never over 0.025) for 100 neighbours, 0.015-0.024 (up
#: to 0.045) for ten and 0.008-0.017 (up to 0.029) for the nearest one;
#: and a share near 0.6 has room to fall where one near 0.98 has not.
RECALL_NEIGHBOURS = 100
#: Simulated-currency sample: queries x leading codes of the routed partition.
SIM_QUERIES = 4
SIM_CODES = 4096


# -- the contract ---------------------------------------------------------------


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- workload specs -------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """Shape of one workload (see README.md for why each exists).

    ``pool`` distinct queries are cycled in batches of ``batch``; one
    *pass* is the whole pool once. ``engine`` holds the
    ``repro.EngineConfig`` fields; ``mmap`` is how the saved artifact is
    loaded back.
    """

    name: str
    n_base: int
    pool: int
    batch: int
    k: int
    nprobe: int
    engine: dict = field(hash=False)
    mmap: bool = False
    sim_queries: int = SIM_QUERIES
    sim_codes: int = SIM_CODES

    @property
    def sharded(self) -> bool:
        return self.engine.get("n_shards", 1) > 1


# Sizes are what three set-ups plus ten measured seconds fit into half a
# minute. The scan workloads need 16 384 rows: from 50 * 16**2 = 12 800 rows
# up PQFastScanner groups on two components (256 groups per query), the
# regime of the paper's large partitions; below that it groups on one and
# is five times faster per query.
_BUILD = dict(max_iter=5, coarse_max_iter=5, seed=0, executor="thread", n_workers=1)

SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "scan-fastpq", n_base=16384, pool=256, batch=8, k=100, nprobe=1,
            engine=dict(_BUILD, m=8, bits=8, n_partitions=1,
                        scanner="fastpq", keep=0.005),
        ),
        Spec(
            "scan-quickadc", n_base=16384, pool=512, batch=16, k=100, nprobe=1,
            engine=dict(_BUILD, m=16, bits=4, n_partitions=1,
                        scanner="quickadc", keep=0.005),
        ),
        Spec(
            "probe-sharded", n_base=12288, pool=1024, batch=128, k=10, nprobe=8,
            engine=dict(_BUILD, m=8, bits=8, n_partitions=128, n_shards=2,
                        shard_layout="modulo", scanner="naive",
                        executor="process"),
            mmap=True,
        ),
        Spec(
            "serve-mixed", n_base=12288, pool=1024, batch=32, k=10, nprobe=4,
            engine=dict(_BUILD, m=8, bits=8, n_partitions=64,
                        scanner="naive", mutable=True),
        ),
    )
}


def smoke_spec(spec: Spec) -> Spec:
    """The ``--smoke`` size: drives every code path, measures nothing."""
    engine = dict(spec.engine, max_iter=2, coarse_max_iter=2)
    engine["n_partitions"] = min(engine["n_partitions"], 16)
    return replace(
        spec,
        n_base=2000,
        pool=min(spec.pool, 2 * spec.batch),
        nprobe=min(spec.nprobe, engine["n_partitions"]),
        engine=engine,
        sim_queries=2,
        sim_codes=256,
    )


#: Per-layer metrics only ``serve-mixed`` produces; the batch workloads,
#: which bypass ``repro.delta`` and ``repro.serve``, report them as 0.
SERVE_METRICS = (
    "delta.add_ms", "delta.delete_ms", "delta.compact_s",
    "delta.compact_encode_s", "delta.rows_folded", "delta.overlay_read_ratio",
    "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99", "serve.service_ms.p50",
    "serve.latency_ms.p90", "serve.latency_ms.p99", "serve.write_ms.p50", "serve.batch_size.mean.open",
    "serve.batch_size.mean.closed", "serve.closed_qps", "serve.flushes", "serve.shed",
    "serve.gen_late_ms.p99",
)


@dataclass
class Outcome:
    """What one run of a workload hands back to the command line."""

    values: dict[str, float]
    attempted: int
    failed: int
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    dataset: str = ""
    #: Untraced runs: each rescaled time in ``values`` as the clock read it,
    #: and the kernel samples it was rescaled with.
    raw: dict[str, float] = field(default_factory=dict)
    speed: Speed | None = None


# -- spans ------------------------------------------------------------------------


class SpanRecorder:
    """Benchmark-side spans around the calls into each layer.

    A span is ``name, start, end, parent, batch``; spans opened with
    :meth:`span` nest per thread (the enclosing span is the parent and
    lends its batch id), spans whose interval is known after the fact
    (served requests) are appended with :meth:`add`. Times are
    ``time.monotonic()``, the clock asyncio's loop uses, so both kinds
    share one timeline. Everything stays in memory until :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, batch: int | None = None) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if batch is None and parent is not None:
            batch = self.spans[parent]["batch"]
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": parent, "batch": batch}
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(record)
        stack.append(span_id)
        record["start"] = time.monotonic()
        try:
            yield span_id
        finally:
            record["end"] = time.monotonic()
            stack.pop()

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, batch: int | None = None) -> int:
        record = {"name": name, "start": start, "end": end,
                  "parent": parent, "batch": batch}
        with self._lock:
            self.spans.append(record)
            return len(self.spans) - 1

    def _times(self, self_time: bool) -> list[float]:
        """Each span's duration, or its self time: the duration minus the
        durations of its child spans."""
        took = [s["end"] - s["start"] for s in self.spans]
        if self_time:
            for s in self.spans:
                if s["parent"] is not None:
                    took[s["parent"]] -= s["end"] - s["start"]
        return took

    def durations(self, name: str, *, self_time: bool = False) -> list[float]:
        times = self._times(self_time)
        return [times[i] for i, s in enumerate(self.spans) if s["name"] == name]

    def per_batch(self, name: str, *, self_time: bool = False) -> list[float]:
        """Time spent in spans called ``name``, summed per batch id."""
        times = self._times(self_time)
        sums: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s["name"] == name and s["batch"] is not None:
                sums[s["batch"]] = sums.get(s["batch"], 0.0) + times[i]
        return [sums[b] for b in sorted(sums)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


# -- machine speed ----------------------------------------------------------------

# The box the benchmark was written on switches between speed states up to
# 1.4x apart that last seconds to minutes (a 10 s window of one process on
# the same data read 23 ms per batch, the next one 33 ms), so a raw time
# says more about when it was taken than about the code. Every end-to-end
# time is therefore taken next to a run of a fixed kernel and reported
# twice: raw, and at the speed at which that kernel takes what it took in
# the committed baseline run of the same workload. Over twenty 10 s windows
# the raw medians ranged over 19 %, the rescaled ones over 7 %. The kernel
# is interpreter bytecode plus numpy call dispatch on an array that stays
# in L1, which is what this system's wall-clock is made of; kernels that
# touch memory (a gather, a copy) moved by 2x on their own, unrelated to
# the workloads, and were dropped.

_CAL_IN = np.arange(512, dtype=np.float32)
_CAL_OUT = np.empty_like(_CAL_IN)


def calibration_s() -> float:
    """Wall time of one run of the fixed calibration kernel (about 1.5 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(800):
        np.add(_CAL_IN, _CAL_IN, out=_CAL_OUT)
    return time.perf_counter() - started


class Speed:
    """The calibration kernel's samples over one untraced run.

    A wall time taken next to a kernel sample of ``kernel_s`` is rescaled
    by ``reference_s / kernel_s`` (below 1 while the machine is slow).
    ``reference_s`` is what the kernel took in the baseline run of the
    same workload (``baseline.json``), so times read as they would have
    then; while there is no baseline, which is how a new one is made, it
    is this run's own median and only the drift inside the run is taken
    out. Hence the rescaling happens once the run is over.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.kernel_s: list[float] = []   # every sample, in the order taken

    def sample(self, repeats: int = 1) -> float:
        took = median([calibration_s() for _ in range(repeats)])
        self.kernel_s.append(took)
        return took

    def reference_s(self) -> float:
        if BASELINE.exists():
            entry = json.loads(BASELINE.read_text())["workloads"][self.workload]
            return float(entry["calibration_s"])
        return median(self.kernel_s)

    def scales(self, kernel_s) -> np.ndarray:
        return self.reference_s() / np.asarray(kernel_s, dtype=np.float64)


# -- helpers ----------------------------------------------------------------------


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_bytes(path: Path) -> int:
    """Size of a saved artifact: one file, or every file of a directory."""
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def same_bytes(a, b) -> bool:
    """Two ``SearchResult``s agree byte for byte on ids and distances."""
    return (
        a.ids.tobytes() == b.ids.tobytes()
        and a.distances.tobytes() == b.distances.tobytes()
    )
