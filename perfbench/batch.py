"""The three closed-loop batch workloads: one caller, whole passes over a
query pool. ``scan-fastpq`` and ``scan-quickadc`` put everything in the
scan layer; ``probe-sharded`` crosses ``repro.shard`` + ``repro.parallel``
with a scanner that does little."""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import ANNSearcher, Engine
from repro.scan import NaiveScanner

from . import layers
from .common import (
    RECALL_K,
    SERVE_METRICS,
    Outcome,
    SpanRecorder,
    Spec,
    Speed,
    median,
    peak_rss_mib,
    same_bytes,
    tree_bytes,
)

#: Passes every measured phase completes, however slow the machine.
MIN_PASSES = 2
#: Layer shares a workload must keep to still be the workload it claims.
SCAN_SHARE_FLOOR = 0.9
SCAN_SHARE_CEILING = 0.5
UNATTRIBUTED_BAND = 0.05


def run(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path,
        *, smoke: bool = False, corrupt: bool = False,
        rec: SpanRecorder | None = None) -> Outcome:
    ds, truth = layers.make_dataset(spec, seed)
    if trace:
        outcome = _traced(spec, ds, seconds, workdir, rec, smoke)
    else:
        outcome = _untraced(spec, ds, truth, seconds, workdir, corrupt)
    outcome.dataset = ds.name
    return outcome


# -- untraced: the end-to-end metrics ---------------------------------------------


def _untraced(spec: Spec, ds, truth: np.ndarray, seconds: float,
              workdir: Path, corrupt: bool) -> Outcome:
    speed = Speed(spec.name)
    engine, path, setups, setup_kernel = layers.repeated_setup(
        lambda tag: layers.setup_engine(spec, ds.base, ds.queries, workdir, tag),
        speed,
    )
    try:
        batches = layers.batches_of(spec, ds.queries)
        latencies: list[float] = []   # one per batch, as the clock read it
        kernel: list[float] = []      # the kernel sample taken after that batch
        first_pass: list = []
        digests: list[str] = []
        deadline = time.perf_counter() + seconds
        while len(digests) < MIN_PASSES or time.perf_counter() < deadline:
            answers = []
            for queries in batches:
                t0 = time.perf_counter()
                answers.extend(engine.search(queries, k=spec.k, nprobe=spec.nprobe))
                latencies.append(time.perf_counter() - t0)
                kernel.append(speed.sample())
            digests.append(_digest(answers))
            if not first_pass:
                first_pass = answers
        if corrupt:
            first_pass[0] = replace(first_pass[0], ids=first_pass[0].ids[::-1].copy())
            digests[0] = _digest(first_pass)
        failed, notes = _oracle(spec, engine, ds.queries, first_pass, digests)
        sim = layers.simulate(spec, engine, ds.queries, "haswell")

        def timed(scaled: bool) -> dict[str, float]:
            took = np.asarray(latencies)
            built = np.asarray(setups)
            if scaled:
                took = took * speed.scales(kernel)
                built = built * speed.scales(setup_kernel)
            # A pass is the sum of its batches' latencies.
            passes = took.reshape(len(digests), len(batches)).sum(axis=1)
            return {
                "setup_s": median(built),
                "qps": len(ds.queries) / median(passes),
                "p50_ms": median(took) * 1e3,
            }

        values = {
            **timed(scaled=True),
            "recall_at_100": layers.recall(
                _deep_answers(spec, engine, batches, first_pass), truth
            ),
            "sim_cycles_per_code": sim["cycles_per_code"],
            "index_bytes_per_vector": tree_bytes(path) / spec.n_base,
        }
    finally:
        engine.close()
    values["peak_rss_mb"] = peak_rss_mib()
    return Outcome(
        values,
        attempted=len(digests) * len(ds.queries),
        failed=failed,
        samples={"setup_s": len(setups), "qps": len(digests),
                 "p50_ms": len(latencies),
                 "recall_at_100": truth.size},
        notes=notes,
        raw=timed(scaled=False),
        speed=speed,
    )


def _deep_answers(spec: Spec, engine: Engine, batches, first_pass: list) -> list:
    """Answers ``RECALL_K`` deep: the measured ones where the workload asks
    for that many, else one extra untimed pass at that depth."""
    if spec.k == RECALL_K:
        return first_pass
    deep = []
    for queries in batches:
        deep.extend(engine.search(queries, k=RECALL_K, nprobe=spec.nprobe))
    return deep


def _digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(result.ids.tobytes())
        h.update(result.distances.tobytes())
    return h.hexdigest()


def _oracle(spec: Spec, engine: Engine, queries: np.ndarray,
            first_pass: list, digests: list[str]) -> tuple[int, list[str]]:
    """Queries whose answers are wrong, and why.

    * ``scan-fastpq``: first pass byte-identical (ids + distances) to
      the sequential ``NaiveScanner`` searcher.
    * ``scan-quickadc`` (approximate by design): every pass identical
      to the first, and each returned distance is the naive ADC distance
      of that id.
    * ``probe-sharded``: first pass byte-identical to an unsharded
      thread engine over the same index. ``Engine.search`` raises on a
      partial answer, so a partial batch never gets this far.
    """
    failed = 0
    notes = []
    index = engine.index
    if spec.sharded:
        flat = Engine(index, replace(engine.config, n_shards=1, executor="thread"))
        with flat:
            expected = []
            for queries_b in layers.batches_of(spec, queries):
                expected.extend(flat.search(queries_b, k=spec.k, nprobe=spec.nprobe))
        wrong = sum(not same_bytes(a, b) for a, b in zip(first_pass, expected))
    elif engine.config.scanner == "quickadc":
        wrong = 0
        with ANNSearcher(index, NaiveScanner()) as naive:
            # A batch at a time: every row's distance for the whole pool at
            # once would be the run's peak_rss_mb.
            for start in range(0, len(queries), spec.batch):
                everything = naive.search(
                    queries[start : start + spec.batch], topk=len(index),
                    nprobe=spec.nprobe, executor="sequential",
                )
                for got, full in zip(first_pass[start:], everything):
                    order = np.argsort(full.ids, kind="stable")
                    at = np.searchsorted(full.ids[order], got.ids)
                    wrong += not np.array_equal(full.distances[order][at], got.distances)
        drifted = sum(d != digests[0] for d in digests)
        if drifted:
            failed += drifted * len(queries)
            notes.append(f"{drifted} pass(es) differ from the first pass")
    else:
        with ANNSearcher(index, NaiveScanner()) as naive:
            expected = naive.search(
                queries, topk=spec.k, nprobe=spec.nprobe, executor="sequential"
            )
        wrong = sum(not same_bytes(a, b) for a, b in zip(first_pass, expected))
    if wrong:
        failed += wrong
        notes.append(f"{wrong} of {len(queries)} first-pass answers fail the oracle")
    return failed, notes


# -- traced: the per-layer metrics ------------------------------------------------


def _traced(spec: Spec, ds, seconds: float, workdir: Path,
            rec: SpanRecorder, smoke: bool) -> Outcome:
    engine, values = layers.traced_setup(spec, ds.base, workdir, rec)
    try:
        rounds, samples, attempted, failed = layers.layer_rounds(
            spec, engine, ds.queries, rec, seconds
        )
        values.update(rounds)
        notes = []
        if failed:
            notes.append(f"{failed} replayed answers differ from Engine.search")
        values.update(dict.fromkeys(layers.SHARD_METRICS + SERVE_METRICS, 0.0))
        if spec.sharded:
            shard, tried, partial = layers.shard_layers(
                spec, engine, ds.queries, workdir, rec
            )
            values.update(shard)
            attempted += tried
            failed += partial
        values.update(layers.simd_layers(spec, engine, ds.queries))
        if not smoke:
            wrong_layer = _discriminates(spec, values)
            notes += wrong_layer
            failed += len(wrong_layer)
            gap = values["search.unattributed_share"]
            if not spec.sharded and abs(gap) > UNATTRIBUTED_BAND:
                # Reported, not failed: the byte comparison above is the
                # hard check, and this one moves with the machine.
                notes.append(
                    f"search.unattributed_share {gap:.3f} outside +-{UNATTRIBUTED_BAND}"
                )
    finally:
        engine.close()
    return Outcome(values, attempted, failed, samples, notes)


def _discriminates(spec: Spec, values: dict[str, float]) -> list[str]:
    """A workload that stops stressing its layer fails loudly."""
    share = values["scan.share"]
    if spec.sharded and share > SCAN_SHARE_CEILING:
        return [f"scan.share {share:.3f} > {SCAN_SHARE_CEILING}"]
    if not spec.sharded and share < SCAN_SHARE_FLOOR:
        return [f"scan.share {share:.3f} < {SCAN_SHARE_FLOOR}"]
    return []
