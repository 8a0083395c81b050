"""Dirty reads against clean ones: a deleted row is a row the scanner skips.

A mutable thread ``Engine`` reads its base partitions with the
configured scanner, which skips the rows a tombstone names. Its scan
stays ``topk`` wide however many rows were deleted, so a dirty read
costs what a clean one does, and an emptied partition costs less (its
rows are bounded but none is scored exactly).

Each row deletes a larger share of the larger partition (cumulatively:
none, 1 %, 10 %, every row) and times one pass of the queries in
batches, best of three passes, in ms/query. Run it as a script for the
table ``docs/serving.md`` quotes (synthetic SIFT, 80 000 x 128-d, 2
partitions, ``k=100``, ``nprobe`` 2, 128 queries in batches of 8)::

    PYTHONPATH=src python benchmarks/bench_dirty_reads.py

Under pytest it runs a smaller shape (20 000 x 64-d, fastpq) and asserts
that no dirty read costs more than 1.5x the clean one: before the skip,
an emptied partition read 3-4x slower.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import Engine, VectorDataset

SHARES = (0.0, 0.01, 0.10, 1.0)


def dirty_reads(
    scanner: str,
    n_rows: int,
    dim: int,
    *,
    n_queries: int = 128,
    batch: int = 8,
    k: int = 100,
    passes: int = 3,
) -> dict[float, float]:
    """ms/query, best of ``passes``, per deleted share of the larger
    partition."""
    data = VectorDataset.synthetic(4000, n_rows, n_queries, dim=dim, seed=3)
    with Engine.build(
        data.base, mutable=True, scanner=scanner, n_partitions=2, nprobe=2,
        executor="thread", max_iter=4, coarse_max_iter=4, seed=0,
    ) as engine:
        largest = max(engine.index.partitions, key=len)
        ids = np.random.default_rng(0).permutation(largest.ids)
        timings, deleted = {}, 0
        for share in SHARES:
            upto = int(round(share * len(ids)))
            if upto > deleted:
                engine.delete(ids[deleted:upto])
                deleted = upto
            best = np.inf
            for _ in range(passes):
                t0 = time.perf_counter()
                for start in range(0, n_queries, batch):
                    engine.search(data.queries[start : start + batch], k=k)
                best = min(best, time.perf_counter() - t0)
            timings[share] = best / n_queries * 1e3
    return timings


def test_a_dirty_read_costs_what_a_clean_one_does():
    timings = dirty_reads("fastpq", 20_000, 64, n_queries=64)
    clean = timings[0.0]
    for share, ms in timings.items():
        assert ms <= 1.5 * clean, (share, ms, clean)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scanners", nargs="+", default=["fastpq"])
    parser.add_argument("--rows", type=int, default=80_000)
    parser.add_argument("--dim", type=int, default=128)
    args = parser.parse_args()
    print("| scanner | clean | 1 % deleted | 10 % deleted | emptied |")
    print("|---|---|---|---|---|")
    for scanner in args.scanners:
        timings = dirty_reads(scanner, args.rows, args.dim)
        cells = " | ".join(f"{timings[share]:.2f}" for share in SHARES)
        print(f"| {scanner} | {cells} |", flush=True)


if __name__ == "__main__":
    main()
