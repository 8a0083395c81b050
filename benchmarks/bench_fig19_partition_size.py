"""Figure 19 — impact of partition size (keep=0.5%, topk=100).

Scans every partition (ordered by decreasing size, as in the paper's
x-axis) with queries routed to it. Expected shape: pruning power is
roughly flat across partitions, while scan speed degrades for the
smallest partitions, whose groups fall under the ~50-vector threshold
and spend proportionally more time loading table portions.

Beside the simulated speed, three wall-clock columns on the same
partitions and queries (ms per query, numpy scanners, layouts warm):
``PQFastScanner.scan``, ``NaiveScanner.scan`` and ``NaiveScanner.scan_batch``
over the 6 queries at once. They are the crossover table
``docs/execution.md`` quotes; no floor is asserted on them (wall-clock
on a shared box).
"""

import time

import numpy as np

from repro import NaiveScanner
from repro.bench import format_table, run_queries, save_report, summarize


def test_fig19_partition_size(benchmark, ctx, workload, fast_scanner):
    def sweep():
        results = []
        naive = NaiveScanner()
        for pid in workload.partitions_by_size():
            partition = workload.index.partitions[pid]
            routed = list(workload.queries_for_partition(pid))
            extras = [q for q in range(len(workload.queries)) if q not in routed]
            queries = (routed + extras)[:6]
            stats = run_queries(
                ctx, fast_scanner, query_indexes=queries, topk=100,
                arch="haswell", partition_override=int(pid),
            )
            assert all(s.exact_match for s in stats)
            grouped = fast_scanner.prepared(partition)
            summary = summarize(stats)
            summary["naive_wall_median_ms"] = summarize(
                run_queries(
                    ctx, naive, query_indexes=queries, topk=100,
                    partition_override=int(pid),
                )
            )["wall_median_ms"]
            tables = workload.index.distance_tables_for_batch(
                workload.queries[queries], int(pid)
            )
            walls = []
            for _ in range(4):  # the first call pays for fresh pages
                start = time.perf_counter()
                naive.scan_batch(tables, partition, topk=100)
                walls.append(time.perf_counter() - start)
            summary["naive_batch_wall_ms"] = (
                float(np.median(walls[1:])) * 1e3 / len(queries)
            )
            summary["partition"] = int(pid)
            summary["size"] = len(partition)
            summary["c"] = grouped.c
            summary["mean_group_size"] = grouped.group_stats()["mean_size"]
            results.append(summary)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [r["partition"], r["size"], r["c"], r["mean_group_size"],
         r["pruned_mean"] * 100, r["speed_median_mvps"],
         r["wall_median_ms"], r["naive_wall_median_ms"],
         r["naive_batch_wall_ms"]]
        for r in results
    ]
    table = format_table(
        ["partition", "vectors", "c", "mean group", "pruned [%]",
         "speed [M vecs/s]", "fastpq [ms]", "naive [ms]",
         "naive batch/6 [ms]"],
        rows,
        title="Figure 19 — impact of partition size (keep=0.5%, topk=100)",
    )
    save_report(
        "fig19_partition_size", table,
        {str(r["partition"]): r for r in results},
    )

    # Shape: larger partitions scan at least as fast as the smallest one.
    largest = results[0]
    smallest = results[-1]
    assert largest["size"] > smallest["size"]
    assert largest["speed_median_mvps"] >= smallest["speed_median_mvps"] * 0.8
