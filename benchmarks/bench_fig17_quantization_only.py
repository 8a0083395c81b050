"""Figure 17 — pruning power using quantization only.

The quantization-only variant (256-entry int8 tables, no grouping, no
minimum tables) isolates the pruning-power cost of each small-table
technique. Expected shape (paper): quantization-only pruning is higher
than full PQ Fast Scan's — most of the loss comes from minimum tables,
not from 8-bit quantization.
"""

import numpy as np

from repro import PQFastScanner
from repro.core import QuantizationOnlyScanner
from repro.bench import format_table, run_queries, save_report, summarize

KEEPS = (0.001, 0.005, 0.05)
TOPKS = (100, 1000)
N_QUERIES = 8


def test_fig17_quantization_only_pruning(benchmark, ctx, workload):
    def sweep():
        results = {}
        for topk in TOPKS:
            for keep in KEEPS:
                qonly = QuantizationOnlyScanner(workload.pq, keep=keep)
                stats = run_queries(
                    ctx, qonly, query_indexes=range(N_QUERIES), topk=topk,
                    arch="haswell",
                )
                assert all(s.exact_match for s in stats)
                results[("qonly", topk, keep)] = summarize(stats)
            full = PQFastScanner(workload.pq, keep=0.005, seed=0)
            stats = run_queries(
                ctx, full, query_indexes=range(N_QUERIES), topk=topk,
                arch="haswell",
            )
            results[("full", topk, 0.005)] = summarize(stats)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [variant, topk, f"{keep * 100:g}%", summary["pruned_mean"] * 100]
        for (variant, topk, keep), summary in results.items()
    ]
    table = format_table(
        ["variant", "topk", "keep", "pruned [%]"],
        rows,
        title="Figure 17 — pruning power using quantization only",
    )
    save_report(
        "fig17_quantization_only",
        table,
        {f"{v}_topk{t}_keep{k}": s for (v, t, k), s in results.items()},
    )

    # Paper's finding: the quantization-only bound prunes at least as
    # hard as the full small-table pipeline.
    for topk in TOPKS:
        assert (
            results[("qonly", topk, 0.005)]["pruned_mean"]
            >= results[("full", topk, 0.005)]["pruned_mean"] - 0.02
        )
