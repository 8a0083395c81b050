"""Quickstart: PQ Fast Scan end to end in ~30 seconds.

Builds a synthetic SIFT-like database, trains a PQ 8x8 product
quantizer, indexes the database with IVFADC, and answers nearest
neighbor queries with PQ Fast Scan — verifying that the results are
*exactly* those of plain PQ Scan while most distance computations are
pruned.

A second pass shows the Quick ADC 4-bit variant at the same 64-bit
code budget: ``EngineConfig(scanner="quickadc")`` with a PQ 16x4
quantizer (two sub-indexes per byte, 16-entry in-register tables).

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro import (
    Engine,
    EngineConfig,
    IVFADCIndex,
    NaiveScanner,
    PQFastScanner,
    ProductQuantizer,
    VectorDataset,
)


def main() -> None:
    print("1. Generating a synthetic SIFT-like dataset ...")
    dataset = VectorDataset.synthetic(
        n_learn=20_000, n_base=200_000, n_query=5, seed=7
    )
    print(f"   {dataset.describe()}")

    print("2. Training a PQ 8x8 product quantizer (64-bit codes) ...")
    pq = ProductQuantizer(m=8, bits=8, max_iter=10, seed=0).fit(dataset.learn)
    mse = pq.quantization_error(dataset.base[:2000])
    print(f"   {pq.config_name()}: quantization MSE = {mse:.0f}")

    print("3. Building the IVFADC index (2 partitions) ...")
    index = IVFADCIndex(pq, n_partitions=2, seed=0).add(dataset.base)
    print(f"   partition sizes: {index.partition_sizes().tolist()}")

    print("4. Searching with PQ Fast Scan (keep=0.5%, topk=10) ...")
    fast = PQFastScanner(pq, keep=0.005, seed=0)
    reference = NaiveScanner()
    for qi, query in enumerate(dataset.queries):
        pid = index.route(query)[0]               # Step 1: route
        tables = index.distance_tables_for(query, pid)  # Step 2: tables
        partition = index.partitions[pid]

        t0 = time.perf_counter()
        result = fast.scan(tables, partition, topk=10)  # Step 3: scan
        elapsed = time.perf_counter() - t0

        exact = reference.scan(tables, partition, topk=10)
        assert result.same_neighbors(exact), "exactness violated!"
        print(
            f"   query {qi}: partition {pid} ({len(partition)} vectors), "
            f"pruned {result.pruned_fraction:.1%} of distance "
            f"computations, nearest id {result.ids[0]} "
            f"(d^2={result.distances[0]:.0f}), {elapsed * 1e3:.0f} ms, "
            f"results identical to PQ Scan: "
            f"{result.same_neighbors(exact)}"
        )

    print("\n5. The 4-bit variant: Quick ADC at the same 64-bit code budget.")
    print("   16 sub-quantizers x 4 bits = 64-bit codes, same as the 8x8")
    print("   above; the 16-entry tables fit a SIMD register directly, so")
    print("   every lookup is an exact in-register shuffle.")
    config = EngineConfig(
        m=16, bits=4, scanner="quickadc",
        n_partitions=2, nprobe=2, max_iter=10, seed=0,
    )
    with Engine.build(dataset.base, config) as engine:
        t0 = time.perf_counter()
        results = engine.search(dataset.queries, k=10)
        elapsed = time.perf_counter() - t0
        for qi, result in enumerate(results):
            print(
                f"   query {qi}: nearest id {result.ids[0]} "
                f"(d^2={result.distances[0]:.0f}), "
                f"pruned {result.pruned_fraction:.1%}"
            )
        print(f"   batch of {len(results)} queries in {elapsed * 1e3:.0f} ms")

    print("\nDone. PQ Fast Scan returned byte-identical neighbors while")
    print("skipping the exact distance computation for the vast majority")
    print("of database vectors. The quickadc pass answered the same")
    print("queries from 4-bit codes with direct in-register lookups —")
    print("fewer simulated cycles per code at a small recall cost")
    print("(the scan-quickadc and scan-fastpq rows of perfbench/baseline.json")
    print("quantify the trade: sim_cycles_per_code, recall_at_100).")


if __name__ == "__main__":
    main()
