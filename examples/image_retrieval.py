"""Image-retrieval scenario: near-duplicate search in a descriptor store.

The paper's motivating application (Section 1): finding multimedia
objects similar to a query object by searching the nearest neighbors of
its feature vector. This example simulates a content-based image
retrieval deployment:

* a database of SIFT-like descriptors of "catalog images",
* query descriptors that are *distorted copies* of catalog descriptors
  (the near-duplicate detection task),
* an IVFADC index scanned with PQ Fast Scan, evaluated by recall@R
  against exact (brute-force) search and by pruning statistics.

Run:  python examples/image_retrieval.py
"""

import time

import numpy as np

from repro import (
    IVFADCIndex,
    NaiveScanner,
    PQFastScanner,
    ProductQuantizer,
    SyntheticSIFT,
    exact_neighbors,
    recall_at,
)


def make_near_duplicate_queries(
    base: np.ndarray, n_queries: int, noise: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick catalog descriptors and distort them (crop/jpeg analogue)."""
    rng = np.random.default_rng(seed)
    originals = rng.choice(len(base), size=n_queries, replace=False)
    queries = base[originals] + rng.normal(0, noise, (n_queries, base.shape[1]))
    return np.clip(np.rint(queries), 0, 255), originals


def main() -> None:
    print("Building the descriptor catalog ...")
    gen = SyntheticSIFT(seed=21)
    learn = gen.generate(20_000, split="learn")
    base = gen.generate(150_000, split="base")
    queries, originals = make_near_duplicate_queries(
        base, n_queries=30, noise=5.0, seed=3
    )
    print(f"  catalog: {len(base)} descriptors, {len(queries)} "
          f"near-duplicate queries")

    pq = ProductQuantizer(m=8, bits=8, max_iter=10, seed=0).fit(learn)
    index = IVFADCIndex(pq, n_partitions=4, seed=0).add(base)
    fast = PQFastScanner(pq, keep=0.005, seed=0)
    naive = NaiveScanner()

    print("Searching (topk=100, nprobe=1) ...")
    found = np.full((len(queries), 100), -1, dtype=np.int64)
    pruned = []
    t_fast = t_ref = 0.0
    for qi, query in enumerate(queries):
        pid = index.route(query)[0]
        tables = index.distance_tables_for(query, pid)
        partition = index.partitions[pid]
        t0 = time.perf_counter()
        result = fast.scan(tables, partition, topk=100)
        t_fast += time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = naive.scan(tables, partition, topk=100)
        t_ref += time.perf_counter() - t0
        assert result.same_neighbors(reference)
        found[qi, : len(result.ids)] = result.ids
        pruned.append(result.pruned_fraction)

    truth, _ = exact_neighbors(base, queries, k=1)
    r1 = recall_at(found, truth, r=1)
    r100 = recall_at(found, truth, r=100)
    dup_hits = float(np.mean(found[:, 0] == originals))

    print(f"\n  recall@1   vs exact search: {r1:.2f}")
    print(f"  recall@100 vs exact search: {r100:.2f}")
    print(f"  near-duplicate found at rank 1: {dup_hits:.2f}")
    print(f"  mean pruned distance computations: {np.mean(pruned):.1%}")
    print(f"  numpy wall time, fast scan: {t_fast:.2f}s / "
          f"PQ scan: {t_ref:.2f}s")
    print("\n(Results are identical between PQ Fast Scan and PQ Scan by")
    print(" construction; on real SIMD hardware the pruned fraction turns")
    print(" into the paper's 4-6x speedup — see the simulator example.)")


if __name__ == "__main__":
    main()
