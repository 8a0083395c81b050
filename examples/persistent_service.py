"""A small search service lifecycle: build offline, save, reload, serve.

Demonstrates the deployment-facing API: offline training and encoding,
persistence to a single artifact, reload in a fresh "serving process",
and query answering through :class:`repro.Engine` over the reloaded
index — the thread executor, no pool to manage — with exact re-ranking
of the shortlist (``Engine(..., vectors=)``). A service that batches
concurrent clients or spreads them over worker processes serves through
``Engine.load(artifact, executor="process")`` and
:meth:`repro.serve.MicroBatchServer.for_engine`.

Run:  python examples/persistent_service.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    Engine,
    EngineConfig,
    IVFADCIndex,
    ProductQuantizer,
    VectorDataset,
    exact_neighbors,
    load_index,
    recall_at,
    save_index,
)


def build_offline(dataset: VectorDataset, artifact: Path) -> None:
    """The offline job: train, encode, persist."""
    print("[offline] training PQ 8x8 and building the IVFADC index ...")
    pq = ProductQuantizer(m=8, bits=8, max_iter=10, seed=0).fit(dataset.learn)
    index = IVFADCIndex(pq, n_partitions=4, seed=0).add(dataset.base)
    save_index(index, artifact)
    print(f"[offline] saved {len(index)} vectors -> {artifact} "
          f"({artifact.stat().st_size / 2**20:.1f} MiB)")


def serve(dataset: VectorDataset, artifact: Path) -> None:
    """The serving process: reload and answer queries."""
    t0 = time.perf_counter()
    index = load_index(artifact)
    print(f"[serve] index loaded in {time.perf_counter() - t0:.2f}s")
    config = EngineConfig(
        m=index.pq.m, n_partitions=index.n_partitions, scanner="fastpq",
        executor="thread",
    )
    truth, _ = exact_neighbors(dataset.base, dataset.queries, k=1)
    # vectors= enables exact re-ranking.
    with Engine(index, config, vectors=dataset.base) as engine:
        plain = engine.search(dataset.queries, k=10, nprobe=2)
        reranked = engine.search(dataset.queries, k=10, nprobe=2, rerank=200)
    found_plain = [result.ids for result in plain]
    found_rerank = [result.ids for result in reranked]
    r_plain = recall_at(np.array(found_plain), truth, r=1)
    r_rerank = recall_at(np.array(found_rerank), truth, r=1)
    r10 = recall_at(np.array(found_rerank), truth, r=10)
    print(f"[serve] recall@1: ADC order {r_plain:.2f} -> "
          f"re-ranked {r_rerank:.2f} (recall@10 {r10:.2f})")
    print("[serve] re-ranking recovers the precision the 8-byte codes")
    print("        compress away, at the cost of 200 exact distances.")


def main() -> None:
    dataset = VectorDataset.synthetic(15_000, 100_000, 25, seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "catalog.npz"
        build_offline(dataset, artifact)
        serve(dataset, artifact)


if __name__ == "__main__":
    main()
