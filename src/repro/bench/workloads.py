"""Benchmark workloads replicating the paper's experimental setup.

The paper evaluates on ANN_SIFT1B subsets (Section 5.1):

* **ANN_SIFT100M1** — 100M base vectors, an 8-partition index whose
  partition sizes are listed in Table 3 (25M, 3.4M, 11M, 11M, 11M, 11M,
  4M, 23M); each of 10000 queries is routed to its most relevant
  partition.
* **ANN_SIFT1B** — the full 1B vectors with a 128-partition index.

Those sizes are scaled down by ``scale`` (default 100, i.e. 1M base for
the SIFT100M analogue) so experiments run on a laptop; all reported
*per-vector* and *relative* quantities are scale-free, and every report
records the scale. Workloads are deterministic and cached on disk — the
expensive parts (k-means training, encoding a million vectors) happen
once per (name, scale, seed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.dataset import VectorDataset
from ..exceptions import ConfigurationError
from ..ivf.inverted_index import IVFADCIndex
from ..ivf.partition import Partition
from ..pq.product_quantizer import ProductQuantizer
from ..pq.quantizer import VectorQuantizer

__all__ = ["Workload", "build_workload", "default_cache_dir", "PAPER_PARTITION_SIZES"]

#: Table 3 of the paper: partition sizes (vectors) and query counts.
PAPER_PARTITION_SIZES = {
    0: 25_000_000,
    1: 3_400_000,
    2: 11_000_000,
    3: 11_000_000,
    4: 11_000_000,
    5: 11_000_000,
    6: 4_000_000,
    7: 23_000_000,
}
PAPER_QUERY_COUNTS = {0: 2595, 1: 307, 2: 1184, 3: 1032, 4: 1139, 5: 1036,
                      6: 390, 7: 2317}


def default_cache_dir() -> Path:
    """Workload cache location (override with REPRO_BENCH_CACHE)."""
    return Path(os.environ.get("REPRO_BENCH_CACHE", ".bench_cache"))


@dataclass
class Workload:
    """A built benchmark workload: quantizer, index, queries.

    Attributes:
        name: "sift100m" or "sift1b" (scaled analogues).
        scale: divisor applied to the paper's dataset sizes.
        pq: the trained PQ 8×8 quantizer.
        index: the populated IVFADC index.
        queries: query vectors.
        query_partitions: most relevant partition id per query (Step 1
            precomputed).
    """

    name: str
    scale: int
    pq: ProductQuantizer
    index: IVFADCIndex
    queries: np.ndarray
    query_partitions: np.ndarray

    def queries_for_partition(self, pid: int) -> np.ndarray:
        """Indexes of the queries routed to partition ``pid`` (Table 3)."""
        return np.flatnonzero(self.query_partitions == pid)

    def partitions_by_size(self) -> list[int]:
        """Partition ids ordered by decreasing size (Figure 19's x-axis)."""
        sizes = self.index.partition_sizes()
        return list(np.argsort(sizes)[::-1])

    def describe(self) -> str:
        sizes = self.index.partition_sizes()
        return (
            f"{self.name} (scale 1/{self.scale}): {len(self.index)} vectors, "
            f"{len(sizes)} partitions (sizes {sizes.tolist()}), "
            f"{len(self.queries)} queries"
        )


def build_workload(
    name: str = "sift100m",
    *,
    scale: int = 100,
    n_queries: int = 64,
    seed: int = 11,
    cache_dir: Path | None = None,
) -> Workload:
    """Build (or load from cache) a benchmark workload.

    Args:
        name: "sift100m" (8 partitions) or "sift1b" (Figure 20's setup,
            with the partition count reduced alongside the base size so
            per-partition sizes stay in the regime the paper targets).
        scale: divisor on the paper's dataset sizes.
        n_queries: number of query vectors to draw.
        seed: generator seed (the whole workload is deterministic).
    """
    if name == "sift100m":
        n_base = 100_000_000 // scale
        n_partitions = 8
    elif name == "sift1b":
        n_base = 1_000_000_000 // scale
        # The paper uses 128 partitions of ~8M vectors. At laptop scale
        # the partition *size regime* matters more than the count (PQ
        # Fast Scan behaviour is per-partition), so the count shrinks to
        # keep partitions around 500K vectors, capped at the paper's 128.
        n_partitions = int(np.clip(n_base // 500_000, 4, 128))
    else:
        raise ConfigurationError(f"unknown workload {name!r}")

    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    cache = cache_dir / f"{name}-s{scale}-q{n_queries}-seed{seed}.npz"
    n_learn = max(20_000, min(100_000, n_base // 10))

    if cache.exists():
        data = np.load(cache, allow_pickle=False)
        pq_restored = ProductQuantizer.from_codebooks(data["codebooks"])
        index = IVFADCIndex.from_parts(
            pq_restored,
            VectorQuantizer.from_codebook(data["coarse"]),
            [
                Partition(
                    data[f"codes_{pid}"], data[f"ids_{pid}"], partition_id=pid
                )
                for pid in range(n_partitions)
            ],
            seed=seed,
        )
        return Workload(
            name=name,
            scale=scale,
            pq=pq_restored,
            index=index,
            queries=data["queries"],
            query_partitions=data["query_partitions"],
        )

    dataset = VectorDataset.synthetic(
        n_learn, n_base, n_queries, seed=seed, name=name
    )
    pq = ProductQuantizer(m=8, bits=8, max_iter=12, seed=seed)
    pq.fit(dataset.learn[: max(n_learn, 2600)])
    index = IVFADCIndex(pq, n_partitions=n_partitions, seed=seed)
    index.add(dataset.base)
    query_partitions = np.array(
        [index.route(q)[0] for q in dataset.queries], dtype=np.int64
    )
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "codebooks": pq.codebooks,
        "coarse": index.coarse.codebook,
        "queries": dataset.queries,
        "query_partitions": query_partitions,
    }
    for pid, part in enumerate(index.partitions):
        payload[f"codes_{pid}"] = part.codes
        payload[f"ids_{pid}"] = part.ids
    np.savez_compressed(cache, **payload)
    (cache_dir / "MANIFEST.json").write_text(
        json.dumps({"last_built": str(cache)}, indent=2)
    )
    return Workload(
        name=name,
        scale=scale,
        pq=pq,
        index=index,
        queries=dataset.queries,
        query_partitions=query_partitions,
    )
