"""IVFADC: inverted file with asymmetric distance computation.

Section 2.2 of the paper. A coarse quantizer partitions the database into
Voronoi cells; each cell's vectors are PQ-encoded (optionally as residuals
relative to the cell centroid, as in the original IVFADC of [14]) and
stored in an inverted list. Answering a query:

1. route the query to the ``nprobe`` nearest cells (Step 1),
2. compute per-cell distance tables for the (residual) query (Step 2),
3. scan the cells' pqcodes with a scanner (Step 3 — the paper's focus).

This module implements Steps 1-2 and partition management; scanners in
:mod:`repro.scan` and :mod:`repro.core` implement Step 3.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from ..pq.product_quantizer import ProductQuantizer
from ..pq.quantizer import VectorQuantizer
from .partition import Partition

__all__ = ["IVFADCIndex"]


class IVFADCIndex:
    """Inverted-file index over a product quantizer (IVFADC, [14]).

    Args:
        pq: a *fitted* :class:`ProductQuantizer` used to encode vectors
            (positional-only).
        n_partitions: number of coarse Voronoi cells (keyword-only).
        encode_residuals: if True (the original IVFADC), vectors are
            encoded as ``x - coarse_centroid(x)`` and queries are likewise
            shifted per cell; if False, raw vectors are encoded and all
            cells share one set of distance tables.
        coarse_max_iter: k-means iterations for the coarse quantizer.
        seed: RNG seed of the coarse quantizer training.
    """

    def __init__(
        self,
        pq: ProductQuantizer,
        /,
        *,
        n_partitions: int = 8,
        encode_residuals: bool = True,
        coarse_max_iter: int = 20,
        seed: int = 0,
    ):
        if not pq.is_fitted:
            raise NotFittedError("IVFADCIndex requires a fitted ProductQuantizer")
        if n_partitions < 1:
            raise ConfigurationError("n_partitions must be >= 1")
        self.pq = pq
        self.n_partitions = n_partitions
        self.encode_residuals = encode_residuals
        self.coarse_max_iter = coarse_max_iter
        self.seed = seed
        self._coarse: VectorQuantizer | None = None
        self._partitions: list[Partition] = []
        self._n_total = 0
        #: Compaction counter. 0 for a freshly built index; each
        #: compaction folds the delta into a new index at generation+1.
        #: Persisted by :func:`repro.persistence.save_index`.
        self.generation = 0

    # -- construction ---------------------------------------------------------

    def train_coarse(self, vectors: np.ndarray) -> "IVFADCIndex":
        """Learn the coarse quantizer from training vectors."""
        vq = VectorQuantizer(
            k=self.n_partitions, max_iter=self.coarse_max_iter, seed=self.seed
        )
        vq.fit(vectors)
        self._coarse = vq
        return self

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> "IVFADCIndex":
        """Encode and insert database vectors.

        If :meth:`train_coarse` was not called, the coarse quantizer is
        trained on ``vectors`` themselves. Re-adding replaces the content
        (the index is built once, as in the paper's experiments).
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if self._coarse is None:
            self.train_coarse(vectors)
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != len(vectors):
                raise ConfigurationError("ids and vectors length mismatch")
        labels = self.coarse.encode(vectors)
        to_encode = vectors
        if self.encode_residuals:
            to_encode = vectors - self.coarse.decode(labels)
        codes = self.pq.encode(to_encode)
        partitions = []
        for cell in range(self.n_partitions):
            mask = labels == cell
            partitions.append(Partition(codes[mask], ids[mask], partition_id=cell))
        self._partitions = partitions
        self._n_total = len(vectors)
        return self

    # -- accessors -------------------------------------------------------------

    @property
    def coarse(self) -> VectorQuantizer:
        """The coarse quantizer; raises before :meth:`train_coarse`."""
        if self._coarse is None:
            raise NotFittedError("coarse quantizer has not been trained")
        return self._coarse

    @property
    def partitions(self) -> list[Partition]:
        """All partitions, indexed by cell id."""
        if not self._partitions:
            raise NotFittedError("no vectors have been added to the index")
        return self._partitions

    def __len__(self) -> int:
        return self._n_total

    def partition_sizes(self) -> np.ndarray:
        """Number of vectors per partition (Table 3 of the paper)."""
        return np.array([len(p) for p in self.partitions], dtype=np.int64)

    # -- query-time steps (Algorithm 1, Steps 1-2) ------------------------------

    def route(self, query: np.ndarray, nprobe: int = 1) -> list[int]:
        """Step 1: ids of the ``nprobe`` most relevant partitions."""
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise ConfigurationError("route expects a single 1-D query")
        return [int(p) for p in self.route_batch(query[None, :], nprobe=nprobe)[0]]

    def route_batch(self, queries: np.ndarray, nprobe: int = 1) -> np.ndarray:
        """Step 1 for a whole batch: ``(b, nprobe)`` partition ids.

        One vectorized centroid-distance computation covers every query;
        each row is bit-identical to what :meth:`route` returns for that
        query alone (the distances are computed with per-row elementwise
        operations, so routing does not depend on the batch size).
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if nprobe < 1 or nprobe > self.n_partitions:
            raise ConfigurationError(
                f"nprobe must be in [1, {self.n_partitions}], got {nprobe}"
            )
        codebook = self.coarse.codebook
        x_sq = np.einsum("qd,qd->q", queries, queries)
        c_sq = np.einsum("id,id->i", codebook, codebook)
        cross = np.einsum("qd,id->qi", queries, codebook)
        dists = x_sq[:, None] + c_sq[None, :] - 2.0 * cross
        np.maximum(dists, 0.0, out=dists)
        order = np.argsort(dists, axis=1, kind="stable")[:, :nprobe]
        return order.astype(np.int64, copy=False)

    def distance_tables_for(self, query: np.ndarray, partition_id: int) -> np.ndarray:
        """Step 2: per-partition distance tables for ``query``.

        With residual encoding the query is shifted by the cell centroid
        before the tables are computed; the tables then apply to every
        code of that cell.
        """
        query = np.asarray(query, dtype=np.float64)
        return self.distance_tables_for_batch(query[None, :], partition_id)[0]

    def distance_tables_for_batch(
        self, queries: np.ndarray, partition_id: int
    ) -> np.ndarray:
        """Step 2 for all queries probing one partition, ``(b, m, k*)``.

        The residual shift and the table computation are shared across
        the batch; row ``i`` is bit-identical to
        ``distance_tables_for(queries[i], partition_id)``, which the
        batched execution engine relies on for exactness.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if self.encode_residuals:
            queries = queries - self.coarse.codebook[partition_id]
        return self.pq.distance_tables_batch(queries)
