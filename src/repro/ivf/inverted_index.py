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

import operator

import numpy as np

from ..exceptions import ConfigurationError, DimensionMismatchError, NotFittedError
from ..pq.product_quantizer import ProductQuantizer
from ..pq.quantizer import VectorQuantizer
from ..scan.topk import select_topk_rows
from .partition import Partition

__all__ = ["IVFADCIndex", "as_database_ids"]


def as_database_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` as a flat int64 array, refusing anything not an integer.

    Ids come from outside the library; a cast would turn ``1.5`` into
    id 1, ``"7"`` into 7 and ``True`` into 1, so a write meant for one
    row would silently land on another. An empty array of any dtype is
    the empty id list.
    """
    ids = np.asarray(ids).reshape(-1)
    if len(ids) and not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            f"database ids must be integers, got dtype {ids.dtype}"
        )
    return ids.astype(np.int64, copy=False)


def as_count(value: int, what: str) -> int:
    """``value`` as an ``int``; ``2.5`` is refused, not truncated to 2."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{what} must be an integer, got {value!r}"
        ) from None


def checked_nprobe(nprobe: int, n_partitions: int) -> int:
    """``nprobe`` as an ``int`` in ``[1, n_partitions]``, else
    :class:`ConfigurationError`."""
    nprobe = as_count(nprobe, "nprobe")
    if not 1 <= nprobe <= n_partitions:
        raise ConfigurationError(
            f"nprobe must be in [1, {n_partitions}], got {nprobe}"
        )
    return nprobe


def _require_finite(vectors: np.ndarray, what: str) -> None:
    if not np.isfinite(vectors).all():
        raise ConfigurationError(
            f"{what} must be finite (NaN or inf in the input)"
        )


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
        # (pq norms, coarse, array): Step 2's cell half and what it was built from.
        self._cell_half: tuple[np.ndarray, VectorQuantizer, np.ndarray] | None = None
        #: Compaction counter. 0 for a freshly built index; each
        #: compaction folds the delta into a new index at generation+1.
        #: Persisted by :func:`repro.persistence.save_index`.
        self.generation = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        pq: ProductQuantizer,
        coarse: VectorQuantizer,
        partitions: list[Partition],
        *,
        encode_residuals: bool = True,
        coarse_max_iter: int = 20,
        seed: int = 0,
        generation: int = 0,
    ) -> "IVFADCIndex":
        """An index around quantizers and partitions that already exist.

        What loading, sharding and compaction do: nothing is trained or
        encoded, ``partitions[p]`` becomes cell ``p`` as is (no copy).
        """
        index = cls(
            pq,
            n_partitions=len(partitions),
            encode_residuals=encode_residuals,
            coarse_max_iter=coarse_max_iter,
            seed=seed,
        )
        index._coarse = coarse
        index._partitions = list(partitions)
        index._n_total = sum(len(part) for part in partitions)
        index.generation = generation
        return index

    def with_partitions(
        self, partitions: list[Partition], *, generation: int | None = None
    ) -> "IVFADCIndex":
        """This index's quantizers and settings over other partitions,
        and its :attr:`cell_half` (built here at the latest): compaction
        epochs, an index's shards and their global view hold one array."""
        index = IVFADCIndex.from_parts(
            self.pq,
            self.coarse,
            partitions,
            encode_residuals=self.encode_residuals,
            coarse_max_iter=self.coarse_max_iter,
            seed=self.seed,
            generation=self.generation if generation is None else generation,
        )
        index._cell_half = (self.pq.centroid_sq_norms, self.coarse, self.cell_half)
        return index

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
        (the index is built once, as in the paper's experiments). Ids
        must be unique, as in :meth:`repro.engine.Engine.add`.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        else:
            ids = as_database_ids(ids)
            if len(ids) != len(vectors):
                raise ConfigurationError("ids and vectors length mismatch")
            if len(np.unique(ids)) != len(ids):
                raise ConfigurationError("database ids must be unique")
        if self._coarse is None:
            self.train_coarse(vectors)
        labels, codes = self.encode(vectors)
        partitions = []
        for cell in range(self.n_partitions):
            mask = labels == cell
            partitions.append(Partition(codes[mask], ids[mask], partition_id=cell))
        self._partitions = partitions
        self._n_total = len(vectors)
        return self

    def encode(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Route and PQ-encode ``(n, d)`` vectors: ``(labels, codes)``.

        The one place a database row becomes a code (coarse assign,
        residual shift, ``pq.encode``): the build and the write path
        (:meth:`repro.engine.Engine.add`) both end here, so the overlay
        and the base hold the same codes for the same row.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ConfigurationError("encode expects a 2-D vector batch")
        _require_finite(vectors, "database vectors")
        labels = self.coarse.encode(vectors)
        if self.encode_residuals:
            vectors = vectors - self.coarse.decode(labels)
        return labels, self.pq.encode(vectors)

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
        operations, so routing does not depend on the batch size). A row
        is the first ``nprobe`` cells of its stable ``argsort``, selected
        by :func:`~repro.scan.select_topk_rows` with the cell id as the
        tie-break instead of sorting all ``n_partitions`` distances.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        nprobe = checked_nprobe(nprobe, self.n_partitions)
        # Every query path routes through here, before anything is
        # scattered: a query of another width or with a NaN has no
        # nearest cell and no top-k.
        if queries.shape[-1] != self.pq.d:
            raise DimensionMismatchError(self.pq.d, queries.shape[-1], "query")
        _require_finite(queries, "queries")
        codebook = self.coarse.codebook
        x_sq = np.einsum("qd,qd->q", queries, queries)
        c_sq = np.einsum("id,id->i", codebook, codebook)
        cross = np.einsum("qd,id->qi", queries, codebook)
        dists = x_sq[:, None] + c_sq[None, :] - 2.0 * cross
        np.maximum(dists, 0.0, out=dists)
        cells = np.arange(self.n_partitions, dtype=np.int64)
        return select_topk_rows(dists, cells, nprobe)[0]

    def distance_tables_for(self, query: np.ndarray, partition_id: int) -> np.ndarray:
        """Step 2: per-partition distance tables for ``query``, ``(m, k*)``.

        With residual encoding the tables are those of the query shifted
        by the cell centroid; they apply to every code of that cell.
        """
        query = np.asarray(query, dtype=np.float64)
        return self.distance_tables_for_batch(query[None, :], partition_id)[0]

    def distance_tables_for_batch(
        self, queries: np.ndarray, partition_id: int
    ) -> np.ndarray:
        """Step 2 for all queries probing one partition, ``(b, m, k*)``.

        Both halves for these rows alone; row ``i`` is bit-identical to
        ``distance_tables_for(queries[i], partition_id)`` and to the row
        an executor combines out of a whole batch's :meth:`query_half`.
        """
        return self.tables_from_halves(
            queries, self.query_half(queries), None, partition_id
        )

    def query_half(self, queries: np.ndarray) -> np.ndarray:
        """Step 2's per-query half, ``2<x_j, C_ji>``, ``(b, m, k*)``.

        Every multiplication Step 2 does, and the same for each cell a
        query probes: an executor builds it once per batch. Row-stable
        (:meth:`ProductQuantizer.cross_tables_batch`).
        """
        return self.pq.cross_tables_batch(queries)

    @property
    def cell_half(self) -> np.ndarray:
        """Step 2's per-cell half, ``||C_ji||^2 + 2<c_pj, C_ji>``.

        ``(n_partitions, m, k*)`` float64, 2 MiB for 128 cells at 8x8
        (without residual encoding ``||C_ji||^2`` for every cell, one
        ``(m, k*)`` array). Derived, never saved: built on first use and
        again when the product or the coarse quantizer has changed.
        """
        norms, coarse = self.pq.centroid_sq_norms, self.coarse
        cached = self._cell_half
        if cached is None or cached[0] is not norms or cached[1] is not coarse:
            if self.encode_residuals:
                cells = self.pq.cross_tables_batch(coarse.codebook)
                cells += norms
            else:
                cells = np.broadcast_to(norms, (self.n_partitions, *norms.shape))
            cached = self._cell_half = (norms, coarse, cells)
        return cached[2]

    def tables_from_halves(
        self,
        queries: np.ndarray,
        query_half: np.ndarray,
        rows: np.ndarray | None,
        partition_id: "int | np.ndarray",
    ) -> np.ndarray:
        """Step 2's combine, where every table the library scans is made.

        ``||(x_j - c_pj) - C_ji||^2`` as ``max(||x_j - c_pj||^2 +
        cell_half[p] - query_half, 0)`` for ``rows`` (None: all) of
        ``queries`` and of their :meth:`query_half`: two adds per entry.
        ``partition_id`` is one cell for every row, or one per row: a
        run of jobs over several cells is one call, each row's table
        bit-identical to its own cell's.
        """
        cells = np.asarray(partition_id)
        if cells.size and not 0 <= cells.min() <= cells.max() < self.n_partitions:
            raise ConfigurationError(
                f"partition_id must be in [0, {self.n_partitions}), got "
                f"{partition_id}"
            )
        if rows is not None:
            queries, query_half = queries[rows], query_half[rows]
        # C-contiguous for the reason distance_tables_batch gives.
        shifted = np.ascontiguousarray(queries, dtype=np.float64)
        if self.encode_residuals:
            shifted = shifted - self.coarse.codebook[cells]
        subs = shifted.reshape(len(shifted), self.pq.m, self.pq.dsub)
        r_sq = np.einsum("qjd,qjd->qj", subs, subs)[:, :, None]
        if cells.ndim:  # the gathered cell halves are the table's one block
            tables = self.cell_half.take(cells, axis=0)
            tables += r_sq
        else:
            tables = r_sq + self.cell_half[cells]
        tables -= query_half
        return np.maximum(tables, 0.0, out=tables)
