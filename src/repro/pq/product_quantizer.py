"""Product quantizer: compact codes for high-dimensional vectors.

Implements Section 2.1 of the paper. A ``PQ m×b`` product quantizer splits
a d-dimensional vector into ``m`` sub-vectors of ``d* = d/m`` dimensions
and quantizes each with an independent sub-quantizer of ``k* = 2**b``
centroids, yielding ``(2**b)**m`` effective centroids. Database vectors
are stored as *pqcodes*: ``m`` indexes of ``b`` bits each.

The paper focuses on PQ 8×8 (m=8, k*=256, 64-bit codes), which is the
default here, but any configuration with ``k* <= 2**16`` is supported
(PQ 16×4 and PQ 4×16 appear in Table 1).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, DimensionMismatchError, NotFittedError
from .quantizer import VectorQuantizer

__all__ = ["ProductQuantizer", "code_dtype_for_bits"]


def code_dtype_for_bits(bits: int) -> np.dtype:
    """Smallest unsigned integer dtype holding a ``bits``-bit index."""
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    raise ConfigurationError(f"sub-quantizers above 16 bits unsupported: {bits}")


class ProductQuantizer:
    """``PQ m×b`` product quantizer (Section 2.1).

    Args:
        m: number of sub-quantizers (sub-vectors).
        bits: bits per sub-quantizer index; the codebook size per
            sub-quantizer is ``k* = 2**bits``.
        max_iter: k-means iterations for each sub-quantizer.
        seed: RNG base seed; sub-quantizer ``j`` trains with ``seed + j``.

    After :meth:`fit`, :meth:`encode` produces ``(n, m)`` uint8/uint16
    pqcodes and :meth:`distance_tables` produces the per-query lookup
    tables of Equation (2).
    """

    def __init__(self, m: int = 8, bits: int = 8, max_iter: int = 25, seed: int = 0):
        if m < 1:
            raise ConfigurationError(f"m must be >= 1, got {m}")
        if bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {bits}")
        self.m = m
        self.bits = bits
        self.ksub = 1 << bits
        self.max_iter = max_iter
        self.seed = seed
        self.code_dtype = code_dtype_for_bits(bits)
        self._subquantizers: list[VectorQuantizer] | None = None
        self._d: int | None = None
        # (m, d*, k*) codebooks (centroids contiguous, the axis the table
        # einsum's inner loop runs over) and their (m, k*) squared norms,
        # stacked whenever the sub-quantizers change (see _restack).
        self._stacked: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction --------------------------------------------------------

    def fit(self, vectors: np.ndarray) -> "ProductQuantizer":
        """Learn the ``m`` sub-quantizer codebooks from training vectors."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ConfigurationError("fit expects a 2-D array of vectors")
        n, d = vectors.shape
        if d % self.m != 0:
            raise ConfigurationError(
                f"dimensionality {d} is not a multiple of m={self.m}"
            )
        if n < self.ksub:
            raise ConfigurationError(
                f"need at least k*={self.ksub} training vectors, got {n}"
            )
        dsub = d // self.m
        subs = []
        for j in range(self.m):
            sub = VectorQuantizer(
                k=self.ksub, max_iter=self.max_iter, seed=self.seed + j
            )
            sub.fit(vectors[:, j * dsub : (j + 1) * dsub])
            subs.append(sub)
        self._subquantizers = subs
        self._d = d
        self._restack()
        return self

    @classmethod
    def from_codebooks(cls, codebooks: np.ndarray) -> "ProductQuantizer":
        """Build from a pre-computed ``(m, k*, d*)`` codebook array."""
        codebooks = np.asarray(codebooks, dtype=np.float64)
        if codebooks.ndim != 3:
            raise ConfigurationError("from_codebooks expects a (m, k*, d*) array")
        m, ksub, dsub = codebooks.shape
        bits = int(ksub).bit_length() - 1
        if (1 << bits) != ksub:
            raise ConfigurationError(f"k*={ksub} is not a power of two")
        pq = cls(m=m, bits=bits)
        pq._subquantizers = [
            VectorQuantizer.from_codebook(codebooks[j]) for j in range(m)
        ]
        pq._d = m * dsub
        pq._restack()
        return pq

    def _restack(self) -> None:
        """Stack what every distance-table computation reads."""
        codebooks = self.codebooks
        self._stacked = (
            np.ascontiguousarray(codebooks.transpose(0, 2, 1)),
            np.einsum("jid,jid->ji", codebooks, codebooks),
        )

    # -- accessors -----------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._subquantizers is not None

    @property
    def subquantizers(self) -> list[VectorQuantizer]:
        if self._subquantizers is None:
            raise NotFittedError("ProductQuantizer.fit has not been called")
        return self._subquantizers

    @property
    def d(self) -> int:
        """Input dimensionality."""
        if self._d is None:
            raise NotFittedError("ProductQuantizer.fit has not been called")
        return self._d

    @property
    def dsub(self) -> int:
        """Dimensionality of each sub-vector, ``d* = d/m``."""
        return self.d // self.m

    @property
    def codebooks(self) -> np.ndarray:
        """All sub-codebooks stacked as a ``(m, k*, d*)`` array."""
        return np.stack([sq.codebook for sq in self.subquantizers])

    @property
    def n_subquantizers(self) -> int:
        """Alias of :attr:`m`: sub-quantizers (components) per code."""
        return self.m

    @property
    def total_bits(self) -> int:
        """Bits per pqcode, ``m * log2(k*)`` (64 for PQ 8×8)."""
        return self.m * self.bits

    def config_name(self) -> str:
        """Paper-style configuration name, e.g. ``'PQ 8x8'``."""
        return f"PQ {self.m}x{self.bits}"

    # -- encoding ------------------------------------------------------------

    def split(self, vectors: np.ndarray) -> np.ndarray:
        """Reshape ``(n, d)`` vectors into ``(n, m, d*)`` sub-vectors."""
        vectors = self._check(vectors)
        return vectors.reshape(vectors.shape[0], self.m, self.dsub)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode vectors into ``(n, m)`` pqcodes."""
        parts = self.split(vectors)
        codes = np.empty((parts.shape[0], self.m), dtype=self.code_dtype)
        for j, sq in enumerate(self.subquantizers):
            codes[:, j] = sq.encode(parts[:, j, :])
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct (approximate) vectors from pqcodes."""
        codes = np.asarray(codes)
        if codes.ndim == 1:
            codes = codes[None, :]
        if codes.shape[1] != self.m:
            raise DimensionMismatchError(self.m, codes.shape[1], what="code")
        out = np.empty((codes.shape[0], self.d), dtype=np.float64)
        for j, sq in enumerate(self.subquantizers):
            out[:, j * self.dsub : (j + 1) * self.dsub] = sq.decode(codes[:, j])
        return out

    # -- distances -----------------------------------------------------------

    def distance_tables(self, query: np.ndarray) -> np.ndarray:
        """Per-query lookup tables ``D`` of Equation (2), shape ``(m, k*)``.

        ``D[j, i]`` is the squared distance between the j-th sub-vector of
        ``query`` and centroid ``i`` of sub-quantizer ``j``.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self.d:
            raise DimensionMismatchError(self.d, query.shape[-1], what="query")
        return self.distance_tables_batch(query[None, :])[0]

    def distance_tables_batch(self, queries: np.ndarray) -> np.ndarray:
        """Distance tables for a whole query batch, shape ``(b, m, k*)``.

        Row ``i`` is bit-identical to ``distance_tables(queries[i])``:
        every term is computed with per-row elementwise operations and
        einsum reductions whose summation order depends only on the row
        itself, never on the batch size. (A BLAS matmul would not give
        that guarantee — gemm and gemv may reduce in different orders —
        and the batched execution engine relies on mixing per-query and
        batched table computation freely without perturbing ADC
        distances.) Nor on the caller's memory layout: einsum picks its
        reduction kernel from the operands' strides, so the block is made
        C-contiguous first.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        # |x|^2 + |c|^2 - 2<x, c>, finished in the cross-term's buffer.
        tables = self.cross_tables_batch(queries)
        subs = queries.reshape(len(queries), self.m, self.dsub)
        x_sq = np.einsum("qjd,qjd->qj", subs, subs)
        c_sq = self.centroid_sq_norms
        np.subtract(x_sq[:, :, None] + c_sq[None, :, :], tables, out=tables)
        return np.maximum(tables, 0.0, out=tables)

    def cross_tables_batch(self, queries: np.ndarray) -> np.ndarray:
        """The cross term ``2<x_j, C_ji>`` of every table, ``(b, m, k*)``.

        All of Equation (2) that multiplies a query by the codebooks
        (what :meth:`repro.ivf.IVFADCIndex.query_half` is), row-stable
        like :meth:`distance_tables_batch`, which ends here. The inner
        loop runs over the ``k*`` contiguous centroids (one multiply-add
        per ``d*``), not over the ``d*``-long dot product of each: half
        the time at 8x8, d* = 16.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.d:
            raise DimensionMismatchError(
                self.d, queries.shape[-1] if queries.ndim else 0, what="query"
            )
        subs = queries.reshape(len(queries), self.m, self.dsub)
        tables = np.einsum("qjd,jdi->qji", subs, self._require_stacked()[0])
        tables *= 2.0
        return tables

    @property
    def centroid_sq_norms(self) -> np.ndarray:
        """``||C_ji||^2``, ``(m, k*)``; a new array whenever the
        sub-quantizers change (:meth:`permute_subquantizer`)."""
        return self._require_stacked()[1]

    def _require_stacked(self) -> tuple[np.ndarray, np.ndarray]:
        if self._stacked is None:
            raise NotFittedError("ProductQuantizer.fit has not been called")
        return self._stacked

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error over ``vectors``."""
        vectors = self._check(vectors)
        recon = self.decode(self.encode(vectors))
        return float(np.mean(np.sum((vectors - recon) ** 2, axis=1)))

    def permute_subquantizer(self, j: int, order: np.ndarray) -> None:
        """Reorder the codebook of sub-quantizer ``j`` in place.

        ``order[new_index] = old_index``. Centroid *indexes* change but the
        set of centroids does not, so quantization error is untouched.
        Existing pqcodes must be re-encoded (or remapped with the inverse
        permutation) after calling this. Used by the optimized assignment
        of Section 4.3.
        """
        self.subquantizers[j] = self.subquantizers[j].permute(order)
        self._restack()

    def _check(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.shape[1] != self.d:
            raise DimensionMismatchError(self.d, vectors.shape[1])
        return vectors
