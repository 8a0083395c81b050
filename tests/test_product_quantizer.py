"""Unit tests for VectorQuantizer and ProductQuantizer."""

import numpy as np
import pytest

from repro import ProductQuantizer, VectorQuantizer
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    NotFittedError,
)
from repro.pq.product_quantizer import code_dtype_for_bits


class TestVectorQuantizer:
    def test_encode_decode_roundtrip_on_centroids(self, rng):
        vq = VectorQuantizer(k=8, seed=0).fit(rng.normal(size=(200, 4)))
        codes = vq.encode(vq.codebook)
        np.testing.assert_array_equal(codes, np.arange(8))

    def test_quantize_returns_nearest_centroid(self, rng):
        vq = VectorQuantizer(k=8, seed=0).fit(rng.normal(size=(200, 4)))
        x = rng.normal(size=(10, 4))
        q = vq.quantize(x)
        for xi, qi in zip(x, q):
            d_chosen = np.sum((xi - qi) ** 2)
            d_all = np.sum((xi - vq.codebook) ** 2, axis=1)
            assert d_chosen <= d_all.min() + 1e-9

    def test_distances_to_codebook(self, rng):
        vq = VectorQuantizer(k=5, seed=0).fit(rng.normal(size=(100, 3)))
        x = rng.normal(size=3)
        d = vq.distances_to_codebook(x)
        expected = np.sum((vq.codebook - x) ** 2, axis=1)
        np.testing.assert_allclose(d, expected, rtol=1e-9)

    def test_permute_preserves_quantization(self, rng):
        vq = VectorQuantizer(k=8, seed=0).fit(rng.normal(size=(100, 4)))
        order = np.array([3, 1, 4, 0, 7, 6, 5, 2])
        permuted = vq.permute(order)
        x = rng.normal(size=(20, 4))
        np.testing.assert_allclose(vq.quantize(x), permuted.quantize(x))

    def test_dimension_mismatch(self, rng):
        vq = VectorQuantizer(k=4, seed=0).fit(rng.normal(size=(50, 4)))
        with pytest.raises(DimensionMismatchError):
            vq.encode(rng.normal(size=(3, 7)))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            _ = VectorQuantizer(k=4).codebook


class TestCodeDtype:
    def test_byte_codes(self):
        assert code_dtype_for_bits(8) == np.uint8
        assert code_dtype_for_bits(4) == np.uint8

    def test_wide_codes(self):
        assert code_dtype_for_bits(16) == np.uint16

    def test_too_wide_rejected(self):
        with pytest.raises(ConfigurationError):
            code_dtype_for_bits(17)


class TestProductQuantizer:
    def test_config_name(self):
        assert ProductQuantizer(m=8, bits=8).config_name() == "PQ 8x8"
        assert ProductQuantizer(m=16, bits=4).config_name() == "PQ 16x4"

    def test_codes_shape_and_dtype(self, pq, dataset):
        codes = pq.encode(dataset.base[:100])
        assert codes.shape == (100, 8)
        assert codes.dtype == np.uint8

    def test_total_bits(self, pq):
        assert pq.total_bits == 64

    def test_decode_reconstructs_centroids(self, pq, dataset):
        codes = pq.encode(dataset.base[:50])
        recon = pq.decode(codes)
        assert recon.shape == (50, 128)
        # Re-encoding a reconstruction must be a fixed point.
        np.testing.assert_array_equal(pq.encode(recon), codes)

    def test_distance_tables_shape(self, pq, query):
        tables = pq.distance_tables(query)
        assert tables.shape == (8, 256)
        assert (tables >= 0).all()

    def test_distance_tables_entries(self, pq, query):
        """D[j, i] equals the squared distance to centroid i (Eq. 2)."""
        tables = pq.distance_tables(query)
        j = 3
        sub = query[j * 16 : (j + 1) * 16]
        expected = np.sum((pq.subquantizers[j].codebook - sub) ** 2, axis=1)
        np.testing.assert_allclose(tables[j], expected, rtol=1e-9)

    @staticmethod
    def tables_per_subquantizer(pq, queries):
        """Distance tables one sub-quantizer at a time: the reference
        the stacked computation must reproduce bit for bit. The cross
        term sums over d* with the centroids innermost, the order of
        the stacked ``einsum("qjd,jdi->qji")``."""
        tables = np.empty((len(queries), pq.m, pq.ksub))
        for j, sq in enumerate(pq.subquantizers):
            sub = np.ascontiguousarray(queries[:, j * pq.dsub : (j + 1) * pq.dsub])
            x_sq = np.einsum("qd,qd->q", sub, sub)
            c_sq = np.einsum("id,id->i", sq.codebook, sq.codebook)
            cross = np.einsum("qd,di->qi", sub, np.ascontiguousarray(sq.codebook.T))
            block = x_sq[:, None] + c_sq[None, :] - 2.0 * cross
            np.maximum(block, 0.0, out=block)
            tables[:, j, :] = block
        return tables

    @pytest.mark.parametrize(
        "m, bits, dsub",
        [(16, 4, 8), (8, 8, 16), (5, 4, 7), (3, 8, 1),
         (8, 8, 4), (4, 8, 32), (16, 4, 2), (2, 8, 64)],
    )
    @pytest.mark.parametrize("b", [1, 2, 3, 5, 16, 33, 128])
    def test_batch_tables_bit_identical_to_per_subquantizer_loop(
        self, rng, m, bits, dsub, b
    ):
        pq = ProductQuantizer.from_codebooks(rng.normal(size=(m, 1 << bits, dsub)) * 40)
        queries = rng.normal(size=(b, m * dsub)) * 40
        expected = self.tables_per_subquantizer(pq, queries)
        assert pq.distance_tables_batch(queries).tobytes() == expected.tobytes()
        for i in (0, b - 1):
            assert pq.distance_tables(queries[i]).tobytes() == expected[i].tobytes()
        # A row's bits do not depend on which block it is computed in:
        # a sliced block and a gathered one (what a partition job is).
        sliced = slice(b // 3, b // 3 + max(b // 2, 1))
        gathered = rng.permutation(b)[: max(b // 2, 1)]
        for rows in (sliced, gathered):
            assert (
                pq.distance_tables_batch(queries[rows]).tobytes()
                == expected[rows].tobytes()
            )

    @pytest.mark.parametrize("m, bits, dsub", [(8, 8, 16), (16, 4, 8), (5, 4, 7)])
    def test_tables_do_not_depend_on_the_callers_memory_layout(
        self, rng, m, bits, dsub
    ):
        """einsum picks its reduction kernel from the strides it is
        given; the block is made C-contiguous at the entry, so C-ordered,
        Fortran-ordered and column-strided queries give the same bytes."""
        pq = ProductQuantizer.from_codebooks(rng.normal(size=(m, 1 << bits, dsub)) * 40)
        wide = rng.normal(size=(9, 2 * m * dsub)) * 40
        queries = np.ascontiguousarray(wide[:, ::2])
        expected = pq.distance_tables_batch(queries).tobytes()
        assert pq.distance_tables_batch(np.asfortranarray(queries)).tobytes() == expected
        assert pq.distance_tables_batch(wide[:, ::2]).tobytes() == expected
        for i, row in enumerate(np.asfortranarray(queries)):
            assert pq.distance_tables(row).tobytes() == (
                pq.distance_tables(queries[i]).tobytes()
            )

    def test_tables_follow_a_permuted_subquantizer(self, rng):
        pq = ProductQuantizer.from_codebooks(rng.normal(size=(4, 16, 2)))
        queries = rng.normal(size=(3, 8))
        before = pq.distance_tables_batch(queries)
        order = rng.permutation(16)
        pq.permute_subquantizer(2, order)
        after = pq.distance_tables_batch(queries)
        assert after[:, 2].tobytes() == before[:, 2][:, order].tobytes()
        assert after.tobytes() == self.tables_per_subquantizer(pq, queries).tobytes()

    @pytest.mark.parametrize("m, bits, dsub", [(8, 8, 16), (16, 4, 8), (5, 4, 7)])
    @pytest.mark.parametrize("b", [1, 2, 5, 33, 128])
    def test_cross_term_rows_do_not_depend_on_block_or_layout(
        self, rng, m, bits, dsub, b
    ):
        """What lets an index build ``2<x_j, C_ji>`` once for a batch and
        gather a partition job's rows out of it."""
        pq = ProductQuantizer.from_codebooks(rng.normal(size=(m, 1 << bits, dsub)) * 40)
        queries = rng.normal(size=(128, m * dsub)) * 40
        whole = pq.cross_tables_batch(queries)
        assert whole.shape == (128, m, 1 << bits) and whole.flags.c_contiguous
        by_hand = 2.0 * np.einsum(
            "qjd,jid->qji", queries.reshape(128, m, dsub), pq.codebooks
        )
        np.testing.assert_allclose(whole, by_hand, rtol=1e-12, atol=1e-9)
        rows = rng.permutation(128)[:b]
        expected = whole[rows].tobytes()
        wide = np.repeat(queries, 2, axis=1)
        for block in (
            queries[rows],
            np.asfortranarray(queries)[rows],
            wide[:, ::2][rows],
            np.asfortranarray(queries[rows]),
        ):
            assert pq.cross_tables_batch(block).tobytes() == expected
        narrow = queries.astype(np.float32)
        assert (
            pq.cross_tables_batch(narrow[rows]).tobytes()
            == pq.cross_tables_batch(narrow.astype(np.float64))[rows].tobytes()
        )
        with pytest.raises(DimensionMismatchError, match=f"expected {m * dsub}"):
            pq.cross_tables_batch(queries[:, 1:])

    def test_centroid_norms_are_new_when_the_codebooks_are(self, rng):
        pq = ProductQuantizer.from_codebooks(rng.normal(size=(4, 16, 2)))
        norms = pq.centroid_sq_norms
        assert pq.centroid_sq_norms is norms
        np.testing.assert_allclose(norms, (pq.codebooks**2).sum(axis=2))
        order = rng.permutation(16)
        pq.permute_subquantizer(3, order)
        assert pq.centroid_sq_norms is not norms
        assert pq.centroid_sq_norms[3].tobytes() == norms[3][order].tobytes()
        with pytest.raises(NotFittedError):
            ProductQuantizer().centroid_sq_norms

    def test_quantization_error_positive_and_reasonable(self, pq, dataset):
        err = pq.quantization_error(dataset.base[:200])
        norms = np.mean(np.sum(dataset.base[:200] ** 2, axis=1))
        assert 0 < err < norms  # far better than quantizing to zero

    def test_more_subquantizer_bits_reduce_error(self, dataset):
        coarse = ProductQuantizer(m=4, bits=4, max_iter=4, seed=0)
        fine = ProductQuantizer(m=4, bits=8, max_iter=4, seed=0)
        coarse.fit(dataset.learn)
        fine.fit(dataset.learn)
        sample = dataset.base[:300]
        assert fine.quantization_error(sample) < coarse.quantization_error(sample)

    def test_from_codebooks_matches_original(self, pq, dataset):
        clone = ProductQuantizer.from_codebooks(pq.codebooks)
        sample = dataset.base[:20]
        np.testing.assert_array_equal(clone.encode(sample), pq.encode(sample))

    def test_permute_subquantizer_preserves_decode_set(self, dataset):
        pq2 = ProductQuantizer(m=8, bits=8, max_iter=3, seed=5).fit(dataset.learn)
        before = pq2.quantization_error(dataset.base[:100])
        order = np.random.default_rng(0).permutation(256)
        pq2.permute_subquantizer(0, order)
        after = pq2.quantization_error(dataset.base[:100])
        assert after == pytest.approx(before, rel=1e-12)

    def test_fit_and_encode_bytes_pinned(self):
        """The build path's output for one seed, as digests: a change to
        k-means, seeding or encode that moves a bit has to say so here.
        Integer-valued vectors (SIFT is) keep every product of the
        seeding and of the first assign exact, so the digests do not
        depend on the BLAS build; the row count is not a multiple of the
        assign block."""
        import hashlib

        rng = np.random.default_rng(2015)
        vectors = rng.integers(0, 256, size=(3 * 1024 + 7, 128)).astype(np.float64)
        pq = ProductQuantizer(m=8, bits=8, max_iter=5, seed=3).fit(vectors)
        codes = pq.encode(vectors)
        assert codes.dtype == np.uint8 and codes.shape == (3079, 8)
        assert hashlib.sha256(pq.codebooks.tobytes()).hexdigest() == (
            "eae710808be4aa5d141809021898a2d15cb2cda2e8dd2922087d7bc55d12be83"
        )
        assert hashlib.sha256(codes.tobytes()).hexdigest() == (
            "744809d43553246a0a94f031538b33d923512082334ed53c694c96aaa0a58ba0"
        )

    def test_rejects_indivisible_dimension(self, rng):
        pq2 = ProductQuantizer(m=3, bits=2)
        with pytest.raises(ConfigurationError):
            pq2.fit(rng.normal(size=(100, 8)))

    def test_rejects_too_few_training_vectors(self, rng):
        with pytest.raises(ConfigurationError):
            ProductQuantizer(m=2, bits=8).fit(rng.normal(size=(100, 8)))

    def test_encode_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ProductQuantizer().encode(np.zeros((1, 128)))

    def test_decode_rejects_wrong_width(self, pq):
        with pytest.raises(DimensionMismatchError):
            pq.decode(np.zeros((5, 7), dtype=np.uint8))
