"""Tests for model/index persistence."""

import hashlib
import mmap
import os
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import (
    NaiveScanner,
    load_index,
    load_quantizer,
    save_index,
    save_quantizer,
)
from repro.exceptions import DatasetError
from repro.obs import observability_session

from .oracle import holds_oracle_distances, oracle_search, same_as_oracle

pytestmark = pytest.mark.usefixtures("no_process_left")


def _assert_same_answers(a, b):
    """ids, distances and scan statistics, byte for byte."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.ids.tobytes() == rb.ids.tobytes()
        assert ra.distances.tobytes() == rb.distances.tobytes()
        assert (ra.n_scanned, ra.n_pruned, ra.probed) == (
            rb.n_scanned, rb.n_pruned, rb.probed
        )


class TestQuantizerPersistence:
    def test_roundtrip_bit_exact(self, pq, dataset, tmp_path):
        path = tmp_path / "pq.npz"
        save_quantizer(pq, path)
        loaded = load_quantizer(path)
        np.testing.assert_array_equal(loaded.codebooks, pq.codebooks)
        sample = dataset.base[:50]
        np.testing.assert_array_equal(loaded.encode(sample), pq.encode(sample))

    def test_distance_tables_identical(self, pq, query, tmp_path):
        path = tmp_path / "pq.npz"
        save_quantizer(pq, path)
        loaded = load_quantizer(path)
        np.testing.assert_array_equal(
            loaded.distance_tables(query), pq.distance_tables(query)
        )


class TestIndexPersistence:
    def test_roundtrip_answers_identically(
        self, index, dataset, tmp_path, engine_over
    ):
        path = tmp_path / "index.npz"
        save_index(index, path)
        restored = engine_over(load_index(path))
        assert same_as_oracle(
            [restored.search(query, k=10, nprobe=2) for query in dataset.queries[:3]],
            oracle_search(index, dataset.queries[:3], 10, 2),
        )

    def test_partition_contents_preserved(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == len(index)
        for a, b in zip(index.partitions, loaded.partitions):
            np.testing.assert_array_equal(a.codes, b.codes)
            np.testing.assert_array_equal(a.ids, b.ids)

    def test_residual_flag_preserved(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        assert load_index(path).encode_residuals == index.encode_residuals


class TestFormatValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_quantizer(tmp_path / "nope.npz")

    def test_wrong_kind_rejected(self, pq, tmp_path):
        path = tmp_path / "pq.npz"
        save_quantizer(pq, path)
        with pytest.raises(DatasetError):
            load_index(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(DatasetError):
            load_quantizer(path)


class TestArchiveHandleHygiene:
    """Regression: ``np.load`` archives must not outlive ``load_*``."""

    @staticmethod
    def _spy_np_load(monkeypatch):
        opened = []
        real_load = np.load

        def spying_load(*args, **kwargs):
            archive = real_load(*args, **kwargs)
            opened.append(archive)
            return archive

        monkeypatch.setattr(np, "load", spying_load)
        return opened

    def test_load_index_closes_archive(self, index, tmp_path, monkeypatch):
        path = tmp_path / "index.npz"
        save_index(index, path)
        opened = self._spy_np_load(monkeypatch)
        load_index(path)
        assert opened, "load_index never called np.load"
        # NpzFile.zip is set to None by close(); a leaked handle keeps it.
        assert all(archive.zip is None for archive in opened)

    def test_load_quantizer_closes_archive(self, pq, tmp_path, monkeypatch):
        path = tmp_path / "pq.npz"
        save_quantizer(pq, path)
        opened = self._spy_np_load(monkeypatch)
        load_quantizer(path)
        assert opened and all(archive.zip is None for archive in opened)

    def test_loaded_arrays_usable_after_close(self, index, tmp_path):
        # Arrays must be materialized, not lazy views into a closed zip.
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        for part in loaded.partitions:
            assert part.codes.sum() >= 0
            assert part.ids.sum() >= 0


class TestAtomicWrites:
    """Regression: a crash mid-save must never clobber the target path."""

    def test_crash_mid_write_preserves_previous(
        self, index, tmp_path, monkeypatch
    ):
        path = tmp_path / "index.npz"
        save_index(index, path)
        good_bytes = path.read_bytes()

        def crashing_savez(handle, **payload):
            handle.write(b"partial garbage")
            raise RuntimeError("simulated crash mid-serialization")

        # Index artifacts are saved uncompressed (stored members are what
        # makes mmap loading possible), so the serializer is np.savez.
        monkeypatch.setattr(np, "savez", crashing_savez)
        with pytest.raises(RuntimeError):
            save_index(index, path)
        assert path.read_bytes() == good_bytes
        loaded = load_index(path)
        assert len(loaded) == len(index)

    def test_crash_leaves_no_temp_files(self, index, tmp_path, monkeypatch):
        path = tmp_path / "index.npz"

        def crashing_savez(handle, **payload):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(np, "savez", crashing_savez)
        with pytest.raises(RuntimeError):
            save_index(index, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_creates_missing_directories(self, index, tmp_path):
        # At the parent: a FileNotFoundError naming the temporary file.
        path = tmp_path / "a" / "b" / "index.npz"
        save_index(index, path)
        assert [p.name for p in path.parent.iterdir()] == ["index.npz"]
        assert len(load_index(path)) == len(index)

    def test_successful_save_leaves_only_target(self, pq, tmp_path):
        path = tmp_path / "pq.npz"
        save_quantizer(pq, path)
        assert [p.name for p in tmp_path.iterdir()] == ["pq.npz"]

    def test_truncated_archive_raises_dataset_error(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        # DatasetError, not a leaked zipfile.BadZipFile.
        with pytest.raises(DatasetError, match="corrupt or truncated"):
            load_index(path)

    def test_garbage_bytes_raise_dataset_error(self, tmp_path):
        path = tmp_path / "index.npz"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(DatasetError):
            load_index(path)

    def test_zipfile_internals_never_leak(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:40])
        try:
            load_index(path)
        except zipfile.BadZipFile:  # pragma: no cover - the old bug
            pytest.fail("zipfile.BadZipFile leaked out of load_index")
        except DatasetError:
            pass


def _tamper(path, **overrides):
    """Rewrite the archive with some members replaced (hand-edit sim)."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    payload.update(overrides)
    for name in [k for k, v in overrides.items() if v is None]:
        del payload[name]
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **{k: v for k, v in payload.items()})


class TestPartitionValidation:
    """Regression: malformed partition payloads fail at load time."""

    @pytest.fixture()
    def saved(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        return path

    def test_wrong_code_dtype(self, saved):
        with np.load(saved) as archive:
            codes = archive["codes_0"]
        _tamper(saved, codes_0=codes.astype(np.float64))
        with pytest.raises(DatasetError, match="dtype"):
            load_index(saved)

    def test_wrong_code_width(self, saved):
        with np.load(saved) as archive:
            codes = archive["codes_0"]
        _tamper(saved, codes_0=codes[:, :-1])
        with pytest.raises(DatasetError, match="components per code"):
            load_index(saved)

    def test_codes_ids_length_mismatch(self, saved):
        with np.load(saved) as archive:
            ids = archive["ids_0"]
        _tamper(saved, ids_0=ids[:-1])
        with pytest.raises(DatasetError, match="length mismatch"):
            load_index(saved)

    def test_non_integer_ids(self, saved):
        with np.load(saved) as archive:
            ids = archive["ids_0"]
        _tamper(saved, ids_0=ids.astype(np.float32))
        with pytest.raises(DatasetError, match="non-integer"):
            load_index(saved)

    def test_codes_wrong_ndim(self, saved):
        with np.load(saved) as archive:
            codes = archive["codes_0"]
        _tamper(saved, codes_0=codes.ravel())
        with pytest.raises(DatasetError, match="2-D"):
            load_index(saved)

    def test_ids_wrong_ndim(self, saved):
        with np.load(saved) as archive:
            ids = archive["ids_0"]
        _tamper(saved, ids_0=ids[:, None])
        with pytest.raises(DatasetError, match="1-D"):
            load_index(saved)

    def test_missing_partition_field(self, saved):
        _tamper(saved, codes_1=None)
        with pytest.raises(DatasetError, match="missing field"):
            load_index(saved)


class TestRoundTripSearchParity:
    """Reloaded index + each scanner answers byte-identically."""

    @pytest.mark.parametrize("scanner_name", ["naive", "fastpq"])
    def test_search_batch_byte_identical_after_reload(
        self, index, dataset, tmp_path, scanner_name, engine_over
    ):
        path = tmp_path / "index.npz"
        save_index(index, path)
        a = engine_over(index, scanner_name).search(dataset.queries, k=10, nprobe=2)
        b = engine_over(load_index(path), scanner_name).search(
            dataset.queries, k=10, nprobe=2
        )
        assert len(a) == len(dataset.queries)
        _assert_same_answers(a, b)
        assert same_as_oracle(b, oracle_search(index, dataset.queries, 10, 2))

    def test_observability_counters_survive_reload(
        self, index, dataset, tmp_path, engine_over
    ):
        path = tmp_path / "index.npz"
        save_index(index, path)
        n = len(dataset.queries)
        with observability_session() as obs:
            engine_over(index).search(dataset.queries, k=10, nprobe=2)
            loaded = load_index(path)
            engine_over(loaded).search(dataset.queries, k=10, nprobe=2)
        # One metrics session spans the reload: totals keep accumulating.
        assert obs.metrics.get("repro_queries_total").value() == 2 * n
        assert obs.metrics.get("repro_batches_total").value() == 2
        scanned = obs.metrics.get("repro_vectors_scanned_total")
        assert scanned.value(scanner="naive") == 2 * n * len(index)


class TestMmapLoading:
    """load_index(mmap=True): zero-copy partition arrays, same contract."""

    @pytest.fixture()
    def saved(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        return path

    @pytest.mark.parametrize("scanner_name", ["naive", "fastpq"])
    def test_mmap_byte_identical_to_eager(
        self, index, dataset, saved, scanner_name, engine_over
    ):
        a, b = (
            engine_over(load_index(saved, mmap=mmap), scanner_name).search(
                dataset.queries, k=10, nprobe=2
            )
            for mmap in (False, True)
        )
        _assert_same_answers(a, b)

    def test_mmap_arrays_match_eager_bytes(self, saved):
        eager = load_index(saved)
        mapped = load_index(saved, mmap=True)
        for pe, pm in zip(eager.partitions, mapped.partitions):
            np.testing.assert_array_equal(pe.codes, pm.codes)
            np.testing.assert_array_equal(pe.ids, pm.ids)
            assert isinstance(pm.codes.base, np.memmap) or isinstance(
                pm.codes, np.memmap
            )

    def test_mmap_arrays_are_read_only(self, saved):
        mapped = load_index(saved, mmap=True)
        for partition in mapped.partitions:
            assert not partition.codes.flags.writeable
            assert not partition.ids.flags.writeable
            with pytest.raises(ValueError):
                partition.codes[0, 0] = 1

    def test_eager_load_stays_plain_ndarray(self, saved):
        eager = load_index(saved)
        for partition in eager.partitions:
            assert not isinstance(partition.codes, np.memmap)

    def test_mmap_rejects_compressed_artifact(self, saved):
        _deflate(saved)
        assert load_index(saved) is not None  # eager load still fine
        with pytest.raises(DatasetError):
            load_index(saved, mmap=True)

    def test_truncated_artifact_raises(self, saved, tmp_path):
        data = saved.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetError):
            load_index(truncated, mmap=True)

    def test_garbage_bytes_raise(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(DatasetError):
            load_index(path, mmap=True)

    def test_sharded_mmap_round_trip(self, index, dataset, tmp_path):
        from repro import ShardedIndex, load_sharded_index, save_sharded_index

        sharded = ShardedIndex.from_index(index, n_shards=2)
        directory = tmp_path / "shards.d"
        save_sharded_index(sharded, directory)
        loaded = load_sharded_index(directory, mmap=True)
        for shard in loaded.shards:
            for partition in shard.index.partitions:
                assert not partition.codes.flags.writeable
        from repro import ScatterGatherExecutor

        with ScatterGatherExecutor(
            loaded, NaiveScanner, artifact_dir=directory
        ) as executor:
            response = executor.run(dataset.queries, topk=10, nprobe=2)
        assert same_as_oracle(
            response.results, oracle_search(index, dataset.queries, 10, 2)
        )


def _deflate(path):
    """Re-write the archive at ``path`` with deflated members, which no
    ``save_*`` writes."""
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **payload)


def _open_fds():
    """Descriptors this process holds (Linux); None where /proc is absent."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _mapping_under(array):
    """The ``mmap.mmap`` at the root of a mapped array's ``base`` chain."""
    while not isinstance(array, mmap.mmap):
        array = array.base
    return array


def _member_data_start(path, member):
    """Offset of ``member``'s ``.npy`` bytes inside the archive."""
    with zipfile.ZipFile(path) as archive:
        header = archive.getinfo(member).header_offset
    blob = path.read_bytes()
    name_len = int.from_bytes(blob[header + 26 : header + 28], "little")
    extra_len = int.from_bytes(blob[header + 28 : header + 30], "little")
    return header, header + 30 + name_len + extra_len


def _patch(path, offset, replacement):
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(replacement)] = replacement
    path.write_bytes(bytes(blob))


class TestOnePassMmapLoad:
    """``load_index(mmap=True)`` parses each archive once and maps it once."""

    @pytest.fixture()
    def saved(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index, path)
        return path

    def test_one_zipfile_and_one_mapping_per_archive(
        self, pq, dataset, tmp_path, monkeypatch
    ):
        # A count, not a timing: the per-member loader re-read the whole
        # central directory once per member (2 * 64 + 1 times per shard).
        from repro import IVFADCIndex, ShardedIndex
        from repro import load_sharded_index, save_sharded_index

        wide = IVFADCIndex(pq, n_partitions=64, coarse_max_iter=2, seed=2).add(
            dataset.base[:4000]
        )
        directory = tmp_path / "shards.d"
        save_sharded_index(ShardedIndex.from_index(wide, n_shards=2), directory)
        opened = Counter()

        class CountingZipFile(zipfile.ZipFile):
            def __init__(self, file, *args, **kwargs):
                opened[Path(getattr(file, "name", file)).name] += 1
                super().__init__(file, *args, **kwargs)

        monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)
        fds_before = _open_fds()
        loaded = load_sharded_index(directory, mmap=True)
        assert opened == {
            "manifest.npz": 1, "shard_0000.npz": 1, "shard_0001.npz": 1
        }
        mappings = []
        for shard in loaded.shards:
            arrays = [
                array
                for part in shard.index.partitions
                for array in (part.codes, part.ids)
            ]
            assert len(arrays) == 128
            assert not any(array.flags.writeable for array in arrays)
            assert len({id(_mapping_under(array)) for array in arrays}) == 1
            mappings.append(_mapping_under(arrays[0]))
        assert mappings[0] is not mappings[1]
        if fds_before is not None:
            # The mapping keeps its own duplicate of the descriptor: one
            # per shard archive, not one per partition array.
            assert _open_fds() - fds_before == 2
        for shard in loaded.shards:
            for pid in shard.partition_ids:
                part = shard.index.partitions[pid]
                assert part.codes.tobytes() == wide.partitions[pid].codes.tobytes()
                assert part.ids.tobytes() == wide.partitions[pid].ids.tobytes()

    def test_views_survive_replace_of_the_artifact(self, index, saved):
        # A compaction re-saves the artifact (os.replace) while an older
        # epoch still serves from its mapped views.
        from repro import IVFADCIndex

        mapped = load_index(saved, mmap=True)
        before = [(p.codes.tobytes(), p.ids.tobytes()) for p in mapped.partitions]
        other = IVFADCIndex(index.pq, n_partitions=2, seed=9).add(
            np.asarray(index.pq.decode(index.partitions[0].codes[:500]))
        )
        save_index(other, saved)
        after = [(p.codes.tobytes(), p.ids.tobytes()) for p in mapped.partitions]
        assert after == before
        assert len(load_index(saved, mmap=True)) == len(other) != len(index)

    # -- every way a member can be unmappable, through the one pass -------------

    def _assert_rejected(self, path, match):
        fds_before = _open_fds()
        with pytest.raises(DatasetError, match=match):
            load_index(path, mmap=True)
        # Nothing was mapped and both handles are closed already, with
        # the exception (and its traceback) still alive.
        assert _open_fds() == fds_before

    def test_missing_member(self, saved):
        with np.load(saved) as archive:
            payload = {n: archive[n] for n in archive.files if n != "ids_1"}
        with open(saved, "wb") as handle:
            np.savez(handle, **payload)
        self._assert_rejected(saved, "missing field 'ids_1'")

    def test_deflated_member(self, saved):
        _deflate(saved)
        self._assert_rejected(saved, "compressed and cannot be memory-mapped")

    def test_corrupt_local_header(self, saved):
        header, _ = _member_data_start(saved, "codes_1.npy")
        _patch(saved, header, b"XX")
        self._assert_rejected(saved, "corrupt local header for member 'codes_1.npy'")

    def test_unsupported_npy_version(self, saved):
        _, start = _member_data_start(saved, "codes_0.npy")
        _patch(saved, start + 6, bytes([3, 0]))
        self._assert_rejected(saved, "unsupported .npy format version")

    def test_object_dtype_member(self, saved):
        _, start = _member_data_start(saved, "ids_0.npy")
        blob = saved.read_bytes()
        at = blob.index(b"'<i8'", start)
        _patch(saved, at, b"'|O' ")
        self._assert_rejected(saved, "contains objects")

    def test_member_shorter_than_its_header_says(self, saved):
        _, start = _member_data_start(saved, "ids_0.npy")
        blob = saved.read_bytes()
        at = blob.index(b",), } ", start)
        _patch(saved, at, b"0,), }")  # ten times the rows, one pad space less
        self._assert_rejected(saved, "member 'ids_0.npy' is truncated")

    # -- compatibility ----------------------------------------------------------

    def test_artifact_saved_by_the_parent_commit(self, tmp_path):
        """``tests/data/index_saved_by_pr15.npz`` was written by
        ``save_index`` at PR 15 (4x4 quantizer, 3 partitions, 120 rows,
        generation 7): it loads, both ways, to the same arrays, and
        saving it again reproduces the file byte for byte."""
        golden = Path(__file__).parent / "data" / "index_saved_by_pr15.npz"
        eager = load_index(golden)
        mapped = load_index(golden, mmap=True)
        assert eager.generation == mapped.generation == 7
        assert len(eager) == len(mapped) == 120
        digest = hashlib.sha256()
        for a, b in zip(eager.partitions, mapped.partitions):
            assert a.codes.tobytes() == b.codes.tobytes()
            assert a.ids.tobytes() == b.ids.tobytes()
            digest.update(a.codes.tobytes() + a.ids.tobytes())
        assert digest.hexdigest()[:16] == "44fbdf2544529825"
        again = tmp_path / "again.npz"
        save_index(mapped, again)
        assert again.read_bytes() == golden.read_bytes()


class Test4BitSubIndexValidation:
    """Sub-index range validation for bits<8 artifacts at load time.

    An 8-bit code physically cannot exceed its 256-entry tables, but a
    4-bit artifact stores nibbles in full bytes: a corrupt byte >= 16
    would silently read past the 16-entry register tables of the Quick
    ADC path. The loader must reject it, not the scanner."""

    @pytest.fixture()
    def saved4(self, dataset, tmp_path):
        from repro import IVFADCIndex, ProductQuantizer

        pq4 = ProductQuantizer(m=16, bits=4, max_iter=2, seed=5).fit(
            dataset.learn[:800]
        )
        index4 = IVFADCIndex(pq4, n_partitions=2, seed=3).add(
            dataset.base[:2000]
        )
        path = tmp_path / "index4.npz"
        save_index(index4, path)
        return path

    def test_4bit_roundtrip_bit_exact(self, saved4):
        loaded = load_index(saved4)
        assert loaded.pq.bits == 4
        for partition in loaded.partitions:
            assert int(partition.codes.max()) < 16

    def test_4bit_roundtrip_answers_identically(self, saved4, dataset, engine_over):
        loaded = load_index(saved4)
        result = engine_over(loaded, "quickadc").search(dataset.queries[0], k=5, nprobe=2)
        assert len(result.ids) == 5
        assert holds_oracle_distances([result], loaded, dataset.queries[0], 2)

    def test_out_of_range_sub_index_rejected(self, saved4):
        with np.load(saved4) as archive:
            codes = archive["codes_0"].copy()
        codes[0, 0] = 16  # smallest value that overruns a 16-entry table
        _tamper(saved4, codes_0=codes)
        with pytest.raises(DatasetError, match="out of range"):
            load_index(saved4)

    def test_grossly_corrupt_sub_index_rejected(self, saved4):
        with np.load(saved4) as archive:
            codes = archive["codes_1"].copy()
        codes[-1, -1] = 255
        _tamper(saved4, codes_1=codes)
        with pytest.raises(DatasetError, match="4-bit"):
            load_index(saved4)

    def test_8bit_codes_unaffected(self, index, tmp_path):
        # Full-range 8-bit codes load fine: the check only gates bits<8.
        path = tmp_path / "index8.npz"
        save_index(index, path)
        assert load_index(path) is not None
