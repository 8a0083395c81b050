"""Mutable-index tests: delta overlay, tombstones, compaction, serving.

The write API's contract has three load-bearing clauses:

* **byte-identity for untouched reads** — a query probing only
  partitions that no write ever landed in returns byte-identical
  results on a mutable engine (dirty overlay or freshly compacted) and
  on a read-only engine over the same artifact, for every scanner and
  executor backend;
* **read-your-write overlay semantics** — adds surface immediately,
  deletes never surface, an upsert replaces its id everywhere, and
  ``compact()`` folds the overlay into a new base generation without
  changing any answer;
* **generation-swap safety** — readers (including the serving layer)
  racing a background compaction see either the old or the new base,
  never a torn mix.

``TestEngineAgainstDictModel`` drives all of it with random operation
sequences against a dict of vectors (ROADMAP item 6), and
``TestTombstoneFilterAgainstFilteredCopy`` holds the one scan path a
tombstone takes to the filtered copy it replaced.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.pq.quantizer
from repro import (
    ANNSearcher,
    BatchExecutor,
    Engine,
    EngineConfig,
    IVFADCIndex,
    PQFastScanner,
    VectorDataset,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.ivf.partition import Partition
from repro.obs import Observability
from repro.parallel import ProcessBatchExecutor, ScannerSpec
from repro.persistence import load_index, save_index
from repro.scan import NaiveScanner, select_topk
from repro.search import _WIDE_SCAN_CELLS, StreamingMerger
from repro.serve import MicroBatchServer
from repro.shard import ScatterGatherExecutor, ShardedIndex
from repro.delta import DeltaStore, fold_index


def _same_answers(a, b) -> bool:
    """ids + distances byte-equality of two SearchResult lists."""
    if len(a) != len(b):
        return False
    return all(
        ra.ids.tobytes() == rb.ids.tobytes()
        and ra.distances.tobytes() == rb.distances.tobytes()
        for ra, rb in zip(a, b)
    )


def _fully_identical(a, b) -> bool:
    """Byte-identity including the scan statistics."""
    return _same_answers(a, b) and all(
        ra.n_scanned == rb.n_scanned
        and ra.n_pruned == rb.n_pruned
        and ra.probed == rb.probed
        for ra, rb in zip(a, b)
    )


@pytest.fixture(scope="module")
def artifact(dataset, tmp_path_factory):
    """One saved unsharded artifact every mutable engine loads a copy of."""
    path = tmp_path_factory.mktemp("mutation") / "base.idx"
    engine = Engine.build(
        dataset.base,
        n_partitions=8,
        scanner="naive",
        max_iter=2,
        coarse_max_iter=4,
        seed=5,
    )
    try:
        engine.save(path)
    finally:
        engine.close()
    return path


@pytest.fixture(scope="module")
def churn(artifact, dataset):
    """Deterministic churn confined to the two largest partitions.

    Returns (target_pids, new_vectors, new_ids, delete_ids,
    clean_queries): adds that route into the targets, base ids to
    delete from them, and queries that probe neither target.
    """
    index = load_index(artifact)
    sizes = index.partition_sizes()
    # Confine churn to the two *smallest* partitions: most queries then
    # probe neither, leaving a large pool of provably-unaffected reads.
    eligible = [int(p) for p in np.argsort(sizes) if sizes[p] >= 16]
    target_pids = eligible[:2]

    # Ids are row indices into the build vectors, so jittered copies of
    # the targets' own members route back into the targets.
    members = np.concatenate(
        [index.partitions[pid].ids[:32] for pid in target_pids]
    )
    jitter = np.random.default_rng(17).normal(
        scale=0.25, size=(len(members), dataset.base.shape[1])
    )
    pool = np.abs(dataset.base[members] + jitter)
    routed = index.route_batch(pool, nprobe=1)[:, 0]
    picked = np.flatnonzero(np.isin(routed, target_pids))[:32]
    assert len(picked) >= 8, "churn fixture needs adds landing in targets"
    new_vectors = pool[picked]
    max_id = max(int(part.ids.max()) for part in index.partitions)
    new_ids = np.arange(max_id + 1, max_id + 1 + len(picked), dtype=np.int64)
    delete_ids = np.concatenate(
        [index.partitions[pid].ids[:4] for pid in target_pids]
    ).astype(np.int64)

    probe_grid = index.route_batch(dataset.queries, nprobe=2)
    unaffected = ~np.isin(probe_grid, target_pids).any(axis=1)
    clean_queries = dataset.queries[unaffected][:16]
    assert len(clean_queries) >= 4, "need queries avoiding the targets"
    return target_pids, new_vectors, new_ids, delete_ids, clean_queries


def _copy_artifact(artifact, tmp_path, name="copy.idx"):
    copy = tmp_path / name
    if artifact.is_dir():
        shutil.copytree(artifact, copy)
    else:
        shutil.copyfile(artifact, copy)
    return copy


_BACKEND_OVERRIDES = {
    "thread": {"executor": "thread"},
    "process": {"executor": "process"},
    "sharded": {"n_shards": 2, "executor": "thread"},
}


class TestByteIdentityUnderChurn:
    """The headline invariant, across scanners and executor backends."""

    @pytest.mark.parametrize("scanner", ["naive", "libpq", "fastpq"])
    @pytest.mark.parametrize("backend", ["thread", "process", "sharded"])
    def test_unaffected_queries_identical(
        self, artifact, churn, tmp_path, scanner, backend
    ):
        _, new_vectors, new_ids, delete_ids, clean_queries = churn
        overrides = _BACKEND_OVERRIDES[backend]
        copy = _copy_artifact(artifact, tmp_path, f"{scanner}-{backend}.idx")
        with Engine.load(
            artifact, scanner=scanner, nprobe=2, **overrides
        ) as readonly, Engine.load(
            copy, scanner=scanner, nprobe=2, mutable=True, **overrides
        ) as mutable:
            expected = readonly.search(clean_queries, k=10)
            mutable.add(new_vectors, new_ids)
            mutable.delete(delete_ids)
            dirty = mutable.search(clean_queries, k=10)
            assert _fully_identical(expected, dirty)
            report = mutable.compact()
            assert report.generation == 1
            assert report.n_folded == len(new_ids)
            compacted = mutable.search(clean_queries, k=10)
            assert _fully_identical(expected, compacted)

    def test_search_detailed_identical_under_churn(
        self, artifact, churn, tmp_path
    ):
        _, new_vectors, new_ids, delete_ids, clean_queries = churn
        copy = _copy_artifact(artifact, tmp_path)
        with Engine.load(
            artifact, nprobe=2, executor="thread"
        ) as readonly, Engine.load(
            copy, nprobe=2, executor="thread", mutable=True
        ) as mutable:
            expected = readonly.search(clean_queries, k=10)
            mutable.add(new_vectors, new_ids)
            mutable.delete(delete_ids)
            response = mutable.search_detailed(clean_queries, k=10)
            assert not response.partial
            assert _same_answers(expected, response.results)


class TestOverlaySemantics:
    """Adds surface, deletes vanish, upserts replace — then compaction
    preserves every answer."""

    @pytest.fixture()
    def mutable_engine(self, artifact, tmp_path):
        copy = _copy_artifact(artifact, tmp_path)
        engine = Engine.load(
            copy, mutable=True, nprobe=2, executor="thread"
        )
        yield engine
        engine.close()

    def test_added_row_surfaces_immediately(self, mutable_engine, churn):
        _, new_vectors, new_ids, _, _ = churn
        mutable_engine.add(new_vectors[:1], new_ids[:1])
        # ADC distances are approximate, so assert top-k membership
        # rather than an exact rank.
        result = mutable_engine.search(new_vectors[0], k=10)
        assert new_ids[0] in result.ids

    def test_deleted_id_never_surfaces(self, mutable_engine, churn, dataset):
        _, _, _, delete_ids, _ = churn
        mutable_engine.delete(delete_ids)
        results = mutable_engine.search(dataset.queries, k=50, nprobe=4)
        surfaced = np.concatenate([r.ids for r in results])
        assert not np.isin(surfaced, delete_ids).any()

    def test_upsert_replaces_everywhere(self, mutable_engine, churn):
        _, new_vectors, new_ids, _, _ = churn
        # First placement, then an upsert of the same id elsewhere.
        mutable_engine.add(new_vectors[:1], new_ids[:1])
        mutable_engine.add(new_vectors[1:2], new_ids[:1])
        result = mutable_engine.search(new_vectors[1], k=20, nprobe=4)
        assert new_ids[0] in result.ids
        # The id appears at most once in any deep scan.
        deep = mutable_engine.search(new_vectors[0], k=100, nprobe=8)
        assert int(np.sum(deep.ids == new_ids[0])) <= 1

    def test_compaction_preserves_every_answer(
        self, mutable_engine, churn, dataset
    ):
        _, new_vectors, new_ids, delete_ids, _ = churn
        mutable_engine.add(new_vectors, new_ids)
        mutable_engine.delete(delete_ids)
        before = mutable_engine.search(dataset.queries, k=20, nprobe=4)
        assert mutable_engine.n_pending_writes > 0
        report = mutable_engine.compact()
        assert report.generation == 1
        assert mutable_engine.generation == 1
        assert mutable_engine.n_pending_writes == 0
        after = mutable_engine.search(dataset.queries, k=20, nprobe=4)
        assert _same_answers(before, after)

    def test_empty_compact_is_noop(self, mutable_engine):
        report = mutable_engine.compact()
        assert report.noop
        assert report.generation == 0
        assert mutable_engine.generation == 0

    def test_delete_then_add_across_compaction_boundary(
        self, mutable_engine, churn
    ):
        _, new_vectors, new_ids, delete_ids, _ = churn
        victim = int(delete_ids[0])
        mutable_engine.delete(np.array([victim], dtype=np.int64))
        report = mutable_engine.compact()
        assert report.n_dropped >= 1
        # Re-add the same id as a brand-new row after the fold.
        mutable_engine.add(new_vectors[:1], np.array([victim], np.int64))
        result = mutable_engine.search(new_vectors[0], k=10)
        assert victim in result.ids
        report2 = mutable_engine.compact()
        assert report2.generation == 2
        again = mutable_engine.search(new_vectors[0], k=10)
        assert victim in again.ids
        deep = mutable_engine.search(new_vectors[0], k=100, nprobe=8)
        assert int(np.sum(deep.ids == victim)) == 1

    def test_rerank_refused_on_mutable(self, mutable_engine, dataset):
        with pytest.raises(ConfigurationError, match="rerank"):
            mutable_engine.search(dataset.queries, k=5, rerank=20)

    def test_save_refuses_dirty_then_roundtrips_after_compact(
        self, mutable_engine, churn, tmp_path
    ):
        _, new_vectors, new_ids, _, _ = churn
        mutable_engine.add(new_vectors, new_ids)
        with pytest.raises(ConfigurationError, match="compact"):
            mutable_engine.save(tmp_path / "dirty.idx")
        mutable_engine.compact()
        out = tmp_path / "clean.idx"
        mutable_engine.save(out)
        reloaded = load_index(out)
        assert reloaded.generation == 1
        ids = np.concatenate([p.ids for p in reloaded.partitions])
        assert np.isin(new_ids, ids).all()


class TestImmutableEngineRefusesWrites:
    def test_write_api_requires_mutable(self, artifact, dataset):
        with Engine.load(artifact) as engine:
            row = dataset.base[:1]
            ids = np.array([10**6], dtype=np.int64)
            for call in (
                lambda: engine.add(row, ids),
                lambda: engine.delete(ids),
                lambda: engine.compact(),
            ):
                with pytest.raises(ConfigurationError, match="mutable=True"):
                    call()

    def test_mutable_excludes_keep_vectors(self):
        with pytest.raises(ConfigurationError, match="keep_vectors"):
            EngineConfig(mutable=True, keep_vectors=True)


class TestGenerationPersistence:
    def test_compact_persists_generation_to_artifact(
        self, artifact, churn, tmp_path
    ):
        _, new_vectors, new_ids, delete_ids, _ = churn
        copy = _copy_artifact(artifact, tmp_path)
        with Engine.load(copy, mutable=True, executor="thread") as engine:
            engine.add(new_vectors, new_ids)
            engine.delete(delete_ids)
            engine.compact()
            live = engine.search(new_vectors[0], k=5, nprobe=4)
        # The artifact was re-saved in place: a cold read-only load sees
        # the folded generation and the same answers.
        with Engine.load(copy) as reloaded:
            assert reloaded.generation == 1
            cold = reloaded.search(new_vectors[0], k=5, nprobe=4)
            assert live.ids.tobytes() == cold.ids.tobytes()
            assert live.distances.tobytes() == cold.distances.tobytes()

    def test_sharded_mutable_compacts_file_artifact(
        self, artifact, churn, tmp_path
    ):
        _, new_vectors, new_ids, delete_ids, _ = churn
        copy = _copy_artifact(artifact, tmp_path)
        with Engine.load(
            copy, mutable=True, n_shards=2, executor="thread"
        ) as engine:
            engine.add(new_vectors, new_ids)
            engine.delete(delete_ids)
            report = engine.compact()
            assert report.generation == 1
            assert engine.generation == 1
        with Engine.load(copy) as reloaded:
            assert reloaded.generation == 1


class TestDeltaPrimitives:
    """Unit-level guards on the delta package's invariants."""

    def test_fold_index_rejects_id_collision(self, index):
        pid = 0
        part = index.partitions[pid]
        colliding_id = int(part.ids[0])
        codes = np.asarray(part.codes[:1])
        additions = {
            pid: (codes, np.array([colliding_id], dtype=np.int64))
        }
        with pytest.raises(SimulationError, match="tombstone barrier"):
            fold_index(index, np.array([], dtype=np.int64), additions)

    def test_store_masks_only_base_hits(self, index):
        store = DeltaStore()
        store.apply_delete(np.array([10**9], dtype=np.int64))
        view = store.view(index)
        assert view is not None
        assert not view.hits  # no base row carries that id
        assert 10**9 in view.tombstone_ids

    def test_commit_drops_only_drained_state(self, index):
        store = DeltaStore()
        part = index.partitions[0]
        store.apply_delete(part.ids[:1])
        snap = store.snapshot()
        store.apply_delete(part.ids[1:2])  # races the "compaction"
        store.commit(snap.seq, generation=1)
        assert store.generation == 1
        assert store.n_tombstones == 1  # the post-snapshot delete survives
        view = store.view(index)
        assert int(part.ids[1]) in view.tombstone_ids
        assert int(part.ids[0]) not in view.tombstone_ids


# -- the overlay against the per-partition reference --------------------------
#
# The reference bookkeeping, written the direct way: one ``isin`` per
# pending segment for every delete and upsert, one ``isin`` per base
# partition for every view cut. Segments are plain ``(codes, ids, seqs)``
# tuples here.


def _reference_filtered(segments, keep_rows):
    out = {}
    for pid, (codes, ids, seqs) in segments.items():
        keep = keep_rows(ids, seqs)
        if keep.all():
            out[pid] = (codes, ids, seqs)
        elif keep.any():
            out[pid] = (codes[keep], ids[keep], seqs[keep])
    return out


def _reference_without_ids(segments, ids):
    return _reference_filtered(
        segments, lambda held, seqs: ~np.isin(held, ids)
    )


def _reference_build_view(segments, tombstones, index):
    """``(segments, hits, tombstone_ids)``, or None for an empty overlay."""
    if not segments and not tombstones:
        return None
    segment_parts = {
        pid: Partition(codes, ids, partition_id=pid)
        for pid, (codes, ids, _) in sorted(segments.items())
    }
    tombstone_ids = np.array(sorted(tombstones), dtype=np.int64)
    hits = {}
    if len(tombstone_ids):
        for pid, part in enumerate(index.partitions):
            if len(part.ids) == 0:
                continue
            hit = np.isin(part.ids, tombstone_ids)
            if hit.any():
                hits[pid] = np.sort(part.ids[hit])
    return segment_parts, hits, tombstone_ids


class _ReferenceStore:
    def __init__(self):
        self.segments = {}
        self.tombstones = {}
        self.seq = 0

    def _tombstone(self, ids):
        self.seq += 1
        for identifier in ids.tolist():
            self.tombstones[identifier] = self.seq

    def add(self, labels, codes, ids):
        self._tombstone(ids)
        out = _reference_without_ids(self.segments, ids)
        for pid in np.unique(labels).tolist():
            mask = labels == pid
            added = (
                codes[mask], ids[mask], np.full(mask.sum(), self.seq, np.int64)
            )
            if pid in out:
                added = tuple(map(np.concatenate, zip(out[pid], added)))
            out[pid] = added
        self.segments = out

    def delete(self, ids):
        self._tombstone(ids)
        self.segments = _reference_without_ids(self.segments, ids)

    def commit(self, upto_seq):
        self.segments = _reference_filtered(
            self.segments, lambda ids, seqs: seqs > upto_seq
        )
        self.tombstones = {
            i: seq for i, seq in self.tombstones.items() if seq > upto_seq
        }


def _same_partition(got, want):
    return (
        got.partition_id == want.partition_id
        and got.ids.dtype == want.ids.dtype
        and got.ids.tobytes() == want.ids.tobytes()
        and got.codes.dtype == want.codes.dtype
        and got.codes.shape == want.codes.shape
        and got.codes.flags.c_contiguous == want.codes.flags.c_contiguous
        and got.codes.tobytes() == want.codes.tobytes()
    )


def _assert_view_is_reference(view, reference):
    if reference is None:
        assert view is None
        return
    segments, hits, tombstone_ids = reference
    assert list(view.segments) == list(segments)
    assert all(_same_partition(view.segments[pid], segments[pid]) for pid in segments)
    assert list(view.hits) == list(hits)
    assert all(view.hits[pid].tobytes() == hits[pid].tobytes() for pid in hits)
    assert view.tombstone_ids.dtype == tombstone_ids.dtype
    assert view.tombstone_ids.tobytes() == tombstone_ids.tobytes()


def _assert_store_matches(store, reference):
    assert list(store._segments) == list(reference.segments)
    for pid, (codes, ids, seqs) in reference.segments.items():
        held = store._segments[pid]
        for got, want in ((held.codes, codes), (held.ids, ids), (held.seqs, seqs)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert store._tombstones == reference.tombstones
    assert store.n_rows == sum(len(ids) for _, ids, _ in reference.segments.values())
    assert store.n_tombstones == len(reference.tombstones)


def _reference_view_of(store, index):
    """The per-partition reference cut over the store's own state."""
    segments = {
        pid: (delta.codes, delta.ids, delta.seqs)
        for pid, delta in store._segments.items()
    }
    return _reference_build_view(segments, store._tombstones, index)


class TestOverlayAgainstPerPartitionReference:
    """Random writes, snapshots, racing writes and commits, step by step
    against the reference: every view byte for byte, every segment dict,
    and the running counts equal to the recomputed sums."""

    @pytest.fixture(scope="class", params=["eager", "mmap"])
    def base(self, request, pq, dataset, tmp_path_factory):
        built = IVFADCIndex(pq, n_partitions=8, seed=2).add(dataset.base[:2000])
        parts = list(built.partitions)
        parts[3] = Partition(parts[3].codes[:0], parts[3].ids[:0], partition_id=3)
        index = built.with_partitions(parts)
        if request.param == "mmap":
            path = tmp_path_factory.mktemp("overlay") / "base.idx"
            save_index(index, path)
            index = load_index(path, mmap=True)
        assert any(len(part.ids) == 0 for part in index.partitions)
        return index, request.param

    @staticmethod
    def _ids(rng, index, reference, size):
        """A mix of base ids, pending ids and ids nothing ever held."""
        base_ids = np.concatenate([part.ids for part in index.partitions])
        pending = [i for _, ids, _ in reference.segments.values() for i in ids]
        pools = [base_ids, np.array(pending or [10**9]), 10**9 + np.arange(8)]
        picked = {int(rng.choice(pools[rng.integers(3)])) for _ in range(size)}
        return np.array(sorted(picked), dtype=np.int64)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_view_and_segment_dict_is_the_reference(self, base, seed):
        index, kind = base
        rng = np.random.default_rng([seed, int(kind == "mmap")])
        store, reference = DeltaStore(), _ReferenceStore()
        next_id, snap = 10**6, None
        m, n_parts = index.pq.n_subquantizers, index.n_partitions
        for _ in range(120):
            op = rng.choice(["add", "upsert", "delete", "snapshot", "commit"],
                            p=[0.3, 0.2, 0.3, 0.1, 0.1])
            if op in ("add", "upsert"):
                if op == "add":
                    ids = np.arange(next_id, next_id + rng.integers(1, 5))
                    next_id += len(ids)
                else:
                    ids = self._ids(rng, index, reference, 3)
                labels = rng.integers(0, n_parts, len(ids))
                codes = rng.integers(0, 256, (len(ids), m)).astype(np.uint8)
                store.apply_add(labels, codes, ids)
                reference.add(labels, codes, ids)
            elif op == "delete":
                ids = self._ids(rng, index, reference, 4)
                store.apply_delete(ids)
                reference.delete(ids)
            elif op == "snapshot":
                snap = store.snapshot()
                assert snap.seq == reference.seq
            elif op == "commit" and snap is not None:
                # Writes that ran since the snapshot raced this compaction;
                # the next cut is against the base it folded.
                index = fold_index(index, snap.tombstone_ids, snap.additions)
                store.commit(snap.seq, generation=store.generation + 1)
                reference.commit(snap.seq)
                snap = None
            _assert_store_matches(store, reference)
            _assert_view_is_reference(
                store.view(index), _reference_view_of(store, index)
            )

    def test_a_tombstone_masks_every_base_copy_of_its_id(self):
        codes = np.arange(16, dtype=np.uint8).reshape(8, 2)
        ids = np.array([5, 7, 5, 9, 7, 5, 11, 13])
        index = SimpleNamespace(partitions=[
            Partition(codes[:3], ids[:3], partition_id=0),
            Partition(codes[:0], ids[:0], partition_id=1),
            Partition(codes[3:], ids[3:], partition_id=2),
        ])
        store = DeltaStore()
        store.apply_delete(np.array([5, 7, 8]))
        view = store.view(index)
        assert {pid: got.tolist() for pid, got in view.hits.items()} == {
            0: [5, 5, 7], 2: [5, 7]
        }
        _assert_view_is_reference(view, _reference_view_of(store, index))

    @staticmethod
    def _spy(monkeypatch):
        """Counts of membership calls (``np.isin``, ``np.searchsorted``)
        and of ``Partition`` constructions from here on."""
        calls = {"membership": 0, "partition": 0}

        def counting(owner, name, kind):
            function = getattr(owner, name)

            def spy(*args, **kwargs):
                calls[kind] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        counting(np, "isin", "membership")
        counting(np, "searchsorted", "membership")
        counting(Partition, "__init__", "partition")
        return calls

    def test_one_write_costs_the_next_cut_the_same_at_64_and_1024_partitions(
        self, monkeypatch
    ):
        def split(n_parts):
            ids = np.arange(8192, dtype=np.int64)
            codes = (ids[:, None] % 251).astype(np.uint8).repeat(4, axis=1)
            rows = np.array_split(np.arange(len(ids)), n_parts)
            return SimpleNamespace(partitions=[
                Partition(codes[r], ids[r], partition_id=pid)
                for pid, r in enumerate(rows)
            ])

        counted = {}
        for n_parts in (64, 1024):
            index, store = split(n_parts), DeltaStore()
            # Every deleted id sits in its own partition at either size.
            store.apply_delete(np.arange(0, 6500, 1300))
            store.view(index)
            with monkeypatch.context() as patch:
                calls = self._spy(patch)
                store.apply_delete(np.array([7000]))
                view = store.view(index)
            assert len(view.hits) == 6
            counted[n_parts] = calls
        assert counted[64] == counted[1024]
        assert counted[64]["partition"] == 0  # a cut copies no base row

    def test_a_delete_rebuilds_only_the_segment_holding_its_id(
        self, monkeypatch
    ):
        store = DeltaStore()
        labels = np.repeat(np.arange(40), 2)
        ids = np.arange(10**6, 10**6 + len(labels), dtype=np.int64)
        codes = np.zeros((len(labels), 4), dtype=np.uint8)
        store.apply_add(labels, codes, ids)
        before = dict(store._segments)
        calls = self._spy(monkeypatch)
        store.apply_delete(ids[14:15])  # one of partition 7's two rows
        assert calls["membership"] <= 1
        assert store._segments.keys() == before.keys()
        assert all(
            store._segments[pid] is before[pid] for pid in before if pid != 7
        )
        assert store._segments[7].ids.tolist() == [ids[15]]
        assert store.n_rows == len(ids) - 1


class TestOverlayIsCodes:
    """A pending row costs what an indexed row costs, and is encoded once."""

    def test_pending_rows_hold_codes_and_compact_computes_no_distance(
        self, artifact, dataset, tmp_path, monkeypatch
    ):
        calls = []
        assign = repro.pq.quantizer.assign_to_centroids

        def counting(vectors, centroids):
            calls.append(len(vectors))
            return assign(vectors, centroids)

        monkeypatch.setattr(
            repro.pq.quantizer, "assign_to_centroids", counting
        )
        rows = np.abs(dataset.base[:6000] + 1.0)
        copy = _copy_artifact(artifact, tmp_path)
        with Engine.load(copy, mutable=True, executor="thread") as engine:
            engine.add(rows, np.arange(10**6, 10**6 + len(rows)))
            assert calls  # add() is where the rows are routed and encoded
            held = sum(
                array.nbytes
                for delta in engine._delta._segments.values()
                for array in (delta.codes, delta.ids, delta.seqs)
            )
            # m code bytes + id + sequence number a row; the raw 128-d
            # vectors (6.1 MB here) were kept beside them at the parent.
            assert held == len(rows) * (engine.config.m + 16) < 200_000
            calls.clear()
            report = engine.compact()
            assert calls == []
            assert (report.n_folded, report.encode_time_s) == (len(rows), 0.0)


# -- the stateful model test (ROADMAP item 6) ---------------------------------

_N_PARTITIONS = 4
_POOL_ROWS = 64


@pytest.fixture(scope="module")
def model_world(tmp_path_factory):
    """Small base artifacts (one file, one 2-shard directory) and a pool
    of rows that writes and queries draw from."""
    data = VectorDataset.synthetic(600, 300, _POOL_ROWS, dim=32, seed=3)
    root = tmp_path_factory.mktemp("model")
    shapes = {
        "file": dict(n_shards=1, encode_residuals=True),
        "sharded": dict(n_shards=2, encode_residuals=False),
    }
    for name, shape in shapes.items():
        with Engine.build(
            data.base, m=4, n_partitions=_N_PARTITIONS, max_iter=2,
            coarse_max_iter=2, seed=1, executor="thread", **shape,
        ) as built:
            built.save(root / name)
    pool = np.concatenate([data.queries, np.abs(data.base[:_POOL_ROWS] + 3.0)])
    return root, data.base, pool


_pool_row = st.integers(0, 2 * _POOL_ROWS - 1)
_live_pick = st.integers(0, 10**6)


class _EngineAgainstDictModel(RuleBasedStateMachine):
    """``Engine(mutable=True)`` against ``{id: vector}``.

    Every search probes every partition with ``k`` above the model's
    size, so the returned id set must be exactly the model's live ids;
    every compaction must leave each row in the partition, and with the
    code, that encoding its vector afresh gives (what ``compact()``
    checked at run time while it still re-encoded).
    """

    artifact: Path
    overrides: dict
    base: np.ndarray
    pool: np.ndarray

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.n_saved = 0
        self.engine = self._load(
            _copy_artifact(self.artifact, Path(self.tmp.name), "base")
        )
        self.model = dict(enumerate(self.base))
        self.next_id = len(self.base)

    def _load(self, path):
        return Engine.load(
            path, mutable=True, nprobe=_N_PARTITIONS, **self.overrides
        )

    def _live(self, picks):
        live = sorted(self.model)
        return [live[pick % len(live)] for pick in picks]

    def _write(self, ids, rows):
        self.engine.add(self.pool[rows], np.array(ids))
        self.model.update(zip(ids, self.pool[rows]))

    @rule(rows=st.lists(_pool_row, min_size=1, max_size=4))
    def add_fresh(self, rows):
        ids = list(range(self.next_id, self.next_id + len(rows)))
        self.next_id += len(rows)
        self._write(ids, rows)

    @rule(picks=st.dictionaries(_live_pick, _pool_row, min_size=1, max_size=3))
    def upsert_live(self, picks):
        rows = dict(zip(self._live(picks), picks.values()))
        self._write(list(rows), list(rows.values()))

    @precondition(lambda self: len(self.model) > 8)
    @rule(
        picks=st.lists(_live_pick, max_size=3),
        never_held=st.lists(st.integers(10**7, 10**7 + 9), max_size=2),
    )
    def delete(self, picks, never_held):
        ids = self._live(picks)
        self.engine.delete(np.array(ids + never_held, dtype=np.int64))
        for identifier in ids:
            self.model.pop(identifier, None)

    @rule()
    def compact(self):
        report = self.engine.compact()
        assert len(self.engine) == len(self.model) == report.n_total
        assert self.engine.n_pending_writes == 0
        index = self.engine.index
        ids = np.array(sorted(self.model))
        labels, codes = index.encode(np.stack([self.model[i] for i in ids]))
        for pid, part in enumerate(index.partitions):
            by_id = np.argsort(part.ids)
            assert np.array_equal(part.ids[by_id], ids[labels == pid])
            assert np.array_equal(
                np.asarray(part.codes)[by_id], codes[labels == pid]
            )

    @rule()
    def save_and_reload(self):
        self.compact()
        self.n_saved += 1
        path = Path(self.tmp.name) / f"saved-{self.n_saved}"
        self.engine.save(path)
        self.engine.close()
        self.engine = self._load(path)
        assert len(self.engine) == len(self.model)

    @rule(row=_pool_row)
    def search(self, row):
        found = self.engine.search(self.pool[row], k=len(self.model) + 5)
        assert sorted(found.ids.tolist()) == sorted(self.model)

    def teardown(self):
        try:
            store = self.engine._delta
            _assert_view_is_reference(
                store.view(self.engine.index),
                _reference_view_of(store, self.engine.index),
            )
            assert store.n_rows == sum(
                len(delta.ids) for delta in store._segments.values()
            )
            self.compact()  # every sequence ends folded and checked
        finally:
            self.engine.close()
            self.tmp.cleanup()


class TestEngineAgainstDictModel:
    # The process backends stay open under ROADMAP item 6.
    @pytest.mark.parametrize(
        "artifact, overrides",
        [
            ("file", dict(mmap=True, scanner="fastpq")),
            ("sharded", dict(executor="thread", scanner="naive")),
        ],
        ids=["file-mmap-fastpq", "two-shard-thread-naive"],
    )
    def test_random_op_sequences(self, model_world, artifact, overrides):
        root, base, pool = model_world
        machine = type(
            "Machine",
            (_EngineAgainstDictModel,),
            dict(
                artifact=root / artifact, overrides=overrides, base=base,
                pool=pool,
            ),
        )
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=15,
                stateful_step_count=30,
                deadline=None,
                suppress_health_check=list(HealthCheck),
            ),
        )


class TestExecutorOverlay:
    """``PlanExecutor.run(delta_view=...)`` against the reference loop.

    The overlay is part of the executors' own pipeline, so a bare
    executor handed a dirty view must answer exactly like the sequential
    per-query loop: same ids, distances, counters and probe lists.
    """

    @pytest.fixture(scope="class")
    def views(self, index, dataset):
        """Overlays on partition 0: tombstones only, adds only, both."""
        # Mutate what the queries actually see: their nearest base rows
        # in partition 0 are deleted, jittered copies of them are added.
        with ANNSearcher(index) as searcher:
            hits = searcher.search(dataset.queries, topk=4, nprobe=2)
        near = np.unique(np.concatenate([hit.ids for hit in hits]))
        near = near[np.isin(near, index.partitions[0].ids)]
        jitter = np.random.default_rng(3).normal(
            scale=0.25, size=(len(near), dataset.base.shape[1])
        )
        pool = np.abs(dataset.base[near] + jitter)
        labels, codes = index.encode(pool)
        landed = labels == 0
        assert landed.sum() >= 4, "fixture needs adds landing in partition 0"
        new_ids = np.arange(10**6, 10**6 + int(landed.sum()), dtype=np.int64)
        views = {}
        for shape in ("masked", "segment", "both"):
            store = DeltaStore()
            if shape != "segment":
                store.apply_delete(near)
            if shape != "masked":
                store.apply_add(labels[landed], codes[landed], new_ids)
            view = store.view(index)
            assert set(view.hits) == ({0} if shape != "segment" else set())
            assert set(view.segments) == ({0} if shape != "masked" else set())
            views[shape] = view
        return views

    @pytest.fixture(scope="class", params=["thread", "process"])
    def executor(self, request, index, pq):
        scanner = PQFastScanner(pq, keep=0.01)
        built = (
            BatchExecutor(index, scanner)
            if request.param == "thread"
            else ProcessBatchExecutor.from_index(index, scanner)
        )
        with built:
            yield built

    @pytest.mark.parametrize("shape", ["masked", "segment", "both"])
    def test_run_with_dirty_view_equals_sequential(
        self, index, pq, dataset, views, executor, shape
    ):
        view = views[shape]
        with ANNSearcher(index, PQFastScanner(pq, keep=0.01)) as searcher:
            expected = searcher.search(
                dataset.queries, topk=10, nprobe=2,
                executor="sequential", delta=view,
            )
            clean = searcher.search(
                dataset.queries, topk=10, nprobe=2, executor="sequential"
            )
        assert not _same_answers(expected, clean)  # the overlay matters here
        got, report = executor.run_with_report(
            dataset.queries, topk=10, nprobe=2, delta_view=view
        )
        assert _fully_identical(expected, got)
        assert report.n_queries == len(dataset.queries)
        assert report.n_jobs == 2  # every planned job, dirty or clean


# -- a tombstone is a filter: the filtered-copy oracle -------------------------


def _filtered_copy_answers(index, queries, view, topk, nprobe):
    """What a dirty read answered when a tombstone meant a copy: each
    probed partition minus its tombstoned rows, and its delta segment,
    each through ``NaiveScanner`` at ``topk``, merged by (distance, id)."""
    answers = []
    for query in queries:
        ids, dists = [], []
        for pid in index.route(query, nprobe=nprobe):
            part = index.partitions[pid]
            keep = ~np.isin(part.ids, view.tombstone_ids)
            scanned = [
                Partition(np.asarray(part.codes)[keep], part.ids[keep], partition_id=pid)
            ]
            if pid in view.segments:
                scanned.append(view.segments[pid])
            tables = index.distance_tables_for(query, pid)
            for partition in scanned:
                result = NaiveScanner().scan(tables, partition, topk=topk)
                ids.append(result.ids)
                dists.append(result.distances)
        answers.append(select_topk(np.concatenate(dists), np.concatenate(ids), topk))
    return answers


def _hit_counts(view):
    """Base rows a tombstone hits, per partition with a hit."""
    return {pid: len(ids) for pid, ids in view.hits.items()}


def _tombstone_world(pq, dataset, topk):
    """A 4-partition index, its queries and one dirty view per case.

    Partition 3 keeps 5 rows, and one id sits in partition 0 and twice
    in partition 1 (on the rows nearest the first query).
    """
    built = IVFADCIndex(pq, n_partitions=4, seed=3).add(dataset.base[:3000])
    queries = dataset.queries

    def nearest(index, pid, query, k):
        tables = index.distance_tables_for(query, pid)
        return NaiveScanner().scan(tables, index.partitions[pid], topk=k).ids

    parts = list(built.partitions)
    parts[3] = Partition(parts[3].codes[:5], parts[3].ids[:5], partition_id=3)
    repeated = int(nearest(built, 0, queries[0], 1)[0])
    ids1 = parts[1].ids.copy()
    ids1[np.isin(ids1, nearest(built, 1, queries[0], 2))] = repeated
    parts[1] = Partition(parts[1].codes, ids1, partition_id=1)
    index = built.with_partitions(parts)

    first = [index.route(query, nprobe=1)[0] for query in queries]
    on_top_k = np.unique(np.concatenate([
        nearest(index, pid, query, topk) for pid, query in zip(first, queries)
    ]))
    upsert_pid = first[1]
    upsert_id = int(nearest(index, upsert_pid, queries[1], 1)[0])
    upsert_row = np.flatnonzero(index.partitions[upsert_pid].ids == upsert_id)
    upsert = (
        np.array([upsert_pid]),
        np.asarray(index.partitions[upsert_pid].codes)[upsert_row],
        np.array([upsert_id]),
    )
    deletes = {
        "true-top-k": on_top_k,
        "emptied": parts[2].ids,
        "short": parts[3].ids[:2],
        "repeated": np.array([repeated]),
    }
    # "all" also tombstones the id a cell's padding carries.
    everything = [*deletes.values(), [np.iinfo(np.int64).max]]
    views = {}
    for name in [*deletes, "upsert", "all"]:
        store = DeltaStore()
        for deleted in everything if name == "all" else [deletes.get(name)]:
            if deleted is not None:
                store.apply_delete(np.asarray(deleted, dtype=np.int64))
        if name in ("upsert", "all"):
            store.apply_add(*upsert)
        views[name] = store.view(index)
    # Each case is the one it is named for.
    hit = {name: _hit_counts(view) for name, view in views.items()}
    assert max(hit["true-top-k"].values()) > topk
    assert hit["emptied"] == {2: len(parts[2].ids)}
    assert hit["short"] == {3: 2} and len(parts[3].ids) < topk + 2
    assert hit["repeated"] == {0: 1, 1: 2}
    assert hit["upsert"] == {upsert_pid: 1}
    assert list(views["upsert"].segments) == [upsert_pid]
    return index, queries, views


def _answers_on(backend, index, scanner_of, queries, views, topk, nprobe):
    """Each view's answers on one executor backend."""
    if backend == "sequential":
        with ANNSearcher(index, scanner_of()) as searcher:
            return {
                name: searcher.search(
                    queries, topk=topk, nprobe=nprobe, executor="sequential",
                    delta=view,
                )
                for name, view in views.items()
            }
    if backend == "sharded":
        sharded = ShardedIndex.from_index(index, n_shards=2)
        with ScatterGatherExecutor(sharded, scanner_of, backend="thread") as executor:
            return {
                name: executor.run(
                    queries, topk=topk, nprobe=nprobe, delta_view=view
                ).results
                for name, view in views.items()
            }
    executor = (
        BatchExecutor(index, scanner_of())
        if backend == "thread"
        else ProcessBatchExecutor.from_index(index, scanner_of())
    )
    with executor:
        return {
            name: executor.run(queries, topk=topk, nprobe=nprobe, delta_view=view)
            for name, view in views.items()
        }


_BACKENDS = ["sequential", "thread", "process", "sharded"]


class TestTombstoneFilterAgainstFilteredCopy:
    """A tombstone is a filter on the one scan path: the base partition,
    scanned by the configured scanner ``t_p`` rows wider, minus its
    tombstoned ids, which the scan drops. The oracle is what it replaced,
    ``NaiveScanner`` over a tombstone-filtered copy of every probed
    partition; every exact kind, on every executor, answers like it
    byte for byte."""

    TOPK, NPROBE = 10, 4

    @pytest.fixture(scope="class")
    def world(self, pq, dataset):
        return _tombstone_world(pq, dataset, self.TOPK)

    @pytest.fixture(scope="class")
    def world4(self, pq4, dataset):
        return _tombstone_world(pq4, dataset, self.TOPK)

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("kind", ["naive", "libpq", "fastpq", "qonly"])
    def test_every_exact_kind_answers_like_the_filtered_copy(
        self, world, backend, kind
    ):
        index, queries, views = world
        got = _answers_on(
            backend, index, lambda: ScannerSpec(kind, keep=0.01).build(index.pq),
            queries, views, self.TOPK, self.NPROBE,
        )
        for name, view in views.items():
            expected = _filtered_copy_answers(
                index, queries, view, self.TOPK, self.NPROBE
            )
            for result, (ids, distances) in zip(got[name], expected):
                assert result.ids.tobytes() == ids.tobytes(), name
                assert result.distances.tobytes() == distances.tobytes(), name

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_quickadc_surfaces_only_live_rows_at_their_adc_distance(
        self, world4, backend
    ):
        index, queries, views = world4
        got = _answers_on(
            backend, index, lambda: ScannerSpec("quickadc", keep=0.01).build(index.pq),
            queries, views, self.TOPK, self.NPROBE,
        )
        n_rows = sum(len(part.ids) for part in index.partitions) + 1
        for name, view in views.items():
            # Every live candidate of every query, at its naive ADC distance.
            live = _filtered_copy_answers(index, queries, view, n_rows, self.NPROBE)
            for result, (ids, distances) in zip(got[name], live):
                assert len(result.ids) == self.TOPK
                pairs = set(zip(ids.tolist(), distances.tolist()))
                assert pairs >= set(
                    zip(result.ids.tolist(), result.distances.tolist())
                ), name


class TestBulkDeleteStaysTopkWide:
    """Deleting every row of a partition widens its scans by as many
    rows, and nothing past them: each scan drops its tombstones and is
    cut back to ``topk`` before it leaves the scan, so the merger's grid
    and what a worker sends back stay ``topk`` wide at a 1 024-query
    batch (whose widened scans run in two halves)."""

    TOPK, NPROBE = 10, 4

    @pytest.mark.parametrize("backend", ["thread", "process", "sharded"])
    def test_an_emptied_partition_at_1024_queries(
        self, pq, dataset, monkeypatch, backend
    ):
        index = IVFADCIndex(pq, n_partitions=4, seed=3).add(dataset.base[:8000])
        queries = dataset.base[-1024:]
        emptied = max(range(4), key=lambda pid: len(index.partitions[pid]))
        store = DeltaStore()
        store.apply_delete(index.partitions[emptied].ids)
        view = store.view(index)
        width = self.TOPK + len(index.partitions[emptied])
        assert len(queries) * width > _WIDE_SCAN_CELLS  # more than one run
        widths = []
        results = StreamingMerger.results

        def spy(merger, **kwargs):
            widths.append(merger._ids.shape[2])
            return results(merger, **kwargs)

        monkeypatch.setattr(StreamingMerger, "results", spy)
        got = _answers_on(
            backend, index, lambda: ScannerSpec("fastpq", keep=0.01).build(index.pq),
            queries, {"emptied": view}, self.TOPK, self.NPROBE,
        )["emptied"]
        assert widths and max(widths) <= self.TOPK
        expected = _filtered_copy_answers(index, queries, view, self.TOPK, self.NPROBE)
        for result, (ids, distances) in zip(got, expected):
            assert result.ids.tobytes() == ids.tobytes()
            assert result.distances.tobytes() == distances.tobytes()


class TestOneScanPath:
    """The configured scanner is the only one that reads a base
    partition: a deletes-only fastpq engine scans nothing naive."""

    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(executor="process"), dict(n_shards=2)],
        ids=["thread", "process", "two-shard-thread"],
    )
    def test_a_deletes_only_fastpq_engine_counts_no_naive_scan(
        self, dataset, overrides
    ):
        obs = Observability(enabled=True)
        scanned = obs.metrics.get("repro_vectors_scanned_total")
        pruned = obs.metrics.get("repro_vectors_pruned_total")
        with Engine.build(
            dataset.base[:3000], mutable=True, scanner="fastpq", n_partitions=4,
            nprobe=2, max_iter=2, coarse_max_iter=3, seed=1, observability=obs,
            **{"executor": "thread", **overrides},
        ) as engine:
            clean = engine.search(dataset.queries, k=10)
            deleted = np.concatenate([result.ids[:3] for result in clean])
            engine.delete(deleted)
            before = (scanned.value(scanner="fastpq"), pruned.value(scanner="fastpq"))
            dirty = engine.search(dataset.queries, k=10)
        assert scanned.value(scanner="naive") == 0
        assert scanned.value(scanner="fastpq") - before[0] == sum(
            result.n_scanned for result in dirty
        )
        assert pruned.value(scanner="fastpq") - before[1] == sum(
            result.n_pruned for result in dirty
        )
        assert not np.isin(np.concatenate([r.ids for r in dirty]), deleted).any()


class TestServingDuringCompaction:
    """S4: the serving layer across a background generation swap."""

    def test_served_reads_identical_across_generation_swap(
        self, artifact, churn, tmp_path
    ):
        _, new_vectors, new_ids, delete_ids, clean_queries = churn
        copy = _copy_artifact(artifact, tmp_path)
        with Engine.load(
            artifact, nprobe=2, executor="thread"
        ) as readonly, Engine.load(
            copy, nprobe=2, executor="thread", mutable=True
        ) as mutable:
            expected = readonly.search(clean_queries, k=10)
            mutable.add(new_vectors, new_ids)
            mutable.delete(delete_ids)
            server = MicroBatchServer.for_engine(mutable, k=10)
            compaction_error: list[BaseException] = []

            def compact_in_background() -> None:
                try:
                    mutable.compact()
                except BaseException as exc:  # noqa: BLE001 - recorded
                    compaction_error.append(exc)

            async def serve_through_swap() -> list:
                served = []
                async with server:
                    thread = threading.Thread(target=compact_in_background)
                    thread.start()
                    try:
                        while thread.is_alive():
                            for q in clean_queries:
                                result = await server.search(q)
                                assert result.ok
                                served.append(result.result)
                    finally:
                        thread.join()
                    for q in clean_queries:  # post-swap flushes too
                        result = await server.search(q)
                        assert result.ok
                        served.append(result.result)
                return served

            served = asyncio.run(serve_through_swap())
            assert not compaction_error
            assert mutable.generation == 1
            n = len(clean_queries)
            assert len(served) >= 2 * n
            for i, result in enumerate(served):
                want = expected[i % n]
                assert result.ids.tobytes() == want.ids.tobytes()
                assert (
                    result.distances.tobytes() == want.distances.tobytes()
                )
            server.close()

    def test_served_write_then_read_your_write(self, artifact, churn, tmp_path):
        _, new_vectors, new_ids, delete_ids, _ = churn
        copy = _copy_artifact(artifact, tmp_path)
        with Engine.load(
            copy, scanner="naive", nprobe=4, executor="thread", mutable=True
        ) as mutable:
            server = MicroBatchServer.for_engine(mutable, k=10)

            async def scenario() -> None:
                async with server:
                    added = await server.add(
                        new_vectors[0], int(new_ids[0])
                    )
                    assert added.ok and added.result is None
                    found = await server.search(new_vectors[0])
                    assert new_ids[0] in found.result.ids
                    deleted = await server.delete(int(new_ids[0]))
                    assert deleted.ok
                    gone = await server.search(new_vectors[0])
                    assert new_ids[0] not in gone.result.ids

            asyncio.run(scenario())
            server.close()

    def test_read_only_server_refuses_writes(self, artifact, churn):
        _, new_vectors, new_ids, _, _ = churn
        with Engine.load(artifact) as readonly:
            server = MicroBatchServer.for_engine(readonly, k=5)

            async def attempt() -> None:
                with pytest.raises(ConfigurationError, match="writable"):
                    await server.add(new_vectors[0], int(new_ids[0]))

            asyncio.run(attempt())
            server.close()
