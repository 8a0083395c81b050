"""repro.Engine facade: config validation, build/search/save/load."""

from __future__ import annotations

import dataclasses
import multiprocessing
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import SCANNER_KINDS, Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.obs import Observability, observability_session
from repro.shard import ShardedResponse


@pytest.fixture(scope="module")
def small_data(dataset):
    return dataset.base[:2500]


@pytest.fixture(scope="module")
def queries(dataset):
    return dataset.queries[:12]


@pytest.fixture(scope="module")
def flat_engine(small_data):
    with Engine.build(
        small_data, EngineConfig(m=8, bits=8, n_partitions=8, nprobe=3, max_iter=4)
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def sharded_engine(small_data):
    with Engine.build(
        small_data,
        EngineConfig(
            m=8, bits=8, n_partitions=8, n_shards=4, nprobe=3, max_iter=4,
            n_workers=2,
        ),
    ) as engine:
        yield engine


def _assert_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.ids.tobytes() == rb.ids.tobytes()
        assert ra.distances.tobytes() == rb.distances.tobytes()
        assert (ra.n_scanned, ra.n_pruned, ra.probed) == (
            rb.n_scanned, rb.n_pruned, rb.probed
        )


class TestEngineConfig:
    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.nprobe = 5

    def test_defaults_are_valid(self):
        EngineConfig()  # must not raise

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"bits": 0},
            {"bits": 17},
            {"n_partitions": 0},
            {"n_shards": 0},
            {"n_shards": 9, "n_partitions": 8},
            {"shard_layout": "hashed"},
            {"scanner": "simd9000"},
            {"keep": 1.5},
            {"nprobe": 0},
            {"nprobe": 9, "n_partitions": 8},
            {"n_workers": 0},
            {"deadline_s": 0.0},
            {"max_retries": -1},
            {"backoff_s": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kind, m, bits, fits",
        [
            ("libpq", 8, 4, True),
            ("libpq", 16, 8, False),
            ("libpq", 8, 9, False),
            ("fastpq", 16, 4, False),
            ("qonly", 8, 4, False),
            ("quickadc", 16, 8, False),
        ],
    )
    def test_code_shape_checked_where_the_config_is_made(self, kind, m, bits, fits):
        """Not after ``Engine.build`` trained the index, nor on the first search."""
        if fits:
            assert EngineConfig(scanner=kind, m=m, bits=bits).scanner == kind
            return
        with pytest.raises(ConfigurationError, match=f"scanner='{kind}' requires"):
            EngineConfig(scanner=kind, m=m, bits=bits)

    def test_hashable_and_comparable(self):
        assert EngineConfig() == EngineConfig()
        assert hash(EngineConfig(nprobe=2)) == hash(EngineConfig(nprobe=2))
        assert EngineConfig(nprobe=2) != EngineConfig(nprobe=3)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            EngineConfig(executor="fiber")

    def test_auto_executor_resolution(self):
        # "auto" picks the process backend only where it pays: sharded
        # deployments. Unsharded engines stay on the in-process path.
        assert EngineConfig().resolved_executor == "thread"
        assert (
            EngineConfig(n_shards=4, n_partitions=8).resolved_executor
            == "process"
        )
        assert (
            EngineConfig(executor="thread", n_shards=4, n_partitions=8)
            .resolved_executor
            == "thread"
        )
        assert EngineConfig(executor="process").resolved_executor == "process"


class TestEngineBuildAndSearch:
    def test_len_and_repr(self, flat_engine, small_data):
        assert len(flat_engine) == len(small_data)
        text = repr(flat_engine)
        assert "n_shards=1" in text and "fastpq" in text

    def test_flat_and_sharded_engines_answer_identically(
        self, flat_engine, sharded_engine, queries
    ):
        flat = flat_engine.search(queries, k=10)
        sharded = sharded_engine.search(queries, k=10)
        for a, b in zip(flat, sharded):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_single_query_returns_single_result(self, sharded_engine, queries):
        result = sharded_engine.search(queries[0], k=5)
        assert result.ids.shape == (5,)

    def test_nprobe_override(self, flat_engine, queries):
        default = flat_engine.search(queries[0], k=5)
        wide = flat_engine.search(queries[0], k=5, nprobe=8)
        assert len(wide.probed) == 8
        assert len(default.probed) == flat_engine.config.nprobe

    @pytest.mark.parametrize("kind", ["naive", "libpq", "fastpq", "qonly"])
    def test_every_scanner_kind_builds_and_searches(self, small_data, queries, kind):
        with Engine.build(
            small_data,
            EngineConfig(n_partitions=4, nprobe=2, scanner=kind, max_iter=2),
        ) as engine:
            results = engine.search(queries[:4], k=5)
        assert len(results) == 4

    def test_search_detailed_uniform_response(
        self, flat_engine, sharded_engine, queries
    ):
        for engine in (flat_engine, sharded_engine):
            response = engine.search_detailed(queries, k=10)
            assert isinstance(response, ShardedResponse)
            assert not response.partial
            assert len(response.results) == len(queries)

    def test_rerank_requires_kept_vectors(
        self, small_data, queries, flat_engine, sharded_engine
    ):
        for engine in (flat_engine, sharded_engine):
            with pytest.raises(ConfigurationError, match="keep_vectors"):
                engine.search(queries, k=5, rerank=50)
        config = EngineConfig(
            n_partitions=8, nprobe=3, keep_vectors=True, max_iter=4,
            executor="thread",
        )
        with Engine.build(small_data, config) as flat, Engine.build(
            small_data, config, n_shards=2
        ) as sharded:
            reranked = flat.search(queries, k=5, rerank=50)
            assert len(reranked) == len(queries)
            with pytest.raises(ConfigurationError, match="shortlist"):
                flat.search(queries, k=5, rerank=4)
            # Sharding is a plan transform: the shortlist, hence the
            # exact re-ranking of it, is the unsharded one byte for byte.
            _assert_identical(reranked, sharded.search(queries, k=5, rerank=50))
            _assert_identical(
                reranked[:1], [sharded.search(queries[0], k=5, rerank=50)]
            )

    def test_custom_ids_surface_in_results(self, small_data, queries):
        ids = np.arange(len(small_data), dtype=np.int64) + 1_000_000
        with Engine.build(
            small_data,
            EngineConfig(n_partitions=4, nprobe=2, max_iter=2),
            ids=ids,
        ) as engine:
            result = engine.search(queries[0], k=5)
        assert (result.ids >= 1_000_000).all()

    def test_constructor_shard_config_mismatch_rejected(self, flat_engine):
        with pytest.raises(ConfigurationError):
            Engine(flat_engine.index, EngineConfig(n_shards=2, n_partitions=8))


class TestEnginePersistence:
    def test_flat_round_trip(self, flat_engine, queries, tmp_path):
        path = tmp_path / "flat.npz"
        flat_engine.save(path)
        before = flat_engine.search(queries, k=10)
        with Engine.load(path, EngineConfig(nprobe=3)) as loaded:
            assert loaded.n_shards == 1
            after = loaded.search(queries, k=10)
        for a, b in zip(before, after):
            assert np.array_equal(a.ids, b.ids)

    def test_sharded_round_trip(self, sharded_engine, queries, tmp_path):
        path = tmp_path / "sharded.d"
        sharded_engine.save(path)
        before = sharded_engine.search(queries, k=10)
        with Engine.load(path, EngineConfig(nprobe=3, n_workers=2)) as loaded:
            assert loaded.n_shards == 4
            after = loaded.search(queries, k=10)
        for a, b in zip(before, after):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_load_reshards_flat_artifact(self, flat_engine, queries, tmp_path):
        path = tmp_path / "flat.npz"
        flat_engine.save(path)
        before = flat_engine.search(queries, k=10)
        with Engine.load(path, EngineConfig(nprobe=3, n_shards=2)) as loaded:
            assert loaded.n_shards == 2
            after = loaded.search(queries, k=10)
        for a, b in zip(before, after):
            assert np.array_equal(a.ids, b.ids)

    def test_load_derives_build_fields_from_artifact(
        self, flat_engine, tmp_path
    ):
        path = tmp_path / "flat.npz"
        flat_engine.save(path)
        # Conflicting build-time fields in the load config are overridden
        # by what the artifact actually contains.
        with Engine.load(path, EngineConfig(m=4, n_partitions=2)) as loaded:
            assert loaded.config.m == 8
            assert loaded.config.n_partitions == 8

    def test_load_validates_overrides_against_the_artifact(
        self, small_data, queries, tmp_path
    ):
        # Regression: the overrides used to be validated against the
        # default bits=8 / n_partitions=8 before the artifact's own
        # fields replaced them, so both loads below raised.
        path = tmp_path / "fourbit.npz"
        with Engine.build(
            small_data, m=16, bits=4, n_partitions=16, scanner="naive",
            max_iter=2, coarse_max_iter=2,
        ) as built:
            built.save(path)
        with Engine.load(path, scanner="quickadc") as loaded:
            assert (loaded.config.scanner, loaded.config.bits) == ("quickadc", 4)
            assert len(loaded.search(queries, k=5)) == len(queries)
        with Engine.load(path, scanner="naive", nprobe=12) as loaded:
            assert (loaded.config.nprobe, loaded.config.n_partitions) == (12, 16)
        # A request beyond the artifact's partitions is still clamped.
        config = EngineConfig(scanner="naive", n_partitions=64, nprobe=32)
        with Engine.load(path, config) as loaded:
            assert loaded.config.nprobe == 16


# -- one executor per epoch -------------------------------------------------------


_SMALL = dict(
    n_partitions=4, nprobe=2, max_iter=2, coarse_max_iter=2, scanner="naive"
)


class TestOneExecutorPerEpoch:
    """Every entry point of an engine is served by its one executor."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_explicit_observability_handle_sees_every_entry_point(
        self, small_data, queries, n_shards
    ):
        # Regression: with n_shards=1, search() went through a searcher
        # that never received the handle and recorded into the default.
        handle = Observability(enabled=True)
        with observability_session() as default, Engine.build(
            small_data, observability=handle, executor="thread",
            n_shards=n_shards, **_SMALL,
        ) as engine:
            for call in (
                lambda: engine.search(queries, k=5),
                lambda: engine.search(queries[0], k=5),
                lambda: engine.search_detailed(queries, k=5),
            ):
                handle.tracer.clear()
                call()
                assert {"route", "tables", "scan", "merge"} <= set(
                    handle.tracer.stage_summary()
                )
        assert default.tracer.stage_summary() == {}
        assert default.snapshot()["counters"]["repro_batches_total"] == []

    @pytest.mark.parametrize("mutable", [False, True])
    def test_process_engine_holds_one_pool_and_one_temp_copy(
        self, small_data, queries, tmp_path, mutable
    ):
        def temp_dirs() -> set[Path]:
            return set(Path(tempfile.gettempdir()).glob("repro-*"))

        # Relative to what the session already holds (the module-scoped
        # sharded engine above keeps its pools until module teardown).
        dirs_before = temp_dirs()
        pids_before = {p.pid for p in multiprocessing.active_children()}

        def n_workers_alive() -> int:
            return sum(
                p.pid not in pids_before
                for p in multiprocessing.active_children()
            )

        def churn_and_compact(engine: Engine) -> None:
            engine.add(small_data[:3] + 0.5, np.arange(3) + 10**6)
            engine.delete(np.arange(3))
            assert engine.compact().generation == 1

        engine = Engine.build(
            small_data, executor="process", n_workers=1, n_shards=1,
            mutable=mutable, **_SMALL,
        )
        try:
            steps = [
                lambda: None,
                lambda: engine.search(queries, k=5),
                lambda: engine.search(queries[0], k=5),
                lambda: engine.search_detailed(queries, k=5),
            ]
            if mutable:
                steps.append(lambda: churn_and_compact(engine))
            for step in steps:
                step()
                assert n_workers_alive() == 1
                assert len(temp_dirs() - dirs_before) == 1
            engine.save(tmp_path / "flat.npz")
        finally:
            engine.close()
        assert n_workers_alive() == 0
        assert temp_dirs() == dirs_before
        # Workers of an engine loaded from a file attach to that file.
        with Engine.load(
            tmp_path / "flat.npz", executor="process", nprobe=2, scanner="naive"
        ) as loaded:
            loaded.search(queries, k=5)
            loaded.search_detailed(queries, k=5)
            assert n_workers_alive() == 1
            assert temp_dirs() == dirs_before
        assert n_workers_alive() == 0

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_one_query_is_the_batch_of_one(
        self, small_data, queries, executor, n_shards
    ):
        with Engine.build(
            small_data, executor=executor, n_shards=n_shards, mutable=True,
            **_SMALL,
        ) as engine:
            clean = engine.search(queries, k=5)
            # Dirty both halves of the overlay where the queries look:
            # tombstone each query's best hit, add a row next to it.
            engine.delete(np.array([r.ids[0] for r in clean]))
            engine.add(queries + 0.25, np.arange(len(queries)) + 10**6)
            dirty = engine.search(queries, k=5)
            assert any(
                a.ids.tobytes() != b.ids.tobytes() for a, b in zip(clean, dirty)
            )
            singles = [engine.search(query, k=5) for query in queries]
            _assert_identical(dirty, singles)
            assert engine.compact().n_folded == len(queries)
            _assert_identical(
                engine.search(queries, k=5),
                [engine.search(query, k=5) for query in queries],
            )

    def test_one_shard_thread_engine_still_warns_about_gil_once(
        self, small_data, queries
    ):
        with pytest.warns(RuntimeWarning, match="GIL-bound") as caught:
            with Engine.build(
                small_data, executor="thread", n_workers=2, n_shards=1,
                mutable=True, **_SMALL,
            ) as engine:
                engine.search(queries, k=5)
                engine.search(queries[0], k=5)
                engine.search_detailed(queries, k=5)
                engine.add(queries[:1], np.array([10**6]))
                engine.compact()
                engine.search(queries, k=5)
        assert sum("GIL-bound" in str(w.message) for w in caught) == 1


class TestOutsideInputRefusedAtTheDoor:
    """Ids, rows and queries from outside end in one typed error each,
    not in a silently wrong row or a different failure per path."""

    @pytest.fixture(scope="class")
    def mutable(self, small_data):
        with Engine.build(small_data, mutable=True, **_SMALL) as engine:
            yield engine

    @pytest.mark.parametrize(
        "ids",
        [np.array([1.5]), np.array([2.9]), np.array(["7"]), np.array([True])],
        ids=["float", "float-again", "str", "bool"],
    )
    def test_write_ids_are_checked_not_cast(self, mutable, small_data, ids):
        # Each of these was a write to some other row at the parent
        # (1.5 upserted id 1, 2.9 deleted id 2, "7" id 7, True id 1).
        with pytest.raises(ConfigurationError, match="integers, got dtype"):
            mutable.add(small_data[:1], ids)
        with pytest.raises(ConfigurationError, match="integers, got dtype"):
            mutable.delete(ids)
        assert mutable.n_pending_writes == 0

    def test_build_ids_are_checked_not_truncated(self, small_data):
        with pytest.raises(ConfigurationError, match="integers, got dtype"):
            Engine.build(
                small_data, ids=np.arange(len(small_data)) + 0.5, **_SMALL
            )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_is_not_added(self, mutable, small_data, bad):
        row = small_data[:1].copy()
        row[0, 3] = bad
        with pytest.raises(ConfigurationError, match="vectors must be finite"):
            mutable.add(row, [9009])
        assert mutable.n_pending_writes == 0

    @pytest.mark.parametrize("kind", SCANNER_KINDS)
    def test_non_finite_query_is_one_error_on_every_path(
        self, small_data, queries, kind
    ):
        # At the parent: PAD_ID as a neighbour (1-D, naive), a retried
        # "sharded search degraded" (naive, fastpq), an empty answer
        # (libpq), "quantization bounds must be finite" (qonly).
        batch = queries[:4].copy()
        batch[1, 0] = np.nan
        shape = dict(m=16, bits=4) if kind == "quickadc" else {}
        with Engine.build(
            small_data, **{**_SMALL, "scanner": kind}, **shape
        ) as engine:
            for bad in (batch, batch[1]):
                with pytest.raises(
                    ConfigurationError, match="queries must be finite"
                ):
                    engine.search(bad, k=5)
                with pytest.raises(
                    ConfigurationError, match="queries must be finite"
                ):
                    engine.search_detailed(bad, k=5)
            assert len(engine.search(queries[:4], k=5)) == 4
