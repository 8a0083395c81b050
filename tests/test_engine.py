"""repro.Engine facade: config validation, build/search/save/load."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.shard import ShardedResponse


@pytest.fixture(scope="module")
def small_data(dataset):
    return dataset.base[:2500]


@pytest.fixture(scope="module")
def queries(dataset):
    return dataset.queries[:12]


@pytest.fixture(scope="module")
def flat_engine(small_data):
    return Engine.build(
        small_data, EngineConfig(m=8, bits=8, n_partitions=8, nprobe=3, max_iter=4)
    )


@pytest.fixture(scope="module")
def sharded_engine(small_data):
    return Engine.build(
        small_data,
        EngineConfig(
            m=8, bits=8, n_partitions=8, n_shards=4, nprobe=3, max_iter=4,
            n_workers=2,
        ),
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
        engine = Engine.build(
            small_data,
            EngineConfig(n_partitions=4, nprobe=2, scanner=kind, max_iter=2),
        )
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

    def test_rerank_requires_kept_vectors_and_unsharded(
        self, small_data, queries, sharded_engine
    ):
        engine = Engine.build(
            small_data,
            EngineConfig(n_partitions=8, nprobe=3, keep_vectors=True, max_iter=4),
        )
        reranked = engine.search(queries, k=5, rerank=50)
        assert len(reranked) == len(queries)
        with pytest.raises(ConfigurationError, match="rerank"):
            sharded_engine.search(queries, k=5, rerank=50)

    def test_custom_ids_surface_in_results(self, small_data, queries):
        ids = np.arange(len(small_data), dtype=np.int64) + 1_000_000
        engine = Engine.build(
            small_data,
            EngineConfig(n_partitions=4, nprobe=2, max_iter=2),
            ids=ids,
        )
        result = engine.search(queries[0], k=5)
        assert (result.ids >= 1_000_000).all()

    def test_constructor_shard_config_mismatch_rejected(self, flat_engine):
        with pytest.raises(ConfigurationError):
            Engine(flat_engine.index, EngineConfig(n_shards=2, n_partitions=8))


class TestEnginePersistence:
    def test_flat_round_trip(self, flat_engine, queries, tmp_path):
        path = tmp_path / "flat.npz"
        flat_engine.save(path)
        loaded = Engine.load(path, EngineConfig(nprobe=3))
        assert loaded.n_shards == 1
        before = flat_engine.search(queries, k=10)
        after = loaded.search(queries, k=10)
        for a, b in zip(before, after):
            assert np.array_equal(a.ids, b.ids)

    def test_sharded_round_trip(self, sharded_engine, queries, tmp_path):
        path = tmp_path / "sharded.d"
        sharded_engine.save(path)
        loaded = Engine.load(path, EngineConfig(nprobe=3, n_workers=2))
        assert loaded.n_shards == 4
        before = sharded_engine.search(queries, k=10)
        after = loaded.search(queries, k=10)
        for a, b in zip(before, after):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_load_reshards_flat_artifact(self, flat_engine, queries, tmp_path):
        path = tmp_path / "flat.npz"
        flat_engine.save(path)
        loaded = Engine.load(path, EngineConfig(nprobe=3, n_shards=2))
        assert loaded.n_shards == 2
        before = flat_engine.search(queries, k=10)
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
        loaded = Engine.load(path, EngineConfig(m=4, n_partitions=2))
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
