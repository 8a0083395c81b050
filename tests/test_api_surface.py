"""Public-API surface: snapshot stability and the retired shims.

Two contracts live here:

* the exported surface (every ``__all__`` symbol plus top-level
  signatures) matches the committed ``tools/public_api.json`` snapshot,
  so API changes are explicit diffs, and removals cannot ship silently;
* the pre-1.1 call shapes are gone: positional configuration is a
  ``TypeError`` and the ``search_batch`` family no longer exists.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

import repro
from repro import ANNSearcher, BatchExecutor, Engine, EngineConfig, IVFADCIndex
from repro.scan import NaiveScanner

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.api_snapshot import SNAPSHOT_PATH, build_snapshot, check  # noqa: E402


# -- snapshot -------------------------------------------------------------------


class TestPublicApiSnapshot:
    def test_snapshot_file_is_committed(self):
        assert SNAPSHOT_PATH.exists(), (
            "tools/public_api.json missing; regenerate with "
            "`PYTHONPATH=src python -m tools.api_snapshot --write`"
        )

    def test_surface_matches_snapshot(self):
        committed = json.loads(SNAPSHOT_PATH.read_text())
        problems = check(build_snapshot(), committed)
        assert not problems, "\n".join(problems)

    def test_facade_symbols_are_exported(self):
        for symbol in (
            "Engine",
            "EngineConfig",
            "ShardedIndex",
            "ScatterGatherExecutor",
            "ShardedResponse",
            "ShardStatus",
            "save_sharded_index",
            "load_sharded_index",
            "merge_partials",
            "combine_worker_stats",
        ):
            assert symbol in repro.__all__
            assert hasattr(repro, symbol)

    def test_every_all_entry_resolves(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol), f"repro.__all__ lists missing {symbol}"


# -- signatures of the stable facade --------------------------------------------


class TestFacadeSignatures:
    def test_engine_entry_points(self):
        build = inspect.signature(Engine.build)
        assert list(build.parameters)[:2] == ["vectors", "config"]
        load = inspect.signature(Engine.load)
        assert list(load.parameters)[:2] == ["path", "config"]
        search = inspect.signature(Engine.search)
        assert list(search.parameters)[:3] == ["self", "queries", "k"]
        assert search.parameters["nprobe"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_engine_config_fields(self):
        names = {f.name for f in EngineConfig.__dataclass_fields__.values()}
        assert {
            "m", "bits", "n_partitions", "n_shards", "scanner", "keep",
            "nprobe", "n_workers", "deadline_s", "max_retries", "backoff_s",
            "mutable",
        } <= names

    def test_engine_entry_points_take_config_overrides(self):
        for method in (Engine.build, Engine.load):
            sig = inspect.signature(method)
            kinds = {p.kind for p in sig.parameters.values()}
            assert inspect.Parameter.VAR_KEYWORD in kinds

    def test_unknown_config_override_raises(self, dataset):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown EngineConfig"):
            Engine.build(dataset.base, n_partitoins=4)

    def test_searcher_unified_search(self):
        sig = inspect.signature(ANNSearcher.search)
        assert sig.parameters["executor"].kind is inspect.Parameter.KEYWORD_ONLY
        assert sig.parameters["n_workers"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_constructors_take_config_keyword_only(self):
        for cls, core in (
            (IVFADCIndex, ["pq"]),
            (BatchExecutor, ["index", "scanner"]),
        ):
            sig = inspect.signature(cls.__init__)
            params = list(sig.parameters.values())[1:]
            positional = [
                p.name for p in params
                if p.kind is inspect.Parameter.POSITIONAL_ONLY
            ]
            assert positional == core
            keyword_only = {
                p.name for p in params
                if p.kind is inspect.Parameter.KEYWORD_ONLY
            }
            assert keyword_only  # all config reachable by keyword only


# -- deprecation shims ----------------------------------------------------------


@pytest.fixture(scope="module")
def searcher(index):
    return ANNSearcher(index, NaiveScanner())


@pytest.fixture(scope="module")
def queries_2d(dataset):
    return dataset.queries[:8]


class TestDeprecationShims:
    def test_ivfadc_too_many_positionals_raise(self, pq):
        for positionals in ((4,), (4, 20)):
            with pytest.raises(TypeError):
                IVFADCIndex(pq, *positionals)

    def test_sequential_executor_kind_validated(self, searcher, queries_2d):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="executor"):
            searcher.search(queries_2d, topk=5, executor="warp-drive")
