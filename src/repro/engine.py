"""repro.Engine — the one-stop facade over the query pipeline.

Everything the library can do — train a product quantizer, build an
IVFADC index, shard it, scan with any Step-3 scanner, persist and
reload — is reachable through three calls::

    from repro import Engine, EngineConfig

    engine = Engine.build(vectors, EngineConfig(n_partitions=64, n_shards=4))
    results = engine.search(queries, k=10)
    engine.save("catalog.d")
    engine = Engine.load("catalog.d")

:class:`EngineConfig` is a frozen dataclass: one immutable value object
holds every build-time and query-time knob, validated on construction,
so a configuration is hashable, comparable and printable — and cannot
drift between the build and the queries it serves.  :meth:`Engine.build`
and :meth:`Engine.load` also accept the config fields directly as
keyword overrides (``Engine.build(vectors, n_partitions=64)``) — the
kwargs are merged into the config through :func:`dataclasses.replace`,
so there is exactly one set of knobs whichever spelling you use.

Mutable engines (``mutable=True``) add a write API on top of the same
read path: :meth:`Engine.add` and :meth:`Engine.delete` accumulate in an
in-memory delta overlay (:mod:`repro.delta`) while the base artifact
stays immutable, and :meth:`Engine.compact` folds the drained overlay
(the codes ``add`` made, as they are) into a new base *generation* —
atomically re-saving the artifact, and swapping the executor under an
epoch scheme that lets in-flight readers finish on the old base
untouched.  Queries that probe no mutated partition stay
byte-identical to the read-only engine throughout.

The facade adds no new algorithmic behavior: every query of an epoch
goes through that epoch's one :class:`~repro.shard.ScatterGatherExecutor`
(an unsharded index is the one-shard split, scanned on the caller's
thread), and the byte-identity contract of that layer carries through —
the same config answers identically, and ``deadline_s`` / ``max_retries``
mean the same, whether ``n_shards`` is 1 or 8.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, cast

import numpy as np

if TYPE_CHECKING:
    from .delta.store import DeltaView

from .delta import CompactionReport, DeltaStore, fold_index
from .exceptions import ConfigurationError
from .ivf.inverted_index import IVFADCIndex, as_database_ids
from .obs import Observability, get_observability
from .parallel.spec import SCANNER_KINDS, ScannerSpec, check_code_shape
from .persistence import (
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from .pq.product_quantizer import ProductQuantizer
from .scan import PartitionScanner
from .search import (
    GATHER_TIMEOUT_S,
    SearchResult,
    _check_rerank,
    _rerank_exact,
    _warn_gil_bound,
)
from .shard import ScatterGatherExecutor, ShardedIndex, ShardedResponse

__all__ = ["Engine", "EngineConfig", "SCANNER_KINDS"]


@dataclass(frozen=True)
class EngineConfig:
    """Immutable configuration of an :class:`Engine`.

    Build-time fields (``m`` … ``seed``) shape the index; query-time
    fields (``scanner`` … ``backoff_s``) shape how batches execute. All
    fields are keyword-friendly with production-ready defaults, and all
    of them may equally be passed as keyword overrides to
    :meth:`Engine.build` / :meth:`Engine.load`.

    Attributes:
        m: PQ sub-quantizer count (the paper targets PQ 8×8).
        bits: bits per sub-quantizer index (8 for byte codes).
        n_partitions: coarse Voronoi cells of the IVFADC index.
        n_shards: shards the index is split across (1 = unsharded).
        shard_layout: ``"modulo"`` or ``"contiguous"`` partition
            placement (see :meth:`~repro.shard.ShardedIndex.from_index`).
        encode_residuals: IVFADC residual encoding (paper default True).
        max_iter: k-means iterations for PQ training.
        coarse_max_iter: k-means iterations for the coarse quantizer.
        seed: RNG seed for PQ and coarse training.
        keep_vectors: retain the raw vectors inside the engine to enable
            exact re-ranking (``rerank=`` in :meth:`Engine.search`).
            Incompatible with ``mutable=True`` (the kept array cannot
            track streaming writes).
        mutable: enable the write API — :meth:`Engine.add`,
            :meth:`Engine.delete` and :meth:`Engine.compact`. Reads on a
            mutable engine merge the uncompacted delta overlay; queries
            probing only unmutated partitions stay byte-identical to a
            read-only engine on the same data.
        scanner: Step-3 scanner kind, one of :data:`SCANNER_KINDS`
            (stated, with the ``m`` x ``bits`` code shape each can
            scan, in :mod:`repro.parallel.spec`): ``"quickadc"`` needs
            ``bits=4``, ``"fastpq"`` and ``"qonly"`` ``bits=8``,
            ``"libpq"`` ``m=8`` byte codes.
        keep: keep/sample fraction of PQ Fast Scan and Quick ADC
            (ignored by baselines).
        nprobe: default partitions probed per query.
        n_workers: workers (per shard, when sharded) — threads for
            ``executor="thread"``, processes for ``executor="process"``.
        executor: ``"auto"`` (default) resolves to ``"process"`` for
            sharded engines (``n_shards > 1`` — pinned per-shard process
            pools whose workers mmap the saved shard artifacts) and
            ``"thread"`` for unsharded ones; ``"thread"`` forces the
            GIL-bound thread executor, ``"process"`` the zero-copy
            process pool (:mod:`repro.parallel`) everywhere. Results are
            byte-identical across all three.
        deadline_s: per-shard gather deadline (None = wait forever).
        max_retries: transient-failure retries per shard per batch.
        backoff_s: initial retry backoff, doubled per attempt.
    """

    m: int = 8
    bits: int = 8
    n_partitions: int = 8
    n_shards: int = 1
    shard_layout: str = "modulo"
    encode_residuals: bool = True
    max_iter: int = 20
    coarse_max_iter: int = 20
    seed: int = 0
    keep_vectors: bool = False
    mutable: bool = False
    scanner: str = "fastpq"
    keep: float = 0.005
    nprobe: int = 1
    n_workers: int = 1
    executor: str = "auto"
    deadline_s: float | None = None
    max_retries: int = 1
    backoff_s: float = 0.02

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        if self.bits < 1 or self.bits > 16:
            raise ConfigurationError(f"bits must be in [1, 16], got {self.bits}")
        if self.n_partitions < 1:
            raise ConfigurationError(
                f"n_partitions must be >= 1, got {self.n_partitions}"
            )
        if not 1 <= self.n_shards <= self.n_partitions:
            raise ConfigurationError(
                f"n_shards must be in [1, n_partitions={self.n_partitions}], "
                f"got {self.n_shards}"
            )
        if self.shard_layout not in ("modulo", "contiguous"):
            raise ConfigurationError(
                f"unknown shard_layout {self.shard_layout!r}"
            )
        if self.mutable and self.keep_vectors:
            raise ConfigurationError(
                "keep_vectors=True (exact re-ranking) is not supported with "
                "mutable=True: the kept vector array cannot track streaming "
                "writes — compact into a read-only engine to re-rank"
            )
        check_code_shape(self.scanner, self.m, self.bits)
        if not 0.0 <= self.keep <= 1.0:
            raise ConfigurationError(f"keep must be in [0, 1], got {self.keep}")
        if not 1 <= self.nprobe <= self.n_partitions:
            raise ConfigurationError(
                f"nprobe must be in [1, n_partitions={self.n_partitions}], "
                f"got {self.nprobe}"
            )
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.executor not in ("auto", "thread", "process"):
            raise ConfigurationError(
                "executor must be 'auto', 'thread' or 'process', got "
                f"{self.executor!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive (or None), got {self.deadline_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )

    @property
    def resolved_executor(self) -> str:
        """The concrete backend ``"auto"`` resolves to.

        Sharded engines default to the process backend — per-shard
        pools of workers attached to the mmapped shard artifacts, the
        only backend whose throughput grows with cores. Unsharded
        engines default to the thread executor: no artifact or worker
        processes needed, and single-index batches are dominated by
        NumPy kernels that release the GIL anyway.
        """
        if self.executor != "auto":
            return self.executor
        return "process" if self.n_shards > 1 else "thread"

    def scanner_factory(
        self, pq: ProductQuantizer
    ) -> Callable[[], PartitionScanner]:
        """A zero-argument factory building fresh scanner instances.

        Fresh instances matter for sharded execution: scanner caches are
        per-instance and not locked for cross-thread writes, so each
        shard needs its own scanner.
        """
        spec = ScannerSpec(self.scanner, keep=self.keep)
        return lambda: spec.build(pq)


def _merge_config(
    config: EngineConfig | None, overrides: dict[str, object]
) -> EngineConfig:
    """``config`` (or the defaults) with keyword overrides applied.

    This is the single entry point :meth:`Engine.build` and
    :meth:`Engine.load` funnel their kwargs through: every override must
    name an :class:`EngineConfig` field, so a typo'd knob fails loudly
    instead of being silently dropped.
    """
    valid = {field.name for field in fields(EngineConfig)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ConfigurationError(
            f"unknown EngineConfig field(s) {unknown}; "
            f"valid fields: {sorted(valid)}"
        )
    if config is None:
        return EngineConfig(**overrides)  # type: ignore[arg-type]
    if not overrides:
        return config
    return replace(config, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class _PinnedEpoch:
    """One reader's consistent snapshot of the engine's swap-able state.

    Compaction publishes a new base by swapping every field below under
    the engine lock and bumping the epoch; a reader that pinned the old
    epoch keeps scanning the old executor until it unpins, at which
    point the drained epoch's resources are released.
    """

    epoch: int
    executor: ScatterGatherExecutor
    view: "DeltaView | None"


class Engine:
    """Facade bundling build, sharding, search, persistence and writes.

    Construct through :meth:`build` or :meth:`load`; the raw constructor
    is for advanced wiring (pre-built index / sharded layout).

    Args:
        index: the populated global :class:`IVFADCIndex` view.
        config: the engine's :class:`EngineConfig`.
        sharded: the sharded layout when ``config.n_shards > 1``.
        vectors: raw database vectors for exact re-ranking (optional).
        index_path: the saved artifact this engine was loaded from
            (:meth:`load` fills it in). With ``executor="process"`` the
            worker processes mmap this artifact directly; without it the
            executor saves one temporary copy it owns. Mutable engines
            also re-save this artifact on every :meth:`compact`.
        mmap: whether the artifact was memory-mapped at load time;
            :meth:`compact` reloads the re-saved artifact the same way.
    """

    def __init__(
        self,
        index: IVFADCIndex,
        config: EngineConfig,
        *,
        sharded: ShardedIndex | None = None,
        vectors: np.ndarray | None = None,
        index_path: str | Path | None = None,
        observability: Observability | None = None,
        mmap: bool = False,
    ):
        if (sharded is None) != (config.n_shards == 1):
            raise ConfigurationError(
                "sharded layout must be provided exactly when "
                f"config.n_shards > 1 (n_shards={config.n_shards})"
            )
        self.index = index
        self.config = config
        self.sharded = sharded
        self.vectors = None if vectors is None else np.asarray(vectors, float)
        self.index_path = None if index_path is None else Path(index_path)
        self.observability = observability
        self._mmap = bool(mmap)
        # Guards the swap-able state (index/sharded/executor, epoch and
        # reader counts) against concurrent search/compact/close. An
        # executor is built outside this lock (its constructor spins
        # pools up — lint rule R7) and published under it. Order is
        # always _compact_lock -> _lock -> DeltaStore._lock.
        self._lock = threading.Lock()
        self._compact_lock = threading.Lock()
        self._delta = DeltaStore(generation=index.generation) if config.mutable else None
        self._closed = False
        # Epoch machinery: readers pin the epoch they started on;
        # compaction retires an epoch by bumping the counter and waits
        # on the retired epoch's event before closing its resources.
        self._epoch = 0
        self._reader_counts: dict[int, int] = {0: 0}
        self._retired: dict[int, threading.Event] = {}
        if sharded is None and config.resolved_executor == "thread":
            _warn_gil_bound(config.n_workers)
        # One executor per epoch, built eagerly here and in compact(),
        # so a pinned epoch always carries the executor of its base.
        self._executor = self._build_executor(index, sharded)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        config: EngineConfig | None = None,
        *,
        ids: np.ndarray | None = None,
        observability: Observability | None = None,
        **config_overrides: object,
    ) -> "Engine":
        """Train, encode and index ``vectors`` under ``config``.

        The product quantizer and the coarse quantizer are trained on
        ``vectors`` themselves (the paper's experimental setup); pass
        ``ids`` to control the database ids returned by searches. Any
        :class:`EngineConfig` field may be passed directly as a keyword
        override (``Engine.build(vectors, mutable=True, n_shards=4)``).
        """
        config = _merge_config(config, config_overrides)
        vectors = np.asarray(vectors, dtype=np.float64)
        pq = ProductQuantizer(
            m=config.m,
            bits=config.bits,
            max_iter=config.max_iter,
            seed=config.seed,
        ).fit(vectors)
        index = IVFADCIndex(
            pq,
            n_partitions=config.n_partitions,
            encode_residuals=config.encode_residuals,
            coarse_max_iter=config.coarse_max_iter,
            seed=config.seed,
        ).add(vectors, ids=ids)
        sharded = None
        if config.n_shards > 1:
            sharded = ShardedIndex.from_index(
                index, n_shards=config.n_shards, layout=config.shard_layout
            )
        return cls(
            index,
            config,
            sharded=sharded,
            vectors=vectors if config.keep_vectors else None,
            observability=observability,
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        config: EngineConfig | None = None,
        *,
        mmap: bool = False,
        observability: Observability | None = None,
        **config_overrides: object,
    ) -> "Engine":
        """Load an engine from a :meth:`save` artifact.

        A directory loads as a sharded layout, a file as an unsharded
        index. ``config`` supplies the query-time settings (and, like
        :meth:`build`, every field may be passed as a keyword override —
        ``Engine.load(path, mutable=True)``); its build-time fields (and
        ``n_shards`` for sharded artifacts) are overridden by what the
        artifact actually contains. Loading an *unsharded* file with
        ``config.n_shards > 1`` re-shards the index in memory (cheap:
        partitions are shared, not copied).

        With ``mmap=True`` the partition codes and ids are memory-mapped
        read-only from the artifact instead of copied into the heap
        (see :func:`~repro.persistence.load_index`). The loaded engine
        remembers ``path``, so ``executor="process"`` workers attach to
        this artifact directly instead of saving a temporary copy.
        """
        path = Path(path)
        sharded: ShardedIndex | None = None
        if path.is_dir():
            sharded = load_sharded_index(path, mmap=mmap)
            index = sharded.global_view
        else:
            index = load_index(path, mmap=mmap)
        base = config if config is not None else EngineConfig()

        def requested(name: str) -> int:
            return cast(int, config_overrides.get(name, getattr(base, name)))

        # The artifact's fields go into the same replace as the caller's
        # overrides, so scanner="quickadc" is validated against the
        # artifact's bits and nprobe against its n_partitions, not
        # against the defaults those fields held a moment earlier.
        config = _merge_config(
            base,
            {
                **config_overrides,
                "m": index.pq.m,
                "bits": index.pq.bits,
                "n_partitions": index.n_partitions,
                "n_shards": (
                    sharded.n_shards
                    if sharded is not None
                    else min(requested("n_shards"), index.n_partitions)
                ),
                "encode_residuals": index.encode_residuals,
                "nprobe": min(requested("nprobe"), index.n_partitions),
            },
        )
        if sharded is None and config.n_shards > 1:
            sharded = ShardedIndex.from_index(
                index, n_shards=config.n_shards, layout=config.shard_layout
            )
        return cls(
            index,
            config,
            sharded=sharded,
            index_path=path,
            observability=observability,
            mmap=mmap,
        )

    def save(self, path: str | Path) -> None:
        """Persist the engine's index: a directory when sharded, a file
        otherwise (both atomic — see :mod:`repro.persistence`).

        A mutable engine with uncompacted writes refuses to save — the
        artifact format holds exactly one base generation, so call
        :meth:`compact` first to fold the delta in.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "Engine is closed; create a new engine"
                )
            index = self.index
            sharded = self.sharded
        if self._delta is not None and (
            self._delta.n_rows or self._delta.n_tombstones
        ):
            raise ConfigurationError(
                "engine has uncompacted writes; call compact() before save() "
                "so the artifact holds a single folded generation"
            )
        if sharded is not None:
            save_sharded_index(sharded, path)
        else:
            save_index(index, path)

    # -- queries ------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        nprobe: int | None = None,
        rerank: int = 0,
    ) -> SearchResult | list[SearchResult]:
        """Top-``k`` nearest neighbors for one query (1-D) or a batch (2-D).

        :meth:`search_detailed`, raising if any shard degraded (call
        that when partial results are acceptable); a 1-D query is the
        batch of one, unwrapped. ``rerank`` (exact re-ranking of an ADC
        short-list of that many candidates) requires
        ``keep_vectors=True`` at build time, hence a read-only engine.

        On a mutable engine the query merges the uncompacted delta
        overlay: tombstoned rows never surface, added rows compete in
        the same top-k accumulation, and queries probing only unmutated
        partitions return byte-identical results to a read-only engine.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if rerank:
            if self.config.mutable:
                raise ConfigurationError(
                    "rerank is not supported on mutable engines (the kept "
                    "vector array cannot track streaming writes); compact "
                    "and reload read-only to re-rank"
                )
            _check_rerank(self.vectors, k, rerank)
        response = self.search_detailed(queries, rerank or k, nprobe=nprobe)
        if response.partial:
            degraded = [s.as_dict() for s in response.shard_statuses if not s.ok]
            raise ConfigurationError(
                f"sharded search degraded: {degraded}; call "
                "search_detailed() to accept partial results"
            )
        results = response.results
        if rerank:
            results = [
                _rerank_exact(self.vectors, query, shortlist, k)
                for query, shortlist in zip(np.atleast_2d(queries), results)
            ]
        return results[0] if queries.ndim == 1 else results

    def search_detailed(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        nprobe: int | None = None,
    ) -> ShardedResponse:
        """Batch search returning the full :class:`ShardedResponse`.

        This is the graceful-degradation entry point: shard timeouts and
        failures yield ``partial=True`` plus per-shard statuses instead
        of an exception. Unsharded engines answer through the one-shard
        split of their index (one status, still byte-identical); mutable
        engines merge the delta overlay.
        """
        nprobe = nprobe if nprobe is not None else self.config.nprobe
        pin = self._pin()
        try:
            return pin.executor.run(
                queries, topk=k, nprobe=nprobe, delta_view=pin.view
            )
        finally:
            self._unpin(pin.epoch)

    # -- writes (mutable engines) -------------------------------------------

    def add(self, vectors: np.ndarray, ids: np.ndarray) -> int:
        """Insert (or upsert) vectors; returns the write's sequence number.

        Rows are routed and PQ-encoded here, once
        (:meth:`IVFADCIndex.encode <repro.ivf.IVFADCIndex.encode>`, the
        build's own step) — against quantizers that never change across
        compactions, so an ``add`` may safely race a background
        :meth:`compact` — and their codes appended to the in-memory
        delta overlay; the vectors are not kept. Re-adding an existing
        id replaces it everywhere (the stale base copy is tombstoned,
        any stale delta copy physically removed). Call :meth:`compact`
        to fold accumulated writes into the base artifact. Ids that are
        not integers and vectors that are not finite are refused.
        """
        delta = self._require_mutable("add")
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        ids = as_database_ids(ids)
        with self._lock:
            index = self.index
        labels, codes = index.encode(vectors)
        seq = delta.apply_add(labels, codes, ids)
        self._obs().record_mutation(
            "add", len(ids), delta.n_rows, delta.n_tombstones
        )
        return seq

    def delete(self, ids: np.ndarray) -> int:
        """Delete ids; returns the write's sequence number.

        Base copies are tombstoned (masked at query time until the next
        :meth:`compact` drops them physically); delta copies are removed
        immediately. Deleting an id the index never held is a harmless
        no-op mask.
        """
        delta = self._require_mutable("delete")
        ids = as_database_ids(ids)
        seq = delta.apply_delete(ids)
        self._obs().record_mutation(
            "delete", len(ids), delta.n_rows, delta.n_tombstones
        )
        return seq

    def compact(self) -> CompactionReport:
        """Fold the delta overlay into a new base generation.

        The heavy phase is lock-free for writers: a snapshot of the
        overlay is cut at sequence ``S`` and
        :func:`~repro.delta.fold_index` builds the next-generation base
        from the codes :meth:`add` made (nothing is encoded again).
        When the engine has an artifact it is re-saved atomically
        (:mod:`repro.persistence`) and reloaded with the same ``mmap``
        mode. The swap then publishes the new base under the engine
        lock: a fresh executor, a bumped epoch, and
        :meth:`~repro.delta.DeltaStore.commit` dropping exactly the
        drained state — writes that raced the fold survive in the
        overlay and stay correct. In-flight readers pinned to the old
        epoch finish on the old base untouched; their resources are
        released once the last one unpins.

        Concurrent ``compact()`` calls serialize. Returns a
        :class:`~repro.delta.CompactionReport` (a no-op report when the
        overlay was empty).
        """
        delta = self._require_mutable("compact")
        t0 = time.perf_counter()
        drain_event: threading.Event | None = None
        with self._compact_lock:
            with self._lock:
                if self._closed:
                    raise ConfigurationError(
                        "Engine is closed; create a new engine"
                    )
                index = self.index
            snapshot = delta.snapshot()
            if snapshot.empty:
                return CompactionReport(
                    generation=index.generation,
                    n_folded=0,
                    n_dropped=0,
                    n_total=len(index),
                    wall_time_s=time.perf_counter() - t0,
                    encode_time_s=0.0,
                )
            folded = fold_index(
                index, snapshot.tombstone_ids, snapshot.additions
            )
            n_folded = snapshot.n_rows
            n_dropped = len(index) + n_folded - len(folded)
            # Persist in the artifact's own format: a single-file index
            # is re-saved as a file even when the engine re-sharded it in
            # memory; a sharded directory is re-saved shard by shard.
            new_sharded: ShardedIndex | None = None
            index_file = self._index_file
            if index_file is not None:
                save_index(folded, index_file)
                folded = load_index(index_file, mmap=self._mmap)
            if self.sharded is not None:
                new_sharded = ShardedIndex.from_index(
                    folded,
                    n_shards=self.config.n_shards,
                    layout=self.config.shard_layout,
                )
                if self.index_path is not None and self.index_path.is_dir():
                    save_sharded_index(new_sharded, self.index_path)
                    if self._mmap:
                        new_sharded = load_sharded_index(
                            self.index_path, mmap=True
                        )
                        folded = new_sharded.global_view
            new_executor = self._build_executor(folded, new_sharded)
            with self._lock:
                aborted = self._closed
                if not aborted:
                    retired, self._executor = self._executor, new_executor
                    self.index = folded
                    self.sharded = new_sharded
                    retiring = self._epoch
                    self._epoch = retiring + 1
                    self._reader_counts[self._epoch] = 0
                    if self._reader_counts.get(retiring, 0) > 0:
                        drain_event = threading.Event()
                        self._retired[retiring] = drain_event
                    else:
                        self._reader_counts.pop(retiring, None)
                    delta.commit(snapshot.seq, generation=folded.generation)
        if aborted:
            new_executor.close()
            raise ConfigurationError(
                "Engine was closed during compact(); the overlay was not "
                "committed"
            )
        if drain_event is not None:
            drain_event.wait(timeout=GATHER_TIMEOUT_S)
        retired.close()
        wall_time_s = time.perf_counter() - t0
        self._obs().record_compaction(
            wall_time_s,
            folded.generation,
            delta_rows=delta.n_rows,
            tombstones=delta.n_tombstones,
        )
        return CompactionReport(
            generation=folded.generation,
            n_folded=n_folded,
            n_dropped=n_dropped,
            n_total=len(folded),
            wall_time_s=wall_time_s,
            encode_time_s=0.0,
        )

    # -- epoch pinning ------------------------------------------------------

    def _pin(self) -> _PinnedEpoch:
        """Pin the current epoch's state for one read."""
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "Engine is closed; create a new engine"
                )
            epoch = self._epoch
            self._reader_counts[epoch] += 1
            view = (
                None if self._delta is None else self._delta.view(self.index)
            )
            return _PinnedEpoch(
                epoch=epoch, executor=self._executor, view=view
            )

    def _unpin(self, epoch: int) -> None:
        """Release one read's pin; signal compaction when an epoch drains."""
        drained: threading.Event | None = None
        with self._lock:
            self._reader_counts[epoch] -= 1
            if self._reader_counts[epoch] == 0 and epoch != self._epoch:
                self._reader_counts.pop(epoch, None)
                drained = self._retired.pop(epoch, None)
        if drained is not None:
            drained.set()

    def _require_mutable(self, op: str) -> DeltaStore:
        with self._lock:
            closed = self._closed
        if closed:
            raise ConfigurationError("Engine is closed; create a new engine")
        if self._delta is None:
            raise ConfigurationError(
                f"Engine.{op}() requires a mutable engine; build or load "
                "with mutable=True"
            )
        return self._delta

    def _obs(self) -> Observability:
        return (
            self.observability
            if self.observability is not None
            else get_observability()
        )

    @property
    def _index_file(self) -> Path | None:
        """The engine's artifact, when it is an unsharded single file."""
        path = self.index_path
        return path if path is not None and path.is_file() else None

    def _build_executor(
        self, index: IVFADCIndex, sharded: ShardedIndex | None
    ) -> ScatterGatherExecutor:
        """A fresh executor over the given base (spins its pools up).

        An unsharded index is the degenerate split, one shard owning
        every partition, whose process workers attach to the engine's
        artifact file when there is one; any other layout knows its
        saved directory or gets one temporary copy the executor owns.
        """
        artifact: Path | None = None
        if sharded is None:
            sharded = ShardedIndex.from_index(index, n_shards=1)
            artifact = self._index_file
        return ScatterGatherExecutor(
            sharded,
            self.config.scanner_factory(index.pq),
            n_workers=self.config.n_workers,
            backend=self.config.resolved_executor,
            artifact_dir=artifact,
            deadline_s=self.config.deadline_s,
            max_retries=self.config.max_retries,
            backoff_s=self.config.backoff_s,
            observability=self.observability,
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the engine down (terminal, idempotent, concurrency-safe).

        Releases every pinned pool the engine spun up — the executor's
        per-shard pools, gather pool and temporary artifacts.
        A closed engine rejects every further operation with
        :class:`~repro.exceptions.ConfigurationError`; in-flight
        searches are not drained and may error. Uncompacted writes are
        discarded — call :meth:`compact` first to keep them.
        """
        with self._lock:
            self._closed = True
            executor = self._executor
        executor.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (closing is terminal)."""
        with self._lock:
            return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    @property
    def generation(self) -> int:
        """Base generation currently published (0 until first compact)."""
        with self._lock:
            return self.index.generation

    @property
    def n_pending_writes(self) -> int:
        """Uncompacted overlay size: delta rows plus live tombstones."""
        if self._delta is None:
            return 0
        return self._delta.n_rows + self._delta.n_tombstones

    def __len__(self) -> int:
        """Vectors in the published base (excluding uncompacted writes)."""
        return len(self.index)

    def __repr__(self) -> str:
        return (
            f"Engine(n={len(self)}, m={self.config.m}, bits={self.config.bits}, "
            f"n_partitions={self.config.n_partitions}, "
            f"n_shards={self.config.n_shards}, "
            f"scanner={self.config.scanner!r}, "
            f"mutable={self.config.mutable})"
        )
