"""Save/load for trained quantizers and built indexes.

Training a product quantizer and encoding a large database are the
expensive offline steps of the pipeline; a deployable library must
persist them. Everything is stored in a single ``.npz`` file (portable,
dependency-free); codebooks round-trip bit-exactly, so a reloaded index
answers queries identically to the original.

    save_index(index, "catalog.npz")
    index = load_index("catalog.npz")

Crash-safety contract:

* **Atomic writes** — ``save_*`` serializes into a temporary file in the
  destination directory and ``os.replace``-s it into place, so a crash
  mid-write can never leave a truncated artifact under the target name;
  readers observe either the old file or the new one.
* **Bounded failure modes** — ``load_*`` raises
  :class:`~repro.exceptions.DatasetError` for *every* malformed input
  (missing file, truncated/corrupt archive, foreign ``.npz``, missing
  fields, wrong dtypes or shapes) instead of leaking ``zipfile`` or
  ``KeyError`` internals, and validates partition payloads eagerly so a
  hand-edited archive fails at load time, not deep inside a scan kernel.
* **No leaked handles** — ``load_*`` opens the file itself and closes
  it, and the ``np.load`` archive over it, before it returns or raises;
  every array returned by an eager load is materialized.

Zero-copy loading:

* Every ``save_*`` writes its members *stored* (uncompressed) inside
  the archive, so
  ``load_index(path, mmap=True)`` can map them straight out of the file
  — read-only, page-cache-backed arrays with the ``writeable`` flag
  off. The archive's central directory is parsed once and the file is
  mapped once (:class:`numpy.memmap`); every partition array is a view
  into that one mapping, so a load costs O(members) and holds one
  descriptor per archive. Every process that maps the same artifact
  shares one physical copy of the codes, which is what lets the
  process-pool executor (:mod:`repro.parallel`) attach workers to an
  index without pickling a single code byte.
* Small metadata fields (codebooks, flags) are still loaded eagerly, and
  the load-time validation (dtypes, code widths, lengths) runs on the
  mapped arrays exactly as it does on materialized ones — every
  malformed input still raises :class:`~repro.exceptions.DatasetError`.
* ``mmap=True`` on an artifact whose partition payloads were
  deflate-compressed (an archive written by something other than
  ``save_index``, e.g. ``np.savez_compressed``) raises
  :class:`~repro.exceptions.DatasetError`: a compressed member has no
  flat bytes to map. Load it eagerly, or re-save it with
  :func:`save_index`.

The caller names the artifact: nothing here records on an index or a
layout where it was saved or loaded from. :class:`~repro.Engine` knows
its ``index_path`` and hands it to the executors it builds.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from .exceptions import ConfigurationError, DatasetError
from .ivf.inverted_index import IVFADCIndex
from .ivf.partition import Partition
from .pq.product_quantizer import ProductQuantizer
from .pq.quantizer import VectorQuantizer

if TYPE_CHECKING:  # import cycle: repro.shard imports repro.search
    from .shard.sharded_index import ShardedIndex

__all__ = [
    "save_quantizer",
    "load_quantizer",
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
]

_MAGIC = "repro-pq"
_VERSION = 1


def save_quantizer(pq: ProductQuantizer, path: str | Path) -> None:
    """Persist a fitted :class:`ProductQuantizer` to ``path`` (.npz)."""
    _atomic_savez(
        Path(path),
        {
            "magic": np.array([_MAGIC]),
            "version": np.array([_VERSION]),
            "kind": np.array(["quantizer"]),
            "codebooks": pq.codebooks,
        },
    )


def load_quantizer(path: str | Path) -> ProductQuantizer:
    """Load a :class:`ProductQuantizer` saved by :func:`save_quantizer`."""
    data = _load_checked(path, expected_kind="quantizer")
    codebooks = _require(data, "codebooks", path)
    return ProductQuantizer.from_codebooks(codebooks)


def save_index(index: IVFADCIndex, path: str | Path) -> None:
    """Persist a populated :class:`IVFADCIndex` (quantizer included).

    The archive members are *stored* uncompressed, so :func:`load_index`
    with ``mmap=True`` can map the partition payloads straight out of
    the file.
    """
    payload = {
        "magic": np.array([_MAGIC]),
        "version": np.array([_VERSION]),
        "kind": np.array(["index"]),
        "codebooks": index.pq.codebooks,
        "coarse": index.coarse.codebook,
        "encode_residuals": np.array([index.encode_residuals]),
        "n_partitions": np.array([index.n_partitions]),
        "generation": np.array([index.generation], dtype=np.int64),
    }
    for pid, part in enumerate(index.partitions):
        payload[f"codes_{pid}"] = part.codes
        payload[f"ids_{pid}"] = part.ids
    _atomic_savez(Path(path), payload)


def load_index(path: str | Path, *, mmap: bool = False) -> IVFADCIndex:
    """Load an :class:`IVFADCIndex` saved by :func:`save_index`.

    Partition payloads are validated eagerly: code dtype, code width
    (``codes.shape[1]`` must equal ``pq.n_subquantizers``), id dtype and
    the codes/ids length agreement are checked here so malformed or
    hand-edited archives raise :class:`~repro.exceptions.DatasetError`
    at load time instead of crashing inside the scan kernels.

    With ``mmap=True`` the per-partition ``codes``/``ids`` arrays are
    memory-mapped read-only from the archive instead of materialized:
    the returned arrays are backed by the OS page cache, shared between
    every process that maps the same file, and reject writes
    (``writeable`` flag off). Deflate-compressed payloads (not written
    by :func:`save_index`) raise :class:`~repro.exceptions.DatasetError`.
    """
    path = Path(path)
    # When mmapping, the partition payloads are never decompressed into
    # memory: _load_checked materializes the small metadata fields and
    # hands the payloads back as views of one mapping of the file.
    mapped = _PARTITION_PREFIXES if mmap else ()
    data = _load_checked(path, expected_kind="index", mmap_prefixes=mapped)
    codebooks = _require(data, "codebooks", path)
    pq = ProductQuantizer.from_codebooks(codebooks)
    partitions = []
    for pid in range(int(_require(data, "n_partitions", path)[0])):
        codes = _require(data, f"codes_{pid}", path)
        ids = _require(data, f"ids_{pid}", path)
        _validate_partition(path, pid, codes, ids, pq)
        partitions.append(Partition(codes, ids, partition_id=pid))
    return IVFADCIndex.from_parts(
        pq,
        VectorQuantizer.from_codebook(_require(data, "coarse", path)),
        partitions,
        encode_residuals=bool(_require(data, "encode_residuals", path)[0]),
        # Pre-1.5 artifacts have no generation stamp; they are generation 0.
        generation=int(data["generation"][0]) if "generation" in data else 0,
    )


def save_sharded_index(sharded: "ShardedIndex", path: str | Path) -> None:
    """Persist a :class:`~repro.shard.ShardedIndex` to directory ``path``.

    Layout: one self-contained ``shard_NNNN.npz`` per shard (each a full
    :func:`save_index` artifact, so a single shard file can be shipped to
    and loaded on its serving host alone) plus a ``manifest.npz`` naming
    the shard count and each shard's owned partitions.

    Crash-safety follows the same contract as :func:`save_index`: every
    file is written atomically, and the manifest is written *last* — a
    crash mid-save leaves either a previous complete layout (old
    manifest, old shard files still present) or no manifest at all,
    never a manifest pointing at missing shard files.
    """
    directory = Path(path)
    for shard in sharded.shards:
        save_index(shard.index, directory / _shard_filename(shard.shard_id))
    manifest: dict[str, np.ndarray] = {
        "magic": np.array([_MAGIC]),
        "version": np.array([_VERSION]),
        "kind": np.array(["sharded-index"]),
        "n_shards": np.array([sharded.n_shards]),
        "n_partitions": np.array([sharded.n_partitions]),
        "generation": np.array([sharded.generation], dtype=np.int64),
    }
    for shard in sharded.shards:
        manifest[f"owned_{shard.shard_id}"] = np.array(
            shard.partition_ids, dtype=np.int64
        )
    _atomic_savez(directory / "manifest.npz", manifest)


def load_sharded_index(path: str | Path, *, mmap: bool = False) -> "ShardedIndex":
    """Load a :class:`~repro.shard.ShardedIndex` saved by :func:`save_sharded_index`.

    Every shard file is validated by :func:`load_index`; the cross-shard
    invariants (shared quantizer and coarse codebooks, exactly-once
    partition ownership) are re-checked eagerly by the
    :class:`~repro.shard.ShardedIndex` constructor, and any violation —
    e.g. shard files from different builds mixed in one directory —
    surfaces as a :class:`~repro.exceptions.DatasetError` here, not as a
    wrong answer at query time.
    """
    from .shard.sharded_index import IndexShard, ShardedIndex

    directory = Path(path)
    if not directory.exists():
        raise DatasetError(f"{directory}: no such directory")
    if not directory.is_dir():
        raise DatasetError(
            f"{directory}: not a directory (sharded indexes are saved as "
            "a directory of shard files plus a manifest)"
        )
    manifest = _load_checked(directory / "manifest.npz", expected_kind="sharded-index")
    n_shards = int(_require(manifest, "n_shards", directory)[0])
    n_partitions = int(_require(manifest, "n_partitions", directory)[0])
    generation = int(manifest["generation"][0]) if "generation" in manifest else 0
    if n_shards < 1:
        raise DatasetError(f"{directory}: manifest has n_shards={n_shards}")
    shards = []
    for shard_id in range(n_shards):
        shard_path = directory / _shard_filename(shard_id)
        index = load_index(shard_path, mmap=mmap)
        if index.n_partitions != n_partitions:
            raise DatasetError(
                f"{shard_path}: has {index.n_partitions} partitions, "
                f"manifest says {n_partitions}"
            )
        if index.generation != generation:
            # A crash between the per-shard writes and the manifest write
            # of a compaction swap leaves shard files from one generation
            # under a manifest from another; mixing them would silently
            # serve a corrupt view, so the stamp turns it into an error.
            raise DatasetError(
                f"{shard_path}: is generation {index.generation}, "
                f"manifest says {generation} (torn compaction save; "
                "re-run compaction or restore a complete layout)"
            )
        owned = _require(manifest, f"owned_{shard_id}", directory)
        if owned.ndim != 1 or not np.issubdtype(owned.dtype, np.integer):
            raise DatasetError(
                f"{directory}: manifest field owned_{shard_id} must be a "
                "1-D integer array"
            )
        shards.append(
            IndexShard(
                shard_id=shard_id,
                index=index,
                partition_ids=tuple(int(pid) for pid in owned),
            )
        )
    try:
        return ShardedIndex(shards)
    except ConfigurationError as exc:
        raise DatasetError(f"{directory}: inconsistent shard set ({exc})") from exc


# -- internals -----------------------------------------------------------------


_PARTITION_PREFIXES = ("codes_", "ids_")


def _shard_filename(shard_id: int) -> str:
    return f"shard_{shard_id:04d}.npz"


def _atomic_savez(path: Path, payload: dict[str, np.ndarray]) -> None:
    """Write ``payload`` as an ``.npz``, atomically.

    The archive is serialized into a ``NamedTemporaryFile`` in the
    destination directory (created if missing; same filesystem, so the
    final rename cannot degrade to a copy) and moved over ``path`` with
    :func:`os.replace` only after the write completed and was flushed to
    disk. A crash at any earlier point leaves the previous file — if
    any — untouched.

    The members are stored (``ZIP_STORED``), so each array's raw bytes
    sit contiguously in the file and can later be memory-mapped by
    :func:`_mmap_members`.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            # Passing the open handle (not a name) stops numpy from
            # appending ".npz" to the temporary file's name.
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_checked(
    path: str | Path,
    expected_kind: str,
    *,
    mmap_prefixes: tuple[str, ...] = (),
) -> dict[str, np.ndarray]:
    """Open, validate and load a repro ``.npz`` artifact in one pass.

    The file is opened once, here, and the ``NpzFile`` over it is used
    as a context manager, so neither handle outlives this call on any
    path: ``np.load`` keeps the archive open for lazy member access
    otherwise, and drops the handle it opened itself unclosed when the
    archive turns out to be corrupt.

    Every member is decompressed into memory, except those whose names
    start with one of ``mmap_prefixes``: these come back as read-only
    views of one mapping of the file (:func:`_mmap_members`), resolved
    from the central directory this call has already parsed.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: no such file")
    try:
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as archive:
            mapped = [n for n in archive.files if n.startswith(mmap_prefixes)]
            data = {
                name: archive[name]
                for name in archive.files
                if not name.startswith(mmap_prefixes)
            }
            _check_envelope(data, path, expected_kind)
            data.update(_mmap_members(path, handle, archive.zip, mapped))
    except (zipfile.BadZipFile, zipfile.LargeZipFile, zlib.error, EOFError) as exc:
        raise DatasetError(f"{path}: corrupt or truncated archive ({exc})") from exc
    except (OSError, ValueError) as exc:
        raise DatasetError(f"{path}: unreadable archive ({exc})") from exc
    return data


def _check_envelope(
    data: dict[str, np.ndarray], path: Path, expected_kind: str
) -> None:
    if "magic" not in data or str(data["magic"][0]) != _MAGIC:
        raise DatasetError(f"{path}: not a repro artifact")
    version = int(_require(data, "version", path)[0])
    if version > _VERSION:
        raise DatasetError(
            f"{path}: written by a newer format version ({version})"
        )
    kind = str(_require(data, "kind", path)[0])
    if kind != expected_kind:
        raise DatasetError(
            f"{path}: contains a {kind!r}, expected {expected_kind!r}"
        )


def _require(
    data: dict[str, np.ndarray], name: str, path: str | Path
) -> np.ndarray:
    try:
        return data[name]
    except KeyError:
        raise DatasetError(f"{path}: missing field {name!r}") from None


def _mmap_members(
    path: Path, handle: BinaryIO, archive: zipfile.ZipFile, names: list[str]
) -> dict[str, np.ndarray]:
    """Map the ``.npy`` members ``names`` of an open ``.npz``, read-only.

    ``np.load(..., mmap_mode=...)`` refuses to map inside zip archives,
    so each member's bytes are located by hand (:func:`_member_span`)
    and sliced out of one :class:`numpy.memmap` over the whole file: one
    mapping and one descriptor per archive however many members it has.
    The mapping duplicates the descriptor, so the views outlive
    ``handle``, and it pins the inode, so they outlive an
    ``os.replace`` of ``path`` too.

    Every span is resolved before anything is mapped: a bad member
    raises :class:`~repro.exceptions.DatasetError` with nothing to
    release but the caller's handles.
    """
    if not names:
        return {}
    spans = {
        name: _member_span(path, handle, archive.getinfo(name + ".npy"))
        for name in names
    }
    whole = np.memmap(handle, dtype=np.uint8, mode="r")
    return {
        name: whole[start:stop].view(dtype).reshape(shape, order=order)
        for name, (start, stop, dtype, shape, order) in spans.items()
    }


def _member_span(
    path: Path, handle: BinaryIO, info: zipfile.ZipInfo
) -> tuple[int, int, np.dtype, tuple[int, ...], str]:
    """``(start, stop, dtype, shape, order)`` of one member's array bytes.

    The central directory (``info``) gives the local-header offset, the
    local header (30 fixed bytes + variable name/extra) gives the start
    of the member bytes, and the ``.npy`` header parsed from there gives
    dtype/shape/order and the start of the flat array data. Only
    ``ZIP_STORED`` members have flat bytes in the file; a deflated
    member is a format error for this path, as are a corrupt local
    header, an unknown ``.npy`` version, pickled/object arrays and a
    member shorter than its header says.
    """
    member = info.filename
    if info.compress_type != zipfile.ZIP_STORED:
        raise DatasetError(
            f"{path}: member {member!r} is compressed and cannot be "
            "memory-mapped; load it with mmap=False or re-save it with "
            "save_index"
        )
    handle.seek(info.header_offset)
    local_header = handle.read(30)
    if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
        raise DatasetError(f"{path}: corrupt local header for member {member!r}")
    name_len = int.from_bytes(local_header[26:28], "little")
    extra_len = int.from_bytes(local_header[28:30], "little")
    data_start = info.header_offset + 30 + name_len + extra_len
    handle.seek(data_start)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        raise DatasetError(
            f"{path}: member {member!r} uses unsupported .npy "
            f"format version {version}"
        )
    if dtype.hasobject:
        raise DatasetError(
            f"{path}: member {member!r} contains objects and "
            "cannot be memory-mapped"
        )
    start = handle.tell()
    stop = start + dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if data_start + info.file_size < stop:
        raise DatasetError(f"{path}: member {member!r} is truncated")
    return start, stop, dtype, shape, "F" if fortran else "C"


def _validate_partition(
    path: str | Path,
    pid: int,
    codes: np.ndarray,
    ids: np.ndarray,
    pq: ProductQuantizer,
) -> None:
    if codes.ndim != 2:
        raise DatasetError(
            f"{path}: codes_{pid} must be 2-D (n, m), got shape {codes.shape}"
        )
    if codes.dtype != pq.code_dtype:
        raise DatasetError(
            f"{path}: codes_{pid} has dtype {codes.dtype}, expected "
            f"{np.dtype(pq.code_dtype)} for {pq.bits}-bit codes"
        )
    if codes.shape[1] != pq.n_subquantizers:
        raise DatasetError(
            f"{path}: codes_{pid} has {codes.shape[1]} components per code, "
            f"expected m={pq.n_subquantizers}"
        )
    if pq.bits < 8:
        # Sub-byte codes occupy a full byte each on disk, so the dtype
        # check above cannot catch an out-of-range sub-index (a 4-bit
        # artifact with a byte >= 16 would silently read past its
        # 16-entry distance table at scan time).
        top = int(codes.max(initial=0))
        if top >= pq.ksub:
            raise DatasetError(
                f"{path}: codes_{pid} has sub-index {top} out of range for "
                f"{pq.bits}-bit codes (must be < {pq.ksub})"
            )
    if ids.ndim != 1:
        raise DatasetError(
            f"{path}: ids_{pid} must be 1-D, got shape {ids.shape}"
        )
    if not np.issubdtype(ids.dtype, np.integer):
        raise DatasetError(
            f"{path}: ids_{pid} has non-integer dtype {ids.dtype}"
        )
    if len(codes) != len(ids):
        raise DatasetError(
            f"{path}: partition {pid} codes/ids length mismatch "
            f"({len(codes)} vs {len(ids)})"
        )
