"""Native kernels: the naive PQ Scan, Steps 1 and 2 and the merge's
selection in C.

``kernels.c`` holds the kernels, each byte-identical to the numpy path
it stands in for: :func:`naive_scan` (``NaiveScanner.scan_run``: gather,
sum and top-k selection in one pass per cell), :func:`naive_scan_halves`
(``NaiveScanner.scan_halves``: the same scan of tables it never makes,
each looked-up entry combined from Step 2's halves where it is read),
:func:`combine_tables` (``TableHalves.combine``, the tables the other
scanners read), :func:`cross_tables` (the query half,
``ProductQuantizer.cross_tables_batch``), :func:`route`
(``IVFADCIndex.route_batch``: the centroid distances and each query's
nearest cells) and :func:`select_rows` (``select_topk_rows``, as
``StreamingMerger.results`` calls it). Callers try the kernel first
and run numpy when it returns None, so numpy is the fallback everywhere
and the reference the tests hold the kernels to.

The library is compiled with the system ``cc`` into a per-user cache,
``$XDG_CACHE_HOME/repro/native`` (``~/.cache/repro/native`` when that is
unset), never inside the source tree. Its file name is a hash of the
source, the flags, the machine and the compiler (its resolved path,
size and modification time, so a warm load starts no process). A build
writes a temporary file in the cache and renames it into place, so
concurrent builds are safe. ``ctypes`` releases the GIL around each
kernel call.

Only :func:`build` runs the compiler; everything else loads the library
only if it is already cached. ``Engine`` calls :func:`build` for the
engines that scan with naive (a naive scanner, or a mutable engine's
delta segments), before it starts any worker, so workers only load it.

The numpy path runs when ``REPRO_NATIVE=0`` is set, when there is no
compiler, when a build fails or times out, or when the cache cannot be
written; :func:`available` says whether the kernels run and
:func:`reason` why they do not.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import ReproError

if TYPE_CHECKING:  # import cycle: repro.ivf imports repro.native
    from ..ivf.inverted_index import TableHalves

__all__ = ["ENV_VAR", "available", "build", "reason"]

#: Set to ``0`` to run the numpy paths only; read at every kernel call.
ENV_VAR = "REPRO_NATIVE"

SOURCE = Path(__file__).with_name("kernels.c")

#: IEEE adds in source order (no contraction into FMAs, no fast-math)
#: and no ``-march=native``, so the cached object runs on any machine
#: of the architecture it is keyed by and gives numpy's bytes.
FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")

#: Most a build may take before it is killed and numpy runs instead.
BUILD_TIMEOUT_S = 60.0

_ADDRESS = ctypes.c_void_p
_I64 = ctypes.c_int64


class NativeBuildError(ReproError):
    """The native library could not be built or loaded (the numpy paths
    run instead; the message is :func:`reason`)."""


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro/native``, or ``~/.cache/repro/native``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro" / "native"


class NativeLibrary:
    """One cached build of ``kernels.c`` and, once loaded, its handle.

    The process has one (the module's); tests build others over their
    own cache directory or compiler to see the fallbacks.
    """

    def __init__(
        self,
        directory: Path | None = None,
        compiler: str = "cc",
        timeout_s: float = BUILD_TIMEOUT_S,
    ) -> None:
        self.directory = directory
        self.compiler = compiler
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._handle: ctypes.CDLL | None = None
        self._reason = "not loaded yet"
        self._looked = False        # a cache lookup has missed or failed
        self._build_failed = False  # a build failed: never run it again
        self._routes_exactly: bool | None = None  # _routes_like_einsum, once

    @property
    def reason(self) -> str | None:
        """Why the kernels do not run, or None when they do."""
        if os.environ.get(ENV_VAR) == "0":
            return f"{ENV_VAR}=0"
        return None if self._handle is not None else self._reason

    def handle(self, build: bool = False) -> ctypes.CDLL | None:
        """The loaded library, or None: from the cache, and compiled into
        it first when ``build`` is set."""
        if os.environ.get(ENV_VAR) == "0":
            return None
        if self._handle is not None or (self._looked and not build):
            return self._handle
        with self._lock:
            if self._handle is None and not (build and self._build_failed):
                try:
                    self._handle = self._load(build)
                except NativeBuildError as error:
                    self._reason = str(error)
                    self._looked = True
                    self._build_failed = build
            return self._handle

    def routes_exactly(self, library: ctypes.CDLL) -> bool:
        """Whether ``library`` (this one's handle) routes with einsum's
        bytes on this machine; checked on first use."""
        if self._routes_exactly is None:
            with self._lock:
                if self._routes_exactly is None:
                    self._routes_exactly = _routes_like_einsum(library)
        return self._routes_exactly

    def _load(self, build: bool) -> ctypes.CDLL:
        compiler = shutil.which(self.compiler)
        if compiler is None:
            raise NativeBuildError(f"no C compiler: {self.compiler!r} is not on PATH")
        try:
            path = self._cached_path(compiler)
        except OSError as error:
            raise NativeBuildError(
                f"cannot read the source or compiler: {error}"
            ) from None
        if not path.exists():
            if not build:
                raise NativeBuildError(f"not built yet (no {path})")
            self._compile(compiler, path)
        try:
            library = ctypes.CDLL(str(path))
            _declare(library)
        except (OSError, AttributeError) as error:  # not a library, or not ours
            raise NativeBuildError(f"cannot load {path}: {error}") from None
        return library

    def _cached_path(self, compiler: str) -> Path:
        resolved = os.path.realpath(compiler)
        stat = os.stat(resolved)
        key = hashlib.sha256(SOURCE.read_bytes())
        for part in (*FLAGS, resolved, stat.st_size, stat.st_mtime_ns,
                     platform.machine(), sys.platform):
            key.update(f"\0{part}".encode())
        directory = self.directory or default_cache_dir()
        return directory / f"kernels-{key.hexdigest()[:20]}.so"

    def _compile(self, compiler: str, path: Path) -> None:
        """``compiler`` into a temporary file beside ``path``, renamed onto
        it. The compiler runs in its own process group, killed whole on a
        timeout: killing the ``cc`` front end alone would leave its
        ``cc1`` holding the pipes open."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temporary = tempfile.mkstemp(
                dir=path.parent, prefix=".kernels-", suffix=".tmp"
            )
            os.close(fd)
        except OSError as error:
            raise NativeBuildError(
                f"cache {path.parent} is not writable: {error}"
            ) from None
        try:
            command = [compiler, *FLAGS, "-o", temporary, str(SOURCE)]
            try:
                process = subprocess.Popen(
                    command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, start_new_session=True,
                )
            except OSError as error:
                raise NativeBuildError(f"cannot run {compiler}: {error}") from None
            try:
                output, _ = process.communicate(timeout=self.timeout_s)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):  # it just ended
                    os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                raise NativeBuildError(
                    f"{compiler} took longer than {self.timeout_s} s"
                ) from None
            if process.returncode != 0:
                text = output.decode(errors="replace").strip()[-400:]
                raise NativeBuildError(
                    f"{compiler} failed (exit {process.returncode}): {text}"
                )
            try:
                os.replace(temporary, path)
            except OSError as error:
                raise NativeBuildError(f"cannot write {path}: {error}") from None
        finally:
            if os.path.exists(temporary):
                os.unlink(temporary)


def _declare(library: ctypes.CDLL) -> None:
    scan = library.repro_naive_scan
    scan.restype = ctypes.c_int
    scan.argtypes = [
        _ADDRESS, _I64, _I64,            # tables, m, ksub
        _ADDRESS, _ADDRESS, _ADDRESS,    # codes, ids, dead
        _ADDRESS, _ADDRESS, _I64, _I64,  # n_rows, n_cells, n_jobs, width
        _ADDRESS, _ADDRESS, _ADDRESS,    # out_dist, out_ids, lengths
    ]
    combine = library.repro_combine_tables
    combine.restype = ctypes.c_int
    combine.argtypes = [
        _ADDRESS, _I64, _I64, _I64,      # r_sq, n, m, ksub
        _ADDRESS, _I64, _ADDRESS, _I64,  # query_half, stride, rows, n_queries
        _ADDRESS, _I64, _ADDRESS, _I64,  # cell_half, stride, cells, step,
        _I64, _ADDRESS,                  # n_cell_rows, out
    ]
    fused = library.repro_naive_scan_halves
    fused.restype = ctypes.c_int
    fused.argtypes = [
        _ADDRESS,                             # r_sq
        *combine.argtypes[4:8],               # query_half, stride, rows, n_queries
        *combine.argtypes[8:13],              # cell_half ... n_cell_rows
        _I64, _I64, _I64,                     # m, ksub, scratch_min_rows
        *scan.argtypes[3:],                   # codes ... lengths
    ]
    for name in CROSS_VARIANTS:
        cross = getattr(library, name)
        cross.restype = ctypes.c_int
        cross.argtypes = [_ADDRESS, _I64, _I64, _I64, _I64, _ADDRESS, _ADDRESS]
    for name in ROUTE_VARIANTS:
        route = getattr(library, name)
        route.restype = ctypes.c_int
        route.argtypes = [
            _ADDRESS, _I64, _I64,            # queries, b, d
            _ADDRESS, _ADDRESS, _I64, _I64,  # codebook, c_sq, n, nprobe
            _ADDRESS, _ADDRESS,              # cells, distances (or NULL)
        ]
    select = library.repro_select_rows
    select.restype = ctypes.c_int
    select.argtypes = [_ADDRESS, _ADDRESS, _I64, _I64, _I64, _ADDRESS, _ADDRESS]


#: The process's library: a loaded shared object is process-wide state.
_LIBRARY = NativeLibrary()


def build() -> bool:
    """Compile the library into the cache if it is not there, and load
    it; True when the kernels run. Never raises: a failure is
    :func:`reason`, and the numpy paths run."""
    return _LIBRARY.handle(build=True) is not None


def available() -> bool:
    """Whether the kernels run: the library is loaded (or is in the
    cache, which this loads) and ``REPRO_NATIVE`` is not ``0``."""
    return _LIBRARY.handle() is not None


def reason() -> str | None:
    """Why the kernels do not run, or None when they do."""
    _LIBRARY.handle()
    return _LIBRARY.reason


def _interface_address(array: np.ndarray) -> int:
    return int(array.__array_interface__["data"][0])


#: Where an ndarray object keeps its data pointer: the first field after
#: the object header (``PyArrayObject_fields.data``, what
#: ``PyArray_DATA`` reads), so ``id(array) + offset``.
_DATA_FIELD = 2 * ctypes.sizeof(ctypes.c_ssize_t)
_pointer_at = ctypes.c_void_p.from_address


def _field_address(array: np.ndarray) -> int:
    return _pointer_at(id(array) + _DATA_FIELD).value or 0


def _reads_the_data_field() -> bool:
    """Whether :func:`_field_address` reads what ``__array_interface__``
    reports, for a plain array, an offset view and a read-only one, in
    this interpreter (CPython's ``id`` is the object's address)."""
    if platform.python_implementation() != "CPython":
        return False
    base = np.arange(16.0)
    probes = (base, base[3:11:2], np.frombuffer(bytes(64), dtype=np.float64)[1:])
    return all(_field_address(a) == _interface_address(a) for a in probes)


#: The data pointer of an array, for a kernel argument. The ndarray's
#: own field costs 0.2 us a read on a 2-core x86 host, against 1.4 us
#: for ``__array_interface__`` (which builds a dict), the fallback where
#: the field cannot be read.
_address = _field_address if _reads_the_data_field() else _interface_address


def _scan_arrays(
    m: int,
    n_tables: int,
    codes: np.ndarray,
    ids: np.ndarray,
    dead: np.ndarray | None,
    n_rows: np.ndarray,
    n_cells: "np.ndarray | Sequence[int]",
    topk: int,
) -> tuple | None:
    """The row arguments and fresh outputs of a scan kernel (from
    ``codes`` to ``lengths``), or None where the kernel is not exact."""
    if (codes.dtype != np.uint8 or not isinstance(topk, (int, np.integer))
            or topk < 1):
        return None
    n_rows = np.ascontiguousarray(n_rows, dtype=np.int64)
    n_cells = np.ascontiguousarray(n_cells, dtype=np.int64)
    if (codes.shape != (int(n_rows.sum()), m) or ids.shape != (len(codes),)
            or (dead is not None and dead.shape != ids.shape)
            or int(n_cells.sum()) != n_tables or n_rows.shape != n_cells.shape):
        return None
    codes = np.ascontiguousarray(codes)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if dead is not None:
        dead = np.ascontiguousarray(dead, dtype=np.bool_)
    width = min(topk, int(n_rows.max(initial=0)))
    out = (
        np.empty((n_tables, width), dtype=np.float64),
        np.empty((n_tables, width), dtype=np.int64),
        np.empty(n_tables, dtype=np.int64),
    )
    return (codes, ids, dead, n_rows, n_cells, width, out)


def _run_scan(kernel, leading: tuple, arrays: tuple) -> tuple | None:
    """``kernel(*leading, <arrays>)``; its ``(ids, distances, lengths)``,
    or None on a status that sends the call back to numpy."""
    codes, ids, dead, n_rows, n_cells, width, (distances, top_ids, lengths) = arrays
    status = kernel(
        *leading,
        _address(codes), _address(ids), None if dead is None else _address(dead),
        _address(n_rows), _address(n_cells), len(n_rows), width,
        _address(distances), _address(top_ids), _address(lengths),
    )
    return None if status else (top_ids, distances, lengths)


def naive_scan(
    tables: np.ndarray,
    codes: np.ndarray,
    ids: np.ndarray,
    dead: np.ndarray | None,
    n_rows: np.ndarray,
    n_cells: "np.ndarray | Sequence[int]",
    topk: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The naive PQ Scan of a run of jobs, or None (run numpy).

    Job ``i`` is ``n_cells[i]`` consecutive tables of the ``(c, m, k*)``
    stack against the next ``n_rows[i]`` rows of ``codes`` / ``ids`` /
    ``dead`` (the rows to leave out; None for none). Returns the
    ``(c, min(topk, max n_rows))`` ids and distances of every cell's
    best live rows by (distance, id), padded with ``(PAD_ID,
    PAD_DISTANCE)``, and each cell's count of real entries.

    None when the kernels do not run, or when the inputs fall outside
    what the kernel is exact for (codes not ``uint8``, ``topk < 1``, a
    code past the table, a NaN distance), so that numpy answers, or
    raises, as it always has.
    """
    library = _LIBRARY.handle()
    if library is None or tables.ndim != 3:
        return None
    c, m, ksub = tables.shape
    arrays = _scan_arrays(m, c, codes, ids, dead, n_rows, n_cells, topk)
    if arrays is None:
        return None
    tables = np.ascontiguousarray(tables, dtype=np.float64)
    return _run_scan(library.repro_naive_scan, (_address(tables), m, ksub), arrays)


#: Fewest rows, per entry of a component's table (``k*``), a job needs
#: for each of its cells to be combined once into a scratch table; a
#: shorter partition is scanned from the halves, each looked-up entry
#: combined where it is read (:func:`naive_scan_halves`). Measured on a
#: 2-core x86 host, 128 cells of one job scanned both ways (medians of
#: 15): from the halves took 0.92x the scratch table's time at 128 rows
#: of 8x8, 1.01x at 256 and 1.10x at 512; 0.85x at 8 rows of 16x4,
#: 0.96x at 16 and 1.05x at 32. So the crossover is a partition about
#: as long as its table: ``probe-sharded``'s ~90-row partitions are
#: scanned from the halves, ``scan-*``'s 16 384 rows from a scratch table.
SCRATCH_ROWS_PER_ENTRY = 1.0


def naive_scan_halves(
    halves: "TableHalves",
    codes: np.ndarray,
    ids: np.ndarray,
    dead: np.ndarray | None,
    n_rows: np.ndarray,
    n_cells: "np.ndarray | Sequence[int]",
    topk: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """:func:`naive_scan` of ``halves.combine()``, with no table made,
    or None (run numpy).

    ``halves`` holds one table row per cell, job by job. Each cell's
    entries are combined where the scan reads them, in the combine's
    operations; a job of at least :data:`SCRATCH_ROWS_PER_ENTRY` x ``k*``
    rows combines each of its cells once into one reused ``(m, k*)``
    scratch table instead. The bytes are :func:`naive_scan`'s of the
    combined tables either way. None where :func:`naive_scan` or
    :func:`combine_tables` would give up (a row or cell out of range
    among them).
    """
    library = _LIBRARY.handle()
    if library is None:
        return None
    layout = _halves_layout(
        halves.r_sq, halves.query_half, halves.rows, halves.cell_half, halves.cells
    )
    if layout is None:
        return None
    _held, args = layout
    n, m = halves.r_sq.shape
    ksub = halves.query_half.shape[-1]
    arrays = _scan_arrays(m, n, codes, ids, dead, n_rows, n_cells, topk)
    if arrays is None:
        return None
    leading = (*args, m, ksub, int(np.ceil(SCRATCH_ROWS_PER_ENTRY * ksub)))
    return _run_scan(library.repro_naive_scan_halves, leading, arrays)


def _blocks_of(array: np.ndarray) -> int | None:
    """The stride, in float64s, between the C-order ``(m, k*)`` blocks of
    a ``(n, m, k*)`` float64 array (0 for a broadcast one), or None."""
    if array.dtype != np.float64 or array.ndim != 3:
        return None
    _, m, ksub = array.shape
    step, row, item = array.strides
    if item != 8 or row != 8 * ksub or step % 8 or step < 0:
        return None
    return step // 8


def _halves_layout(
    r_sq: np.ndarray,
    query_half: np.ndarray,
    rows: np.ndarray | None,
    cell_half: np.ndarray,
    cells: np.ndarray,
) -> tuple[tuple, tuple] | None:
    """The kernels' arguments for Step 2's halves, from ``r_sq`` to
    ``n_cell_rows``, after the arrays they address (hold on to those
    until the call returns), or None where the kernels cannot read
    them."""
    cells = np.asarray(cells)
    if rows is not None:
        rows = np.asarray(rows)
    n, m = r_sq.shape
    query_stride, cell_stride = _blocks_of(query_half), _blocks_of(cell_half)
    if (query_stride is None or cell_stride is None or query_half.shape[1] != m
            or cell_half.shape[1:] != query_half.shape[1:]
            or cells.dtype.kind not in "iu" or cells.shape not in ((), (n,))
            or (rows is not None
                and (rows.dtype.kind not in "iu" or rows.shape != (n,)))):
        return None
    if rows is not None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
    # One cell is a 0-d array read with step 0 (ascontiguousarray would
    # make it 1-d).
    cells = cells.astype(np.int64, copy=False)
    if cells.ndim:
        cells = np.ascontiguousarray(cells)
    r_sq = np.ascontiguousarray(r_sq, dtype=np.float64)
    return (r_sq, rows, cells), (
        _address(r_sq), _address(query_half), query_stride,
        None if rows is None else _address(rows), len(query_half),
        _address(cell_half), cell_stride, _address(cells), int(cells.ndim > 0),
        len(cell_half),
    )


#: Fewest table entries (rows x m x k*) the C combine is used for; a
#: smaller block is combined by numpy. It bounds what is still combined
#: into a table stack: the scanners other than naive, and naive where
#: :func:`naive_scan_halves` does not run. Measured on a
#: 2-core x86 host: in isolation the C combine ties numpy at 8 192
#: entries (4 rows at 8x8, 32 at 16x4, one cell) and wins from there
#: (0.75x at 8x8 x 8 rows), but in perfbench's traced ``scan-fastpq``
#: replay (8 rows, 16 384 entries, between fastpq scans) it read
#: ``ivf.tables_ms`` 0.259 ms against numpy's 0.241 (medians of seven
#: alternating pairs).
COMBINE_MIN_ENTRIES = 1 << 15


def combine_tables(
    r_sq: np.ndarray,
    query_half: np.ndarray,
    rows: np.ndarray | None,
    cell_half: np.ndarray,
    cells: np.ndarray,
) -> np.ndarray | None:
    """Step 2's combine, ``max((cell_half[cells] + r_sq) -
    query_half[rows], 0)``, as a fresh ``(n, m, k*)`` array, or None
    (run numpy).

    ``r_sq`` is ``(n, m)``; ``rows`` (None: all of ``query_half``) and
    ``cells`` (one cell, or one per row) index ``query_half`` and
    ``cell_half`` in place: no gathered copy of either is made.
    ``cell_half`` may be a stride-0 broadcast of one block. A row or
    cell out of range returns None, and numpy raises.
    """
    n, m = r_sq.shape
    ksub = query_half.shape[-1]
    if n * m * ksub < COMBINE_MIN_ENTRIES:
        return None
    library = _LIBRARY.handle()
    if library is None:
        return None
    layout = _halves_layout(r_sq, query_half, rows, cell_half, cells)
    if layout is None:
        return None
    _held, args = layout
    out = np.empty((n, m, ksub), dtype=np.float64)
    status = library.repro_combine_tables(
        args[0], n, m, ksub, *args[1:], _address(out)
    )
    return None if status else out


#: The query-half kernel's symbols: the one ``cross_tables`` calls (the
#: widest clone the CPU runs), and each clone, which the tests compare.
CROSS_VARIANTS = (
    "repro_cross_tables", "repro_cross_tables_portable", "repro_cross_tables_avx2"
)

#: Fewest products (rows x d x k*) the C query half is used for; a
#: smaller block is einsum's. Measured on a 2-core x86 host, d = 128
#: (medians, C / einsum). Alone, through
#: ``ProductQuantizer.cross_tables_batch`` (~10 us of it marshalling),
#: C wins from 4 rows of 16x4 (8 192 products: 12.0 / 14.1 us) and at
#: one row of 8x8 (32 768: 13.4 / 15.2 us). Between quickadc scans, as
#: perfbench's replay runs it, ``distance_tables_for_batch`` of
#: ``scan-quickadc``'s 16-row batches (32 768 products) read 137-155 us
#: with the C query half against einsum's 130-146 (three runs of 8
#: alternating passes; traced ``ivf.tables_ms`` 0.14-0.23 against
#: 0.12-0.19 ms over eight perfbench pairs), while ``scan-fastpq``'s
#: 8-row batches (262 144) read 193-290 against 211-265 us and every
#: larger block wins outright (128 rows of 8x8: 1.09 ms against 2.77).
#: So that batch, and any block up to 2^16 products, stays einsum's.
CROSS_MIN_PRODUCTS = 1 << 16


def cross_tables(queries: np.ndarray, codebooks: np.ndarray) -> np.ndarray | None:
    """Step 2's query half, ``2<x_j, C_ji>``, as a fresh ``(n, m, k*)``
    array, or None (run numpy).

    ``queries`` is ``(n, m * d*)`` and ``codebooks`` the ``(m, d*, k*)``
    stack, both C-contiguous float64. Each entry is numpy's: ``0.0``
    plus ``x_d C_{j,d,i}`` in ``d`` order, then doubled (einsum
    ``"qjd,jdi->qji"`` and ``*= 2.0``), whatever the batch.
    """
    n, d = queries.shape
    m, dsub, ksub = codebooks.shape
    # einsum sums a single-centroid table (k* = 1) in another order.
    if n * d * ksub < CROSS_MIN_PRODUCTS or ksub < 2:
        return None
    library = _LIBRARY.handle()
    if (library is None or d != m * dsub or queries.dtype != np.float64
            or codebooks.dtype != np.float64 or not queries.flags.c_contiguous
            or not codebooks.flags.c_contiguous):
        return None
    out = np.empty((n, m, ksub), dtype=np.float64)
    library.repro_cross_tables(
        _address(queries), n, m, dsub, ksub, _address(codebooks), _address(out)
    )
    return out


#: The routing kernel's symbols: the one :func:`route` calls (the widest
#: clone the CPU runs), and each clone, which the tests compare.
ROUTE_VARIANTS = ("repro_route", "repro_route_portable", "repro_route_avx2")


def einsum_distances(
    queries: np.ndarray, codebook: np.ndarray, c_sq: np.ndarray
) -> np.ndarray:
    """Step 1's ``(b, n)`` centroid distances with numpy, the numpy
    route's: ``max((||x||^2 + c_sq) - 2<x, c>, 0)``, each dot product an
    einsum. What the routing kernel gives, byte for byte."""
    x_sq = np.einsum("qd,qd->q", queries, queries)
    cross = np.einsum("qd,id->qi", queries, codebook)
    dists = x_sq[:, None] + c_sq[None, :] - 2.0 * cross
    return np.maximum(dists, 0.0, out=dists)


def _routes_like_einsum(library: ctypes.CDLL) -> bool:
    """Whether the routing kernel's distances are einsum's on a fixed
    block (every block, pair and lone tail of the sum). numpy picks its
    einsum loop for the CPU at run time, so a machine whose loop sums in
    another order routes in numpy instead."""
    rng = np.random.default_rng(0)
    queries, codebook = rng.standard_normal((2, 6, 19)) * 10.0
    c_sq = np.einsum("id,id->i", codebook, codebook)
    cells = np.empty((6, 6), dtype=np.int64)
    got = np.empty((6, 6))
    status = library.repro_route(
        _address(queries), 6, 19, _address(codebook), _address(c_sq), 6, 6,
        _address(cells), _address(got),
    )
    return status == 0 and got.tobytes() == einsum_distances(
        queries, codebook, c_sq
    ).tobytes()


def route(
    queries: np.ndarray,
    codebook: np.ndarray,
    c_sq: np.ndarray,
    nprobe: int,
) -> np.ndarray | None:
    """Step 1: each query's ``nprobe`` nearest cells, ``(b, nprobe)``
    int64, or None (route in numpy).

    ``queries`` is ``(b, d)`` and ``codebook`` ``(n, d)``, both
    C-contiguous float64 (numpy's einsum sums a strided row in another
    order), and ``c_sq`` the codebook's einsum squared norms. A row is
    the first ``nprobe`` cells by (:func:`einsum_distances`, cell id),
    what ``select_topk_rows`` picks from numpy's distances. None where
    the kernels do not run, where this machine's einsum sums in another
    order than the kernel (checked once per library) or where a distance
    is not finite (numpy then routes, and defines that case).
    """
    library = _LIBRARY.handle()
    if library is None or not _LIBRARY.routes_exactly(library):
        return None
    b, d = queries.shape
    n = len(codebook)
    if (queries.dtype != np.float64 or codebook.dtype != np.float64
            or c_sq.dtype != np.float64 or codebook.shape != (n, d)
            or c_sq.shape != (n,) or not queries.flags.c_contiguous
            or not codebook.flags.c_contiguous or not c_sq.flags.c_contiguous):
        return None
    cells = np.empty((b, nprobe), dtype=np.int64)
    status = library.repro_route(
        _address(queries), b, d, _address(codebook), _address(c_sq), n, nprobe,
        _address(cells), None,
    )
    return None if status else cells


def select_rows(
    distances: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``select_topk_rows(distances, ids, k)`` for a ``(b, n)`` block
    with ``(b, n)`` ids, ``(ids, distances)`` of shape ``(b, min(k,
    n))``, or None (select with numpy): where the kernels do not run, or
    on a NaN distance, which numpy defines."""
    library = _LIBRARY.handle()
    if library is None or distances.ndim != 2 or ids.shape != distances.shape:
        return None
    b, n = distances.shape
    k = min(k, n)
    if k < 1 or distances.dtype != np.float64 or ids.dtype != np.int64:
        return None
    distances = np.ascontiguousarray(distances)
    ids = np.ascontiguousarray(ids)
    top_distances = np.empty((b, k), dtype=np.float64)
    top_ids = np.empty((b, k), dtype=np.int64)
    status = library.repro_select_rows(
        _address(distances), _address(ids), b, n, k,
        _address(top_distances), _address(top_ids),
    )
    return None if status else (top_ids, top_distances)
