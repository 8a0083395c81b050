"""Native kernels: the naive PQ Scan, Steps 1 and 2 and the merge's
selection in C.

``kernels.c`` holds five kernels, each declared once below as a
:class:`Kernel` (:data:`KERNELS`): its C symbol and variants, its C
arguments, each array's dtype, extents and layout, the counts that must
sum to an extent, its size gate, its numpy *twin* (the path it stands
in for, byte for byte) and an optional self-check. The ``argtypes``,
the checks every call passes before it reaches C (:meth:`Kernel.run`)
and the identity tests come from that table. A call that fails a check
returns None, and the caller runs the twin: numpy is the fallback
everywhere and the reference the tests hold the kernels to.

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
import math
import operator
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..exceptions import ConfigurationError, ReproError

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
        self._checked: dict[Kernel, bool] = {}  # each self-check, once

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

    def passes(self, kernel: Kernel, library: ctypes.CDLL) -> bool:
        """Whether ``kernel`` passes its self-check on ``library`` (this
        one's handle); each check runs once."""
        if kernel.self_check is None:
            return True
        if kernel not in self._checked:
            with self._lock:
                if kernel not in self._checked:
                    self._checked[kernel] = kernel.self_check(kernel, library)
        return self._checked[kernel]

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
            for kernel in KERNELS:
                for symbol in kernel.symbols:
                    function = getattr(library, symbol)
                    function.restype, function.argtypes = ctypes.c_int, kernel.argtypes
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


# -- the declarations ---------------------------------------------------------

#: A value a check refused: the call goes to numpy.
_REFUSED = object()


class Array:
    """An array argument: exactly ``dtype``, one extent per name in
    ``dims`` (a name two arguments share is one extent, and a size of the
    call), in C order.

    ``copy``: a strided array is copied into C order; without it (where
    the twin's bytes depend on the layout) a strided one goes to numpy.
    ``blocks``: C order within each ``dims[1:]`` block, the blocks a
    non-negative whole number of items apart (0: one block broadcast),
    passed as the size ``<name>_stride``. ``optional``: None is NULL.
    ``written``: the kernel writes into it, so it must be writeable and
    in C order already.
    """

    def __init__(self, name: str, dtype: type, dims: str, *, copy: bool = True,
                 blocks: bool = False, optional: bool = False,
                 written: bool = False) -> None:
        self.name, self.dtype, self.dims = name, np.dtype(dtype), tuple(dims.split())
        self.copy, self.blocks = copy and not written, blocks
        self.optional, self.written = optional, written

    def bind(self, value: Any, sizes: dict[str, int]) -> Any:
        """``value`` as the kernel reads it, its extents put in ``sizes``,
        or :data:`_REFUSED`."""
        if value is None:
            return None if self.optional else _REFUSED
        if (not isinstance(value, np.ndarray) or value.dtype != self.dtype
                or value.ndim != len(self.dims)):
            return _REFUSED
        for dim, extent in zip(self.dims, value.shape):
            if sizes.setdefault(dim, extent) != extent:
                return _REFUSED
        if self.blocks:
            step = value.strides[0]
            if (step < 0 or step % value.itemsize or not value.flags.aligned
                    or not value[:1].flags.c_contiguous):
                return _REFUSED
            sizes[f"{self.name}_stride"] = step // value.itemsize
        elif not value.flags.carray:  # C order and aligned
            if not self.copy:
                return _REFUSED
            value = value.copy(order="C")
        if self.written and not value.flags.writeable:
            return _REFUSED
        return value


class Count(Array):
    """One int64 count per ``dim`` (any integer sequence): each >= 0, and
    together the extent ``total``."""

    def __init__(self, name: str, dim: str, total: str) -> None:
        super().__init__(name, np.int64, dim)
        self.total = total

    def bind(self, value: Any, sizes: dict[str, int]) -> Any:
        return super().bind(np.asarray(value), sizes)

    def holds(self, value: np.ndarray, sizes: dict[str, int]) -> bool:
        counts = value.tolist()  # Python ints: the sum cannot wrap
        return min(counts, default=0) >= 0 and sum(counts) == sizes[self.total]


class Int:
    """A scalar argument: an integer in int64's range, the size ``name``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.optional = False

    def bind(self, value: Any, sizes: dict[str, int]) -> Any:
        try:
            value = operator.index(value)
        except TypeError:
            return _REFUSED
        if not -(1 << 63) <= value < 1 << 63:
            return _REFUSED
        sizes[self.name] = value
        return value


class Kernel:
    """One C kernel and its variants, declared once.

    ``symbols``: the symbol a call runs (the widest clone the CPU runs,
    where there are clones), then each variant, which the tests hold to
    the twin too. ``inputs``: what a call passes, in order. ``c_args``:
    the C parameters, each an input or output array (passed as a
    pointer) or a size (int64): an extent, an ``Int`` input, a block
    stride or what ``gate`` derives. ``outputs``: fresh arrays sized by
    the call's sizes, returned in this order (alone when there is one).
    ``twin``: ``"module:function"``, the numpy path taking the same
    inputs and giving the same bytes. ``gate``: adds the sizes it derives
    from the call's sizes and bound inputs, or returns False to send the
    call to numpy. ``self_check``: run on the kernel and a library's
    handle, once per library; a False sends every call to numpy.
    """

    def __init__(self, symbols: tuple[str, ...], inputs: tuple, c_args: str,
                 outputs: tuple[Array, ...], *, twin: str,
                 gate: Callable[[dict, dict], bool],
                 self_check: Callable[[Kernel, ctypes.CDLL], bool] | None = None,
                 ) -> None:
        self.symbols, self.inputs, self.outputs = symbols, inputs, outputs
        self.name = symbols[0].removeprefix("repro_")
        self.twin, self.gate, self.self_check = twin, gate, self_check
        pointers = {spec.name for spec in (*inputs, *outputs) if isinstance(spec, Array)}
        self.c_args = tuple((name in pointers, name) for name in c_args.split())
        self.argtypes = [_ADDRESS if pointer else _I64 for pointer, _ in self.c_args]
        self.counts = [count for count in inputs if isinstance(count, Count)]
        self.output_names = [out.name for out in outputs]
        self.padding = (None,) * len(inputs)
        required = [i for i, spec in enumerate(inputs) if not spec.optional]
        self.arity = range(required[-1] + 1, len(inputs) + 1)

    def __call__(self, *values: Any, variant: str | None = None) -> Any:
        """The kernel's outputs for ``values`` (on ``variant``, one of
        :attr:`symbols`), or None: run the twin."""
        library = _LIBRARY.handle()
        if library is None or not _LIBRARY.passes(self, library):
            return None
        return self.run(getattr(library, variant or self.symbols[0]), values)

    def run(self, function: Callable[..., int], values: tuple) -> Any:
        """``function`` on ``values``, checked against the declaration:
        the outputs, or None where a check or the kernel's status sends
        the call to numpy."""
        if len(values) not in self.arity:
            raise ConfigurationError(f"{self.name}: {len(values)} arguments")
        bound: dict[str, Any] = {}
        sizes: dict[str, int] = {}
        for spec, value in zip(self.inputs, values + self.padding):
            value = bound[spec.name] = spec.bind(value, sizes)
            if value is _REFUSED:
                return None
        for count in self.counts:
            if not count.holds(bound[count.name], sizes):
                return None
        if not self.gate(sizes, bound):
            return None
        found = [np.empty([sizes[d] for d in out.dims], out.dtype) for out in self.outputs]
        bound.update(zip(self.output_names, found))
        if function(*[
            (None if bound[name] is None else _address(bound[name])) if pointer
            else sizes[name]
            for pointer, name in self.c_args
        ]):
            return None
        return found[0] if len(found) == 1 else tuple(found)


# -- naive's scans -------------------------------------------------------------

#: Fewest rows, per entry of a component's table (``k*``), a job needs
#: for each of its cells to be combined once into a scratch table rather
#: than each looked-up entry where it is read. The crossover measured on
#: a 2-core x86 host (128 cells of one job, both ways): 0.92x / 1.01x /
#: 1.10x at 128 / 256 / 512 rows of 8x8, 0.85x / 0.96x / 1.05x at 8 / 16
#: / 32 rows of 16x4. ``probe-sharded``'s ~90-row partitions are scanned
#: from the halves, ``scan-*``'s 16 384 rows from a scratch table.
SCRATCH_ROWS_PER_ENTRY = 1.0

#: A run of jobs, as both scans take it: job ``i`` is ``n_cells[i]``
#: consecutive cells (tables) against the next ``n_rows[i]`` rows of
#: ``codes`` / ``ids`` / ``dead`` (the rows to leave out; None for none).
_SCAN_INPUTS = (
    Array("codes", np.uint8, "r m"),
    Array("ids", np.int64, "r"),
    Array("dead", np.bool_, "r", optional=True),
    Count("n_rows", "j", total="r"),
    Count("n_cells", "j", total="c"),
    Int("topk"),
)
_SCAN_ARGS = " codes ids dead n_rows n_cells j width out_dist out_ids lengths"
#: Every cell's best ``width`` live rows by (distance, id), padded with
#: ``(PAD_ID, PAD_DISTANCE)``, and its count of real entries.
_SCAN_OUTPUTS = (
    Array("out_ids", np.int64, "c width"),
    Array("out_dist", np.float64, "c width"),
    Array("lengths", np.int64, "c"),
)


def _scan_width(sizes: dict, bound: dict) -> bool:
    """A scan's ``width``, ``min(topk, longest job)``."""
    if min(sizes["topk"], sizes["j"], sizes["m"], sizes["ksub"]) < 1:
        return False
    sizes["width"] = min(sizes["topk"], max(bound["n_rows"].tolist()))
    return True


#: The naive PQ Scan of a run of jobs from a ``(c, m, k*)`` table stack:
#: ``NaiveScanner.scan_run``. A code past its table or a NaN distance
#: sends it to numpy.
naive_scan = Kernel(
    ("repro_naive_scan",),
    (Array("tables", np.float64, "c m ksub"), *_SCAN_INPUTS),
    "tables m ksub" + _SCAN_ARGS,
    _SCAN_OUTPUTS,
    twin="repro.scan.naive:scan_in_numpy",
    gate=_scan_width,
)


def _halves_sizes(sizes: dict, bound: dict) -> bool:
    """:func:`_scan_width`, and the scratch-table threshold in rows."""
    if bound["rows"] is None and sizes["q"] != sizes["c"]:
        return False
    sizes["scratch"] = math.ceil(SCRATCH_ROWS_PER_ENTRY * sizes["ksub"])
    return _scan_width(sizes, bound)


#: :data:`naive_scan` of ``TableHalves(r_sq, query_half, rows, cell_half,
#: cells).combine()`` with no table made: ``NaiveScanner.scan_halves``.
#: Cell ``i`` reads query row ``rows[i]`` (None: row ``i``; negative from
#: the end) and cell ``cells[i]``; each looked-up entry is combined where
#: it is read, or, for a job of at least ``SCRATCH_ROWS_PER_ENTRY`` x
#: ``k*`` rows, each cell once into a scratch table. ``cell_half`` may be
#: one broadcast block. A row or cell out of range sends it to numpy too.
naive_scan_halves = Kernel(
    ("repro_naive_scan_halves",),
    (
        Array("r_sq", np.float64, "c m"),
        Array("query_half", np.float64, "q m ksub", blocks=True),
        Array("rows", np.int64, "c", optional=True),
        Array("cell_half", np.float64, "p m ksub", blocks=True),
        Array("cells", np.int64, "c"),
        *_SCAN_INPUTS,
    ),
    "r_sq query_half query_half_stride rows q cell_half cell_half_stride cells p"
    " m ksub scratch" + _SCAN_ARGS,
    _SCAN_OUTPUTS,
    twin="repro.scan.naive:scan_halves_in_numpy",
    gate=_halves_sizes,
)


# -- Step 2's query half -------------------------------------------------------

#: Fewest products (rows x d x k*) the C query half is used for; a
#: smaller block is einsum's. Measured on a 2-core x86 host, d = 128:
#: alone C wins from 8 192 products, but between ``scan-quickadc``'s
#: scans its 16-row batches (32 768 products) read 137-155 us against
#: einsum's 130-146, while ``scan-fastpq``'s 8-row ones (262 144) and
#: every larger block win (128 rows of 8x8: 1.09 ms against 2.77).
CROSS_MIN_PRODUCTS = 1 << 16


def _cross_gate(sizes: dict, bound: dict) -> bool:
    n, d, m, dsub, ksub = (sizes[dim] for dim in ("n", "d", "m", "dsub", "ksub"))
    # einsum sums a single-centroid table (k* = 1) in another order.
    return d == m * dsub and ksub >= 2 and n * d * ksub >= max(CROSS_MIN_PRODUCTS, 1)


#: Step 2's query half, ``2<x_j, C_ji>``, ``(n, m, k*)``, of ``(n, m *
#: d*)`` queries and the ``(m, d*, k*)`` codebooks:
#: ``ProductQuantizer.cross_tables_batch``. Each entry is numpy's:
#: ``0.0`` plus ``x_d C_{j,d,i}`` in ``d`` order, then doubled (einsum
#: ``"qjd,jdi->qji"`` and ``*= 2.0``), whatever the batch.
cross_tables = Kernel(
    ("repro_cross_tables", "repro_cross_tables_portable", "repro_cross_tables_avx2"),
    (
        Array("queries", np.float64, "n d", copy=False),
        Array("codebooks", np.float64, "m dsub ksub", copy=False),
    ),
    "queries n m dsub ksub codebooks out",
    (Array("out", np.float64, "n m ksub"),),
    twin="repro.pq.product_quantizer:einsum_cross_tables",
    gate=_cross_gate,
)


# -- Step 1 --------------------------------------------------------------------


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


def _routes_like_einsum(kernel: Kernel, library: ctypes.CDLL) -> bool:
    """Whether the routing ``kernel``'s distances are einsum's on a fixed
    block (every block, pair and lone tail of the sum). numpy picks its
    einsum loop for the CPU at run time, so a machine whose loop sums in
    another order routes in numpy instead."""
    rng = np.random.default_rng(0)
    queries, codebook = rng.standard_normal((2, 6, 19)) * 10.0
    c_sq = np.einsum("id,id->i", codebook, codebook)
    got = np.empty((6, 6))
    cells = kernel.run(library.repro_route, (queries, codebook, c_sq, 6, got))
    return cells is not None and got.tobytes() == einsum_distances(
        queries, codebook, c_sq
    ).tobytes()


def _route_gate(sizes: dict, bound: dict) -> bool:
    return sizes["d"] >= 1 and 1 <= sizes["nprobe"] <= sizes["n"]


#: Step 1: each of ``(b, d)`` queries' ``nprobe`` nearest cells of the
#: ``(n, d)`` codebook, ``(b, nprobe)``: ``IVFADCIndex.route_batch``. A
#: row is the first ``nprobe`` cells by (:func:`einsum_distances`, cell
#: id); ``c_sq`` is the codebook's einsum squared norms, and a ``(b, n)``
#: ``distances`` buffer gets the distances. C order only (einsum sums a
#: strided row in another order); a distance that is not finite, or a
#: machine whose einsum sums in another order than the kernel (the
#: self-check), sends it to numpy.
route = Kernel(
    ("repro_route", "repro_route_portable", "repro_route_avx2"),
    (
        Array("queries", np.float64, "b d", copy=False),
        Array("codebook", np.float64, "n d", copy=False),
        Array("c_sq", np.float64, "n", copy=False),
        Int("nprobe"),
        Array("distances", np.float64, "b n", optional=True, written=True),
    ),
    "queries b d codebook c_sq n nprobe cells distances",
    (Array("cells", np.int64, "b nprobe"),),
    twin="repro.ivf.inverted_index:route_in_numpy",
    gate=_route_gate,
    self_check=_routes_like_einsum,
)


# -- the merge -----------------------------------------------------------------


def _select_k(sizes: dict, bound: dict) -> bool:
    sizes["k"] = min(sizes["k"], sizes["n"])
    return sizes["k"] >= 1


#: ``select_topk_rows(distances, ids, k)`` of a ``(b, n)`` block with
#: ``(b, n)`` ids: ``(ids, distances)``, ``(b, min(k, n))``, as
#: ``StreamingMerger.results`` calls it. A NaN sends it to numpy.
select_rows = Kernel(
    ("repro_select_rows",),
    (Array("distances", np.float64, "b n"), Array("ids", np.int64, "b n"), Int("k")),
    "distances ids b n k out_dist out_ids",
    (Array("out_ids", np.int64, "b k"), Array("out_dist", np.float64, "b k")),
    twin="repro.scan.topk:select_topk_rows",
    gate=_select_k,
)

#: Every kernel; ``NativeLibrary`` sets each symbol's ``argtypes`` from it.
KERNELS = (naive_scan, naive_scan_halves, cross_tables, route, select_rows)
