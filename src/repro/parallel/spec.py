"""Picklable scanner specifications for worker-process reconstruction.

Worker processes cannot receive live scanner objects: scanners hold the
product quantizer (large codebooks), lazily-built centroid assignments
and prepared-layout caches — none of which should cross a process
boundary by pickling. Instead the parent ships a tiny
:class:`ScannerSpec` (a frozen dataclass of plain configuration values)
and each worker rebuilds an equivalent scanner locally from the pq it
loaded out of the mmapped index artifact.

Equivalence is exact: every scanner in this library is deterministic
given its configuration (assignment clustering is seeded), so a rebuilt
scanner returns byte-identical results to the parent's instance.

This module is also the one statement of the scanner kinds
(:data:`SCANNER_KINDS`): which class a kind names, which spec fields its
constructor takes and which code shape it can scan. ``EngineConfig``
validates against it and :class:`ScannerSpec` builds from it, so a new
kind is an edit to its class and to the table below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core import PQFastScanner, QuantizationOnlyScanner
from ..exceptions import ConfigurationError
from ..pq.product_quantizer import ProductQuantizer
from ..scan.base import PartitionScanner
from ..scan.libpq import LibpqScanner
from ..scan.naive import NaiveScanner
from ..scan.quickadc import QuickADCScanner

__all__ = ["SCANNER_KINDS", "ScannerSpec", "check_code_shape"]


@dataclass(frozen=True)
class _Kind:
    """What one scanner kind is; ``cls.name`` is how the kind is spelled.

    Attributes:
        cls: the scanner class.
        params: the :class:`ScannerSpec` fields its constructor takes,
            by keyword, after the quantizer. Empty for the stateless
            baselines, whose constructor takes nothing at all.
        fits: whether the kind can scan PQ ``m`` x ``bits`` codes.
        needs: that code shape in words, for the refusal.
    """

    cls: type[PartitionScanner]
    params: tuple[str, ...] = ()
    fits: Callable[[int, int], bool] = lambda m, bits: True
    needs: str = ""


_KINDS: dict[str, _Kind] = {
    kind.cls.name: kind
    for kind in (
        _Kind(NaiveScanner),
        _Kind(
            LibpqScanner,
            fits=lambda m, bits: m == 8 and bits <= 8,
            needs="m=8 and bits<=8 ((n, 8) byte codes, one 64-bit word each)",
        ),
        _Kind(
            PQFastScanner,
            (
                "keep",
                "group_components",
                "assignment",
                "qmax_bound",
                "seed",
                "prepared_cache_size",
            ),
            fits=lambda m, bits: bits == 8,
            needs="bits=8 (byte codes, 256-entry tables cut into 16 portions)",
        ),
        _Kind(
            QuantizationOnlyScanner,
            ("keep",),
            fits=lambda m, bits: bits == 8,
            needs="bits=8 (byte codes, 256-entry int8 tables)",
        ),
        _Kind(
            QuickADCScanner,
            ("keep", "prepared_cache_size"),
            fits=lambda m, bits: bits == 4,
            needs="bits=4 (nibble codes whose 16-entry tables fit one SIMD "
            "register)",
        ),
    )
}

#: The one spec field a live scanner keeps under another attribute name
#: (``PQFastScanner.assignment`` is the learned assignment itself).
_KEPT_AS = {"assignment": "assignment_mode"}

#: The scanner kinds, as :attr:`EngineConfig.scanner
#: <repro.engine.EngineConfig>` and :attr:`ScannerSpec.kind` spell them.
SCANNER_KINDS: tuple[str, ...] = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown scanner kind {kind!r}; choose from {SCANNER_KINDS}"
        )
    return _KINDS[kind]


def check_code_shape(kind: str, m: int, bits: int) -> None:
    """Refuse a scanner ``kind`` that cannot scan PQ ``m`` x ``bits`` codes."""
    entry = _kind(kind)
    if not entry.fits(m, bits):
        raise ConfigurationError(
            f"scanner={kind!r} requires {entry.needs}, got m={m}, bits={bits}"
        )


@dataclass(frozen=True)
class ScannerSpec:
    """Plain-data description of a scanner, picklable across processes.

    Attributes:
        kind: scanner kind, one of :data:`SCANNER_KINDS`.
        keep: keep/sample fraction (fastpq / quickadc / qonly).
        group_components: explicit grouping components (fastpq).
        assignment: assignment mode (fastpq).
        qmax_bound: qmax bound mode (fastpq).
        seed: assignment clustering seed (fastpq).
        prepared_cache_size: prepared-layout LRU cap (fastpq / quickadc).
    """

    kind: str
    keep: float = 0.005
    group_components: int | None = None
    assignment: str = "optimized"
    qmax_bound: str = "keep"
    seed: int = 0
    prepared_cache_size: int | None = 256

    @classmethod
    def for_scanner(cls, scanner: PartitionScanner) -> "ScannerSpec":
        """Extract the spec of a live scanner instance.

        Raises :class:`~repro.exceptions.ConfigurationError` for scanner
        types the worker processes cannot reconstruct (e.g. user-defined
        subclasses carrying state beyond these fields).
        """
        entry = _KINDS.get(scanner.name)
        if entry is None or type(scanner) is not entry.cls:
            raise ConfigurationError(
                f"scanner {type(scanner).__name__!r} cannot be reconstructed in "
                "worker processes; the process backend supports the built-in "
                f"scanners ({', '.join(SCANNER_KINDS)})"
            )
        return cls(
            kind=scanner.name,
            **{
                name: getattr(scanner, _KEPT_AS.get(name, name))
                for name in entry.params
            },
        )

    def build(self, pq: ProductQuantizer) -> PartitionScanner:
        """Instantiate the described scanner against ``pq``."""
        entry = _kind(self.kind)
        factory: Callable[..., PartitionScanner] = entry.cls
        if not entry.params:
            return factory()
        return factory(pq, **{name: getattr(self, name) for name in entry.params})
